"""Invariant subalgebra pipeline: kernels, generators, relations, membership."""

import random
from fractions import Fraction
from math import comb

import pytest

from poischain import (
    Polynomial,
    bracket_closure_check,
    cartan_subalgebra,
    enumerate_cycle_generators,
    full_subalgebra,
    generate,
    invariant_basis,
    is_invariant,
    lie_poisson_bracket,
    membership,
    monomial_basis,
    parse_polynomial,
    poisson_center_basis,
    relation_basis,
    span_subalgebra,
)
from poischain.commutant import (
    BudgetExceededError,
    GeneratorSet,
    apply_invariance_operator,
    weighted_exponents,
)

from helpers import random_polynomial, same_span

F = Fraction


def test_monomial_basis_counts_and_order():
    basis = monomial_basis(3, 2)
    assert len(basis) == comb(3 + 2 - 1, 2)
    keys = [m.sort_key(3) for m in basis]
    assert keys == sorted(keys, reverse=True)
    assert basis[0].exps == ((0, 2),)  # x1^2 leads
    assert [m.exps for m in monomial_basis(2, 0)] == [()]


def test_invariance_operator_is_a_derivation(sl3):
    rng = random.Random(11)
    vec = tuple(F(c) for c in (1, -1, 0, 2, 0, 0, 1, 0))
    for _ in range(10):
        p = random_polynomial(rng, 8, max_degree=2)
        q = random_polynomial(rng, 8, max_degree=2)
        lhs = apply_invariance_operator(sl3, vec, p * q)
        rhs = apply_invariance_operator(sl3, vec, p) * q + p * apply_invariance_operator(
            sl3, vec, q
        )
        assert lhs == rhs


def test_invariant_basis_sl2_torus(sl2):
    cart = cartan_subalgebra(sl2)
    deg1 = invariant_basis(sl2, cart, 1)
    assert [p.render(sl2.labels) for p in deg1] == ["h1"]
    deg2 = invariant_basis(sl2, cart, 2)
    assert [p.render(sl2.labels) for p in deg2] == ["h1^2", "e12*e21"]
    deg0 = invariant_basis(sl2, cart, 0)
    assert len(deg0) == 1 and deg0[0].degree == 0


def test_invariant_basis_full_sl2(sl2):
    full = full_subalgebra(sl2)
    assert invariant_basis(sl2, full, 1) == []
    deg2 = invariant_basis(sl2, full, 2)
    assert len(deg2) == 1
    assert deg2[0].monic().render(sl2.labels) == "h1^2 + 4*e12*e21"


def test_invariant_basis_members_are_invariant(sl3):
    cart = cartan_subalgebra(sl3)
    for k in (1, 2, 3):
        for p in invariant_basis(sl3, cart, k):
            assert is_invariant(sl3, cart, p)
            for vec in cart.vectors:
                assert apply_invariance_operator(sl3, vec, p).is_zero()


def test_generate_sl2_torus(sl2_torus, sl2):
    assert sl2_torus.labels() == ["q1", "q2"]
    assert [g.poly.render(sl2.labels) for g in sl2_torus.generators] == [
        "h1",
        "e12*e21",
    ]
    assert sl2_torus.kernel_dims == {1: 1, 2: 2}


def test_generate_sl3_torus_census(sl3_torus, sl3):
    assert sl3_torus.degrees() == [1, 1, 2, 2, 2, 3, 3]
    assert sl3_torus.kernel_dims == {1: 2, 2: 6, 3: 12}
    cycles = enumerate_cycle_generators(3)
    assert same_span(
        [g.poly for g in sl3_torus.generators], [g.poly for g in cycles.generators]
    )
    # degreewise too
    for d in (1, 2, 3):
        ours = [g.poly for g in sl3_torus.generators if g.degree == d]
        theirs = [g.poly for g in cycles.generators if g.degree == d]
        assert same_span(ours, theirs)


def test_indecomposables_exclude_products(sl2):
    gens = generate(sl2, cartan_subalgebra(sl2), max_degree=4)
    # h1^2, h1*(e12*e21), (e12*e21)^2 are all decomposable: nothing new at 3, 4
    assert gens.degrees() == [1, 2]


def test_relation_basis_sl3_cycle_relation(sl3):
    cg = enumerate_cycle_generators(3)
    rel = relation_basis(cg, 6)
    assert len(rel.relations) == 1
    r = rel.relations[0]
    assert r.weighted_degree == 6
    assert r.formal.render(cg.labels()) == "p12*p13*p23 - p123*p132"
    # substituting the actual generators must give the zero polynomial
    assert r.formal.substitute_linear is not None  # formal lives in generator vars


def test_relation_vanishes_on_substitution(sl3):
    cg = enumerate_cycle_generators(3)
    rel = relation_basis(cg, 6).relations[0]
    total = Polynomial.zero(sl3.dim)
    for mono, coeff in rel.formal.terms.items():
        prod = Polynomial.constant(coeff, sl3.dim)
        for var, exp in mono.exps:
            prod = prod * cg.polys()[var].power(exp)
        total = total + prod
    assert total.is_zero()


def test_relation_basis_trivial_cases(sl2_torus):
    assert relation_basis(sl2_torus, 4).relations == []


def test_relation_budget_guard(sl3_torus):
    with pytest.raises(BudgetExceededError):
        relation_basis(sl3_torus, 6, column_budget=3)


def test_weighted_exponents():
    out = weighted_exponents([1, 2], 4)
    assert set(out) == {(0, 2), (2, 1), (4, 0)}
    assert weighted_exponents([2], 3) == []


def test_membership_found(sl2, sl2_torus, sl2_casimirs):
    cas = sl2_casimirs.gens.polys()[0]
    res = membership(cas, sl2_torus, 2)
    assert res.status == "found"
    assert res.expression.render(sl2_torus.labels()) == "q1^2 + 4*q2"


def test_membership_not_invariant(sl2, sl2_torus):
    e = Polynomial.variable(1, 3)
    res = membership(e, sl2_torus, 2)
    assert res.status == "not_invariant"
    assert res.expression is None


def test_membership_budget_miss(sl3, sl3_torus):
    # p123^2 is invariant and degree 6; a budget of 1 cannot express it
    p = parse_polynomial("e12*e23*e31", 8, sl3.labels).power(2)
    res = membership(p, sl3_torus, 1)
    assert res.status == "not_found_up_to_budget"


def test_membership_constant(sl2_torus):
    res = membership(Polynomial.constant(F(7), 3), sl2_torus, 2)
    assert res.status == "found"
    assert res.expression.render(sl2_torus.labels()) == "7"


def test_bracket_closure_sl3_torus(sl3_torus):
    report = bracket_closure_check(sl3_torus)
    assert all(e.closed for e in report.entries)
    assert len(report.entries) == 7 * 8 // 2
    assert any(not e.bracket_is_zero for e in report.entries)


def test_bracket_closure_casimirs_all_zero(sl3, sl3_casimirs):
    report = bracket_closure_check(sl3_casimirs.gens)
    assert all(e.bracket_is_zero for e in report.entries)


def test_poisson_center_sl2(sl2, sl2_torus):
    cart = cartan_subalgebra(sl2)
    c1 = poisson_center_basis(sl2, cart, sl2_torus, 1)
    assert [p.render(sl2.labels) for p in c1] == ["h1"]
    c2 = poisson_center_basis(sl2, cart, sl2_torus, 2)
    assert [p.render(sl2.labels) for p in c2] == ["h1^2", "e12*e21"]


def test_poisson_center_sl3_degree_one(sl3, sl3_torus):
    cart = cartan_subalgebra(sl3)
    c1 = poisson_center_basis(sl3, cart, sl3_torus, 1)
    assert [p.render(sl3.labels) for p in c1] == ["h1", "h2"]


def test_center_elements_commute_with_generators(sl3, sl3_torus):
    cart = cartan_subalgebra(sl3)
    for k in (1, 2):
        for z in poisson_center_basis(sl3, cart, sl3_torus, k):
            for g in sl3_torus.generators:
                assert lie_poisson_bracket(z, g.poly, sl3).is_zero()


def test_generator_set_json_round_trip(sl3_torus):
    back = GeneratorSet.from_json(sl3_torus.to_json(), sl3_torus.algebra)
    assert back.labels() == sl3_torus.labels()
    assert back.kernel_dims == sl3_torus.kernel_dims
    assert [g.poly for g in back.generators] == [g.poly for g in sl3_torus.generators]


def test_generate_with_one_dim_torus(sl3):
    sub = span_subalgebra([[F(1), F(2)] + [F(0)] * 6], abelian=True)
    gens = generate(sl3, sub, max_degree=2)
    polys = {g.poly.render(sl3.labels) for g in gens.generators}
    assert {"h1", "h2", "e12", "e21"} <= polys
    assert {"e13*e31", "e13*e32", "e23*e31", "e23*e32"} <= polys
    assert len(polys) == 8


def test_kernel_dims_stable_under_budget_extension(sl2):
    low = generate(sl2, cartan_subalgebra(sl2), max_degree=2)
    high = generate(sl2, cartan_subalgebra(sl2), max_degree=3)
    for k, dim in low.kernel_dims.items():
        assert high.kernel_dims[k] == dim
    assert [g.poly for g in low.generators] == [
        g.poly for g in high.generators if g.degree <= 2
    ]
