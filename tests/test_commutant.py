"""Invariant subalgebra pipeline: kernels, generators, relations, membership."""

import json
import random
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb

import pytest

from poischain import (
    ConfigurationError,
    Generator,
    LieAlgebra,
    Polynomial,
    bracket_closure_check,
    builtin_sl,
    cartan_subalgebra,
    casimirs_by_kernel,
    direct_sum,
    enumerate_cycle_generators,
    full_subalgebra,
    generate,
    invariant_basis,
    is_invariant,
    j_map_casimir_check,
    lie_poisson_bracket,
    membership,
    mf_chain,
    mf_generators,
    monomial_basis,
    parse_polynomial,
    poisson_center_basis,
    relation_basis,
    span_subalgebra,
    torus_chain,
    trace_casimirs_sln,
    validate_algebra,
    validate_subalgebra,
)
from poischain import commutant, dump_json
from poischain.algebra import sl_flip, sl_size
from poischain.linalg import rank_of_rows
from poischain.commutant import (
    BudgetExceededError,
    GeneratorSet,
    _formal_columns,
    _formal_counts,
    _generator_products,
    _invariance_operators,
    _zero_weight_keys,
    _zero_weight_levels,
)
from poischain.poly import VectorField, hamiltonian_field, pack, unpack
from poischain.sampling import generic_jacobian_rank

from helpers import (
    expand_formal,
    full_basis_invariants,
    kernel_of_images,
    random_polynomial,
    reference_invariant_basis,
    reference_is_invariant,
    reference_membership,
    reference_poisson_center_basis,
    reference_relation_basis,
    rescaled_sl_json,
    same_span,
    summed_torus_set,
    zero_weight_counts,
)

F = Fraction


def _invariance_operator(alg, vec, p):
    """{l_H, p}: p differentiated along the Hamiltonian field of the linear
    form of the subalgebra element H with coordinates vec."""
    return VectorField(hamiltonian_field(alg.linear_form(vec), alg))(p)


def test_monomial_basis_counts_and_order():
    basis = monomial_basis(3, 2)
    assert len(basis) == comb(3 + 2 - 1, 2)
    keys = [(sum(d), d) for d in (m.dense(3) for m in basis)]
    assert keys == sorted(keys, reverse=True)
    assert basis[0].exps == ((0, 2),)  # x1^2 leads
    assert [m.exps for m in monomial_basis(2, 0)] == [()]


def test_invariance_operator_is_a_derivation(sl3):
    rng = random.Random(11)
    vec = tuple(F(c) for c in (1, -1, 0, 2, 0, 0, 1, 0))
    for _ in range(10):
        p = random_polynomial(rng, 8, max_degree=2)
        q = random_polynomial(rng, 8, max_degree=2)
        lhs = _invariance_operator(sl3, vec, p * q)
        rhs = _invariance_operator(sl3, vec, p) * q + p * _invariance_operator(
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
                assert _invariance_operator(sl3, vec, p).is_zero()


def _invariance_cases(n):
    """The trace Casimirs and torus generators of sl(n), e12 (weight not
    zero), e12*e21 (weight zero, not central), constants, zero, and seeded
    random sums of them, by name."""
    alg = builtin_sl(n)
    cases = {g.label: g.poly for g in trace_casimirs_sln(n).generators}
    cases.update((g.label, g.poly) for g in generate(alg, cartan_subalgebra(alg), n).generators)
    cases["e12"] = parse_polynomial("e12", alg.dim, alg.labels)
    cases["e12*e21"] = parse_polynomial("e12*e21", alg.dim, alg.labels)
    cases["1"] = Polynomial.one(alg.dim)
    cases["7/3"] = Polynomial.constant(F(7, 3), alg.dim)
    cases["0"] = Polynomial(alg.dim)
    rng = random.Random(1600 + n)
    names = sorted(cases)
    for i in range(25):
        picked = rng.sample(names, rng.randint(2, 4))
        total = Polynomial(alg.dim)
        for name in picked:
            total = total + cases[name].scale(F(rng.randint(-9, 9) or 1, rng.randint(1, 5)))
        cases[f"sum{i}:" + "+".join(picked)] = total
    return alg, cases


def _invariance_subalgebras(alg):
    e12 = alg.labels.index("e12")
    unit = [[F(int(i == j)) for i in range(alg.dim)] for j in range(alg.dim)]
    return {
        "full": full_subalgebra(alg),
        "cartan": cartan_subalgebra(alg),
        "h1+e12": span_subalgebra([unit[0], unit[e12]]),
        "e12": span_subalgebra([unit[e12]]),
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_is_invariant_weight_pass_matches_every_field(n):
    """One pass over the monomials against the weights decides the diagonal
    fields exactly as applying them does."""
    alg, cases = _invariance_cases(n)
    for sub_name, sub in _invariance_subalgebras(alg).items():
        verdicts = {}
        for name, p in cases.items():
            verdicts[name] = is_invariant(alg, sub, p)
            assert verdicts[name] == reference_is_invariant(alg, sub, p), (sub_name, name)
        assert not verdicts["e12"] or sub_name == "e12"
        assert verdicts["1"] and verdicts["7/3"] and verdicts["0"]
        assert verdicts["e12*e21"] == (sub_name == "cartan")
        assert all(verdicts[f"c{k}"] for k in range(2, n + 1))
        assert not all(verdicts.values())


def test_is_invariant_under_a_torus_applies_no_field(monkeypatch):
    """A torus has only diagonal fields, so its invariance test is the
    weight pass alone."""
    alg, cases = _invariance_cases(4)
    torus = cartan_subalgebra(alg)
    expected = {name: reference_is_invariant(alg, torus, p) for name, p in cases.items()}

    def refuse(self, q):
        raise AssertionError("vector field applied")

    monkeypatch.setattr(VectorField, "__call__", refuse)
    assert {name: is_invariant(alg, torus, p) for name, p in cases.items()} == expected


def test_is_invariant_rejects_a_polynomial_of_another_dimension(sl2, sl3):
    with pytest.raises(ValueError, match="dimension"):
        is_invariant(sl3, cartan_subalgebra(sl3), Polynomial.variable(0, sl2.dim))


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


def _chain_reports(alg):
    sub = cartan_subalgebra(alg)
    mu = [F(1), F(2)] + [F(0)] * 6
    return [mf_chain(alg, sub, mu).to_json(), j_map_casimir_check(alg).to_json()]


def test_generate_keeps_generators_with_the_algebra(monkeypatch):
    # torus_chain leaves the Casimirs and the torus generators with the
    # algebra, so the chains after it compute no invariant kernel
    alg = builtin_sl(3)
    torus_chain(alg)
    calls = []
    real = commutant.invariant_basis

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(commutant, "invariant_basis", counting)
    reports = _chain_reports(alg)
    assert calls == []
    monkeypatch.undo()
    assert reports == _chain_reports(builtin_sl(3))


@pytest.mark.parametrize("make_sub", [full_subalgebra, cartan_subalgebra], ids=["full", "cartan"])
def test_generate_at_a_lower_cap_after_a_higher_one(make_sub):
    # to_json holds the labels, the cap and the kernel dimensions
    alg = builtin_sl(3)
    generate(alg, make_sub(alg), 4)
    for prefix in ("q", "C"):
        fresh = builtin_sl(3)
        assert (
            generate(alg, make_sub(alg), 3, label_prefix=prefix).to_json()
            == generate(fresh, make_sub(fresh), 3, label_prefix=prefix).to_json()
        )


def test_generate_returns_a_fresh_set_each_call():
    alg = builtin_sl(3)
    sub = cartan_subalgebra(alg)
    first = generate(alg, sub, 3)
    expected = first.to_json()
    first.generators.append(first.generators[0])
    first.generators[1] = first.generators[2]
    first.kernel_dims[9] = 1
    assert generate(alg, sub, 3).to_json() == expected


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
    total = Polynomial(sl3.dim)
    for mono, coeff in rel.formal.terms.items():
        prod = Polynomial.constant(coeff, sl3.dim)
        for var, exp in mono.exps:
            prod = prod * cg.polys()[var].power(exp)
        total = total + prod
    assert total.is_zero()


def test_relation_basis_trivial_cases(sl2_torus):
    assert relation_basis(sl2_torus, 4).relations == []


def test_relation_budget_guard(sl3_torus, monkeypatch):
    monkeypatch.setattr(commutant, "COLUMN_BUDGET", 3)
    with pytest.raises(BudgetExceededError):
        relation_basis(sl3_torus, 6)


def test_free_family_guards(monkeypatch):
    """For a free family the Jacobian certificate comes after the degree
    check and before the column budget, so no budget is ever exceeded."""
    gens = _seeded_shift_family(3)
    with pytest.raises(ValueError):
        relation_basis(gens, 2)
    assert len(_formal_columns(gens.degrees(), 6)) > 3
    monkeypatch.setattr(commutant, "COLUMN_BUDGET", 3)
    assert relation_basis(gens, 6).relations == []


@pytest.mark.parametrize("n", [3, 4])
def test_free_certificate_matches_elimination(n):
    """Where relation_basis stops at the Jacobian certificate, the
    elimination it skips finds no kernel in any weighted degree up to 6."""
    gens = _seeded_shift_family(n)
    assert generic_jacobian_rank(gens.polys(), gens.algebra.dim) == len(gens.generators)
    assert relation_basis(gens, 6).relations == []
    nformal = len(gens.generators)
    for d in range(1, 7):
        # each product's own column, from its formal key unpacked and
        # expanded afresh
        cols = {}
        images = []
        for key, prod in _generator_products(gens.generators, d):
            assert prod == expand_formal(gens, unpack(key, nformal))
            images.append((cols.setdefault(key, len(cols)), prod))
        assert kernel_of_images(images, len(cols)) == [], d


def test_dependent_family_keeps_elimination(sl3_casimirs):
    """A family that is not free still gets its relations by elimination."""
    c2, c3 = sl3_casimirs.polys()
    gens = GeneratorSet(
        algebra=sl3_casimirs.algebra,
        generators=[
            Generator(poly=c2, degree=2, label="q2"),
            Generator(poly=c3, degree=3, label="q3"),
            Generator(poly=c2 * c2, degree=4, label="q4"),
        ],
    )
    rel = relation_basis(gens, 6)
    assert [(r.weighted_degree, r.render(gens)) for r in rel.relations] == [
        (4, "q2^2 - q4")
    ]


def _brute_force_columns(weights, total):
    """The formal columns by brute force: every exponent tuple of
    itertools.product with the right weighted degree, packed and sorted
    graded-lex descending."""
    return sorted(
        (
            pack(enumerate(exps), len(weights))
            for exps in product(range(total + 1), repeat=len(weights))
            if sum(w * e for w, e in zip(weights, exps)) == total
        ),
        reverse=True,
    )


def test_weighted_exponents():
    """The formal columns of small weight lists, read back as exponents."""
    cols = _formal_columns([1, 2], 4)
    assert [unpack(key, 2) for key in cols] == [((0, 4),), ((0, 2), (1, 1)), ((1, 2),)]
    assert _formal_columns([2], 3) == []
    assert _formal_columns([1, 2, 3], 0) == [0]
    with pytest.raises(ValueError):
        _formal_columns([1, 0], 2)


def test_weighted_exponents_match_brute_force():
    """The walk's columns, and its count of them, agree with brute force for
    100 seeded weight lists at every weighted degree 0..7."""
    rng = random.Random(2)
    for _ in range(100):
        weights = [rng.randint(1, 4) for _ in range(rng.randint(0, 5))]
        for total in range(8):
            expected = _brute_force_columns(weights, total)
            assert _formal_columns(weights, total) == expected, (weights, total)
            counts = _formal_counts(weights, total)
            assert counts[0][total] == len(expected), (weights, total)


def test_relation_budget_raises_before_any_product(sl3_torus, monkeypatch):
    """An over-budget relation search fails with the brute-force column count
    of its first degree over budget, before a single product is formed, even
    of the degrees below it that fit the budget."""
    weights = sl3_torus.degrees()
    budget = 10  # degree 2 (6 columns, products of two generators) fits
    d, ncols = next(
        (d, len(cols))
        for d in range(1, 7)
        if len(cols := _brute_force_columns(weights, d)) > budget
    )
    assert d > 2

    def no_product(self, other):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(Polynomial, "__mul__", no_product)
    monkeypatch.setattr(commutant, "COLUMN_BUDGET", budget)
    with pytest.raises(BudgetExceededError) as info:
        relation_basis(sl3_torus, 6)
    assert str(info.value) == f"{ncols} formal monomials at weighted degree {d}"
    assert info.value.degree == d


def _seeded_shift_family(n):
    """The argument-shift family of sl(n) at a regular Cartan shift whose
    eigenvalues are drawn from a seeded generator (distinct, so regular)."""
    alg = builtin_sl(n)
    eig = random.Random(11).sample(range(-9, 10), n)
    shift = [F(eig[i + 1] - eig[i]) for i in range(n - 1)] + [F(0)] * (n * n - n)
    return mf_generators(casimirs_by_kernel(alg, n), shift)


@pytest.mark.parametrize(
    "family, max_degree",
    [("sl3 torus", 6), ("sl4 torus", 8), ("sl4 shift family", 6)],
)
def test_generator_products_match_fresh_expansions(family, max_degree, sl3, sl4):
    if family == "sl4 shift family":
        gens = _seeded_shift_family(4)
    else:
        alg = sl3 if family == "sl3 torus" else sl4
        gens = generate(alg, cartan_subalgebra(alg), alg.rank())
    weights = gens.degrees()
    nformal = len(gens.generators)
    for d in range(1, max_degree + 1):
        products = list(_generator_products(gens.generators, d))
        keys = [key for key, _ in products]
        assert len(set(keys)) == len(keys)
        assert len(keys) == _formal_counts(weights, d)[0][d]
        for key, prod in products:
            exps = unpack(key, nformal)
            assert sum(weights[i] * e for i, e in exps) == d
            assert prod == expand_formal(gens, exps)


def test_generator_products_reject_degree_zero(sl2):
    gens = [Generator(poly=Polynomial.one(sl2.dim), degree=0, label="c")]
    with pytest.raises(ValueError):
        list(_generator_products(gens, 2))


def test_membership_found(sl2, sl2_torus, sl2_casimirs):
    cas = sl2_casimirs.polys()[0]
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


def _sl2_file_set(sl2, *entries):
    return GeneratorSet.from_json(
        {"generators": [{"label": label, "poly": poly} for label, poly in entries]}, sl2)


def test_membership_refuses_an_inhomogeneous_generator(sl2):
    # a = h1^2 + e12 passes from_json (its top degree is 2), and e12 = a - d^2,
    # yet the degree-1 solve never sees a: the answer was not_found_up_to_budget
    gens = _sl2_file_set(sl2, ("a", "h1^2 + e12"), ("d", "h1"))
    e12 = parse_polynomial("e12", sl2.dim, sl2.labels)
    with pytest.raises(ConfigurationError, match="generator 'a' is not homogeneous of its degree 2"):
        membership(e12, gens, 4)


def test_relation_basis_refuses_an_inhomogeneous_generator(sl2):
    # a - d^2 - c = 0, with Jacobian rank 2 of 3, but the per-degree
    # comparison found no relation
    gens = _sl2_file_set(sl2, ("a", "h1^2 + e12"), ("c", "e12"), ("d", "h1"))
    with pytest.raises(ConfigurationError, match="generator 'a' is not homogeneous of its degree 2"):
        relation_basis(gens, 4)


def test_membership_constant(sl2_torus):
    res = membership(Polynomial.constant(F(7), 3), sl2_torus, 2)
    assert res.status == "found"
    assert res.expression.render(sl2_torus.labels()) == "7"


def test_membership_product_route_miss(sl3, sl3_casimirs):
    """C3 is no polynomial in C2: the product route (C2 has several terms)
    finds no product of weighted degree 3 and reports the budget miss."""
    c3 = sl3_casimirs.polys()[1]
    low = casimirs_by_kernel(sl3, 2)
    assert commutant._single_terms(low.generators) is None
    assert membership(c3, low, 3).status == "not_found_up_to_budget"


def test_membership_over_torus_generators_builds_no_fraction(sl3, sl3_torus, fraction_count):
    """Single-term membership assembles its expression from integer
    numerators over one denominator: no Fraction, and the same expression
    as one exact solve per component."""
    targets = [
        parse_polynomial(text, sl3.dim, sl3.labels)
        for text in ("-1/2*e12*e23*e31 + 3/4*h1^2*h2 - 7/3",
                     "e12*e21*e13*e31 - 5*e23*e32 + 2/9*h2",
                     "-e13*e21*e32")
    ]
    before = fraction_count()
    got = [membership(p, sl3_torus, 6) for p in targets]
    assert fraction_count() == before
    for p, res in zip(targets, got):
        want = reference_membership(p, sl3_torus, 6)
        assert res.found and res.expression == want.expression


def test_membership_over_trace_casimirs_builds_no_fraction(sl3, sl3_casimirs, fraction_count):
    """The route over products of multi-term generators reads the solve's
    integer coefficients over one denominator: each kernel Casimir of sl(3),
    and a mixed-degree polynomial in them, is expressed in the trace
    Casimirs with no Fraction, as the reference solve expresses it."""
    trace = trace_casimirs_sln(3)
    assert commutant._single_terms(trace.generators) is None
    c2, c3 = sl3_casimirs.polys()
    targets = [c2, c3, c2 * c2 * F(1, 3) - c3 + Polynomial.constant(2, sl3.dim)]
    before = fraction_count()
    got = [membership(p, trace, 4) for p in targets]
    assert fraction_count() == before
    for p, res in zip(targets, got):
        assert res.found and res.expression == reference_membership(p, trace, 4).expression


def test_membership_by_products_zeroes_the_dependent_products():
    """In the summed sl(3) torus set the 73 products of weighted degree 6
    have rank 72: q3_1*q3_2 (x6*x7, last in column order) depends on the
    products before it.  The solve sets it to zero, so q3_1*q3_2 +
    q2_1*q2_2*q2_3 comes back in the other products, as the tagged
    reference gives it."""
    gens = summed_torus_set(3)
    assert commutant._single_terms(gens.generators) is None
    products = [prod for _, prod in _generator_products(gens.generators, 6)]
    cols = {}
    rows = [{cols.setdefault(m, len(cols)): v for m, v in prod.num.items()} for prod in products]
    assert (len(rows), rank_of_rows(rows)) == (73, 72)
    q = {g.label: g.poly for g in gens.generators}
    p = q["q3_1"] * q["q3_2"] + q["q2_1"] * q["q2_2"] * q["q2_3"]
    res = membership(p, gens, 6)
    assert res.found and res.expression.render() == "2*x3*x4*x5 - x4^2*x5"
    assert res.expression == reference_membership(p, gens, 6).expression


def test_membership_solves_every_degree_in_one_pass(sl3, sl3_torus, sl3_casimirs, monkeypatch):
    """A target with components of degrees 2, 3 and 5 is solved in one
    pass: one product-key table in the torus generators and one kernel in
    the kernel Casimirs, not one per component, with the expressions the
    per-component reference gives."""
    c2, c3 = trace_casimirs_sln(3).polys()
    p = c2 * F(1, 2) - c3 + c2 * c3 * 3
    calls = {"_product_codes": 0, "_kernel": 0}
    for name in calls:
        def counted(*args, name=name, inner=getattr(commutant, name)):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(commutant, name, counted)
    for gens, route in ((sl3_torus, "_product_codes"), (sl3_casimirs, "_kernel")):
        before = dict(calls)
        res = membership(p, gens, 5)
        assert res.found and res.expression == reference_membership(p, gens, 5).expression
        assert {k: calls[k] - before[k] for k in calls} == {
            k: int(k == route) for k in calls}


def test_indecomposables_do_not_depend_on_the_order_of_previous():
    """Neither route of indecomposables reads the order of the earlier
    generators: reversed and shuffled, they give the same new generators,
    on the torus sets of sl(2)-sl(5), the full sets of sl(2)-sl(4) and the
    summed sl(4) torus set."""
    cases = []
    for n in range(2, 6):
        alg = builtin_sl(n)
        cases.append((alg, cartan_subalgebra(alg), generate(alg, cartan_subalgebra(alg), n)))
        if n < 5:
            cases.append((alg, full_subalgebra(alg), generate(alg, full_subalgebra(alg), n)))
    summed = summed_torus_set(4)
    cases.append((summed.algebra, cartan_subalgebra(summed.algebra), summed))
    rng = random.Random(38)
    for alg, sub, gens in cases:
        shuffled = list(gens.generators)
        rng.shuffle(shuffled)
        for k in range(1, max(gens.degrees()) + 1):
            inv = invariant_basis(alg, sub, k)
            want = commutant.indecomposables(alg, k, gens.generators, inv)
            for previous in (gens.generators[::-1], shuffled):
                assert commutant.indecomposables(alg, k, previous, inv) == want, (alg.name, k)


def test_bracket_closure_sl3_torus(sl3_torus):
    report = bracket_closure_check(sl3_torus)
    assert all(e.closed for e in report.entries)
    assert len(report.entries) == 7 * 8 // 2
    assert any(not e.bracket_is_zero for e in report.entries)


def test_membership_keeps_the_scale_of_its_products(sl2):
    """Coefficients refer to the generator products themselves, not to
    rescaled copies: a scaled target and a product with content both come
    back with their scales."""
    g = parse_polynomial("h1^2 + 1/2*e12*e21", sl2.dim, sl2.labels)
    gens = GeneratorSet(
        algebra=sl2,
        generators=[Generator(poly=g, degree=2, label="g")],
        subalgebra=cartan_subalgebra(sl2),
    )
    res = membership(g.scale(F(3)), gens, 2)
    assert res.expression.render(gens.labels()) == "3*g"
    res = membership(g.scale(F(2, 3)), gens, 2)
    assert res.expression.render(gens.labels()) == "2/3*g"
    res = membership(g * g + g.scale(F(3)), gens, 4)
    assert res.expression.render(gens.labels()) == "g^2 + 3*g"


@pytest.mark.parametrize("n", [3, 4])
def test_bracket_closure_expressions_expand_back(n):
    """Every closure expression on the sl(n) torus, parsed and expanded in
    the generators, gives back the bracket it expresses."""
    alg = builtin_sl(n)
    gens = generate(alg, cartan_subalgebra(alg), n)
    polys = {g.label: g.poly for g in gens.generators}
    nformal = len(gens)
    report = bracket_closure_check(gens)
    expressed = 0
    for e in report.entries:
        if e.bracket_is_zero:
            continue
        assert e.closed
        formal = parse_polynomial(e.expression, nformal, gens.labels())
        expanded = Polynomial(alg.dim)
        for mono, c in formal.terms.items():
            expanded = expanded + expand_formal(gens, mono.exps).scale(c)
        assert expanded == lie_poisson_bracket(polys[e.left], polys[e.right], alg)
        expressed += 1
    assert expressed


def test_bracket_closure_casimirs_all_zero(sl3, sl3_casimirs):
    report = bracket_closure_check(sl3_casimirs)
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


def test_poisson_center_over_one_denominator(sl2):
    """The field of 1/2*e12 has denominator 2, and its images of the torus
    invariants h1^2 and e12*e21, -2*h1*e12 and 1/2*h1*e12, reduce to
    different ones: only over one denominator is the kernel the Casimir
    h1^2 + 4*e12*e21 (unscaled numerators give h1^2 + 2*e12*e21)."""
    cart = cartan_subalgebra(sl2)
    for text in ("e12", "1/2*e12"):
        gens = GeneratorSet(sl2, [Generator(parse_polynomial(text, 3, sl2.labels), 1, "g")])
        got = poisson_center_basis(sl2, cart, gens, 2)
        assert [p.render(sl2.labels) for p in got] == ["h1^2 + 4*e12*e21"], text
        assert got == reference_poisson_center_basis(sl2, cart, gens, 2), text


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


def test_generator_degree_must_match_its_poly(sl2):
    """A declared degree weights the relation search, so one that is not the
    degree of the generator's poly is refused rather than missing
    relations."""
    data = {"generators": [{"poly": "h1^2", "degree": 1}, {"poly": "h1"}]}
    with pytest.raises(ValueError, match="degree 1 is not the degree 2"):
        GeneratorSet.from_json(data, sl2)
    data["generators"][0]["degree"] = 2
    gens = GeneratorSet.from_json(data, sl2)
    assert [r.render(gens) for r in relation_basis(gens, 4).relations] == ["g2^2 - g1"]


def test_relations_of_products_over_one_denominator(sl2):
    """The products g1^2 = h1^2/4, g2 and g3 have denominators 4, 3 and 5:
    only over one denominator is their dependency 4*g1^2 - 3*g2 + 5*g3
    (unscaled numerators give g1^2 - g2 + g3)."""
    gens = GeneratorSet(sl2, [
        Generator(parse_polynomial(text, 3, sl2.labels), degree, f"g{i}")
        for i, (text, degree) in enumerate(
            [("1/2*h1", 1), ("1/3*h1^2 + 1/3*e12*e21", 2), ("1/5*e12*e21", 2)], start=1)
    ])
    got = relation_basis(gens, 2).relations
    assert [r.render(gens) for r in got] == ["g1^2 - 3/4*g2 + 5/4*g3"]
    want = reference_relation_basis(gens, 2).relations
    assert [r.formal for r in got] == [r.formal for r in want]


@pytest.mark.parametrize("first, second, message", [
    ({"label": "H"}, {"label": "H"}, "label 'H' is used twice"),
    # the second generator's default label is g2
    ({"label": "g2"}, {}, "label 'g2' is used twice"),
    ({}, {"label": None}, "label must be a string, got None"),
    ({}, {"label": 3}, "label must be a string, got 3"),
])
def test_generator_labels_are_distinct_strings(sl2, first, second, message):
    """Labels name formal variables, report entries and flow drifts, so a
    repeated one or one that is not a string (str() made JSON null "None")
    is refused."""
    entries = [{"poly": "e12", **first}, {"poly": "h1^2 + 4*e12*e21", **second}]
    with pytest.raises(ValueError, match=message):
        GeneratorSet.from_json({"generators": entries}, sl2)


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


# ---------------------------------------------------------------------------
# weight-space start against the full monomial basis


def _unit(dim: int, i: int) -> list[Fraction]:
    return [Fraction(int(j == i)) for j in range(dim)]


def _torus_line(alg):
    # rational weights, so the integer scaling of the weights is exercised
    direction = [Fraction(1, 2), Fraction(-1, 3), Fraction(2)][: alg.rank()]
    return span_subalgebra(
        [direction + [Fraction(0)] * (alg.dim - len(direction))], abelian=True
    )


SUBALGEBRA_KINDS = {
    "cartan": cartan_subalgebra,
    "full": full_subalgebra,
    "torus-line": _torus_line,
    # the first off-diagonal coordinate is e12: one root vector
    "root-vector": lambda alg: span_subalgebra([_unit(alg.dim, alg.rank())]),
}


@pytest.mark.parametrize("kind", sorted(SUBALGEBRA_KINDS))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_weight_space_route_matches_full_basis_route(request, n, kind):
    alg = request.getfixturevalue(f"sl{n}")
    sub = SUBALGEBRA_KINDS[kind](alg)
    for k in range(5):
        assert invariant_basis(alg, sub, k) == full_basis_invariants(alg, sub, k), k


def _sl2_rotated() -> LieAlgebra:
    """sl(2) in the basis (h, u, w) = (h, e + f, e - f), read from JSON."""
    text = json.dumps(
        {
            "name": "sl2-rotated",
            "dim": 3,
            "labels": ["h", "u", "w"],
            "structure": [
                {"i": 0, "j": 1, "k": 2, "c": "2"},
                {"i": 0, "j": 2, "k": 1, "c": "2"},
                {"i": 1, "j": 2, "k": 0, "c": "-2"},
            ],
            "cartan_indices": [0],
        }
    )
    return LieAlgebra.from_json(json.loads(text))


@pytest.mark.parametrize("kind", ["cartan", "full"])
def test_non_diagonal_cartan_matches_full_basis_route(kind):
    alg = _sl2_rotated()
    assert validate_algebra(alg).passed
    h_vec = cartan_subalgebra(alg).vectors[0]
    u, w = Polynomial.variable(1, 3), Polynomial.variable(2, 3)
    # {x_h, x_u} = 2 x_w: the Cartan element does not scale the coordinates
    assert _invariance_operator(alg, h_vec, u) == w.scale(2)
    sub = SUBALGEBRA_KINDS[kind](alg)
    for k in range(5):
        assert invariant_basis(alg, sub, k) == full_basis_invariants(alg, sub, k), k
    if kind == "cartan":
        assert [p.render(alg.labels) for p in invariant_basis(alg, sub, 2)] == [
            "h^2",
            "u^2 - w^2",
        ]


# ---------------------------------------------------------------------------
# the checked reduction to raising operators


def _span_of(alg, labels):
    return span_subalgebra([_unit(alg.dim, alg.labels.index(label)) for label in labels])


def _applied_labels(alg, sub):
    """The spanning vector of each non-diagonal field invariant_basis
    applies, written as a signed sum of basis labels (the vectors here have
    coefficients +-1)."""
    return [
        "".join(
            ("+" if v > 0 else "-") + alg.labels[i] for i, v in enumerate(vec) if v
        ).lstrip("+")
        for vec, _ in _invariance_operators(alg, sub).others
    ]


_LEVI = ["h1", "h2", "h3", "e12", "e21", "e34", "e43"]

# (algebra size, spanning labels, fields the checked reduction applies)
REDUCED_CASES = {
    "levi-s(gl2+gl2)": (4, _LEVI, ["e12", "e34"]),
    "parabolic": (4, _LEVI + ["e13", "e14", "e23", "e24"], ["e12", "e34", "e23"]),
    "borel": (4, ["h1", "h2", "h3", "e12", "e13", "e14", "e23", "e24", "e34"],
              ["e12", "e23", "e34"]),
    "partial-torus": (3, ["h1", "e12", "e21"], ["e12"]),
}


@pytest.mark.parametrize("case", sorted(REDUCED_CASES))
def test_reduced_route_matches_full_basis_route(request, case):
    n, labels, applied = REDUCED_CASES[case]
    alg = request.getfixturevalue(f"sl{n}")
    sub = _span_of(alg, labels)
    assert validate_subalgebra(alg, sub).passed
    assert _applied_labels(alg, sub) == applied
    for k in range(1, 5):
        assert invariant_basis(alg, sub, k) == full_basis_invariants(alg, sub, k), k


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_full_sl_applies_only_the_simple_raising_fields(n):
    alg = builtin_sl(n)
    assert _applied_labels(alg, full_subalgebra(alg)) == [
        f"e{i}{i + 1}" for i in range(1, n)
    ]


def _rotated_corner(alg):
    """{h1, e12 + e21, e12 - e21}: a subalgebra whose non-diagonal vectors
    are not root vectors."""
    e12, e21 = (_unit(alg.dim, alg.labels.index(label)) for label in ("e12", "e21"))
    return span_subalgebra([
        _unit(alg.dim, 0),
        [a + b for a, b in zip(e12, e21)],
        [a - b for a, b in zip(e12, e21)],
    ])


# spanning sets of sl(4) on which a check fails: (construction, applied
# fields, whether the set spans a subalgebra)
FALLBACK_CASES = {
    "rotated-corner": (_rotated_corner, ["e12+e21", "e12-e21"], True),
    # e13 and e14 both have weight 1 under h1
    "shared-weight": (lambda alg: _span_of(alg, ["h1", "e13", "e14"]),
                      ["e13", "e14"], True),
    # opposite weights under h1, but [e13, e24] = 0: no sl(2)
    "commuting-opposites": (lambda alg: _span_of(alg, ["h1", "e13", "e24"]),
                            ["e13", "e24"], True),
    # [e12, e21] = h1 is not in the span of h2: dropping e21 would be wrong
    "bracket-off-the-torus": (lambda alg: _span_of(alg, ["h2", "e12", "e21"]),
                              ["e12", "e21"], False),
}


def test_flip_route_refuses_a_raising_vector_with_no_flip_partner(sl4):
    """The full sl(4) spanned with e12 scaled by 2: the flip sends 2*e12 to
    +-2*e34, no kept raising vector, so the flip route is refused and the
    three simple raising fields are applied to every zero-weight key, with
    the full route's invariants."""
    vectors = [_unit(sl4.dim, i) for i in range(sl4.dim)]
    vectors[sl4.labels.index("e12")] = [2 * c for c in vectors[sl4.labels.index("e12")]]
    sub = span_subalgebra(vectors)
    ops = _invariance_operators(sl4, sub)
    assert ops.flip is None and len(ops.others) == 3
    assert _invariance_operators(sl4, full_subalgebra(sl4)).flip is not None
    for k in range(1, 5):
        assert invariant_basis(sl4, sub, k) == full_basis_invariants(sl4, sub, k), k


@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_unchecked_reduction_keeps_every_field(sl4, case):
    make, applied, closed = FALLBACK_CASES[case]
    sub = make(sl4)
    assert validate_subalgebra(sl4, sub).passed == closed
    assert sorted(_applied_labels(sl4, sub)) == applied
    for k in range(1, 4):
        assert invariant_basis(sl4, sub, k) == full_basis_invariants(sl4, sub, k), k


@pytest.mark.parametrize("case", sorted(REDUCED_CASES) + sorted(FALLBACK_CASES))
def test_is_invariant_matches_every_spanning_operator(request, case):
    if case in REDUCED_CASES:
        n, labels, _ = REDUCED_CASES[case]
        alg = request.getfixturevalue(f"sl{n}")
        sub = _span_of(alg, labels)
    else:
        alg = request.getfixturevalue("sl4")
        sub = FALLBACK_CASES[case][0](alg)
    rng = random.Random(8)
    invariants = [p for k in range(1, 4) for p in invariant_basis(alg, sub, k)]
    candidates = invariants + [
        p + random_polynomial(rng, alg.dim, 2, 1) for p in invariants
    ] + [random_polynomial(rng, alg.dim, 3) for _ in range(10)]
    for p in candidates:
        expected = all(
            _invariance_operator(alg, vec, p).is_zero() for vec in sub.vectors
        )
        assert is_invariant(alg, sub, p) == expected


def _random_weight_systems(seed, count):
    """(weights, degree) pairs: up to six coordinates with up to three
    weights each, drawn from {0, 1, -1, 2, -3} with 0 twice as likely."""
    rng = random.Random(seed)
    for _ in range(count):
        dim, rank, k = rng.randint(1, 6), rng.randint(0, 3), rng.randint(1, 4)
        yield [
            tuple(rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(rank))
            for _ in range(dim)
        ], k


def _filtered_monomial_basis(weights, k):
    dim, rank = len(weights), len(weights[0])
    return [
        pack(m.exps, dim)
        for m in monomial_basis(dim, k)
        if not any(sum(e * weights[v][a] for v, e in m.exps) for a in range(rank))
    ]


def test_zero_weight_monomials_match_filtered_monomial_basis():
    for weights, k in _random_weight_systems(3, 60):
        assert _zero_weight_levels(weights, k)[k] == _filtered_monomial_basis(weights, k), (
            weights, k)


# (algebra, subalgebra, top degree) whose zero-weight keys are counted
ZERO_WEIGHT_CASES = {
    **{f"sl{n}": (partial(builtin_sl, n), cartan_subalgebra, n) for n in range(2, 7)},
    "sl2+sl3": (lambda: direct_sum(builtin_sl(2), builtin_sl(3)), cartan_subalgebra, 4),
    "sl3-torus-line": (partial(builtin_sl, 3), _torus_line, 5),
}


@pytest.mark.parametrize("case", sorted(ZERO_WEIGHT_CASES))
def test_zero_weight_monomials_match_an_independent_count(case):
    """Through degree n at sl(n), where sl(6) at degree 6 has 12,300 keys:
    as many keys as the (degree, weight) count gives, distinct, in
    descending order, each of that degree and of weight zero."""
    make_alg, make_sub, kmax = ZERO_WEIGHT_CASES[case]
    alg = make_alg()
    weights = _invariance_operators(alg, make_sub(alg)).weights
    counts = zero_weight_counts(weights, kmax)
    for k in range(1, kmax + 1):
        keys = _zero_weight_levels(weights, k)[k]
        assert len(keys) == counts[k], k
        assert keys == sorted(set(keys), reverse=True), k
        for key in keys:
            exps = unpack(key, alg.dim)
            assert sum(e for _, e in exps) == k
            assert not any(sum(e * weights[v][a] for v, e in exps)
                           for a in range(len(weights[0])))
    if case == "sl6":
        assert counts[6] == 12_300


def test_zero_weight_levels_match_filtered_monomial_basis():
    """One walk through top lists every lower degree as the per-degree
    filter of the whole monomial basis does, on the random weight systems
    of the one-degree test, walked one degree higher."""
    for weights, k in _random_weight_systems(3, 60):
        top = k + 1
        levels = _zero_weight_levels(weights, top)
        assert len(levels) == top + 1
        assert levels[0] == [0]
        for d in range(1, top + 1):
            assert levels[d] == _filtered_monomial_basis(weights, d), (weights, d)


@pytest.mark.parametrize("case", sorted(ZERO_WEIGHT_CASES))
def test_zero_weight_levels_match_an_independent_count(case):
    """The walk through the top degree lists every level as a walk that
    stops at that degree does, the level the count test above checks
    against the (degree, weight) count."""
    make_alg, make_sub, kmax = ZERO_WEIGHT_CASES[case]
    alg = make_alg()
    weights = _invariance_operators(alg, make_sub(alg)).weights
    levels = _zero_weight_levels(weights, kmax)
    assert levels[0] == [0] and len(levels) == kmax + 1
    for k in range(1, kmax + 1):
        assert levels[k] == _zero_weight_levels(weights, k)[k], k


def test_zero_weight_keys_agree_in_either_order(monkeypatch):
    """Asked degree by degree upwards, the algebra's keys are walked again
    at each new degree; asked at the top first, they are walked once, and
    the lower degrees are read off that walk.  Both give the same lists."""
    walks = []
    original = commutant._zero_weight_levels

    def counted(weights, top):
        walks.append(top)
        return original(weights, top)

    monkeypatch.setattr(commutant, "_zero_weight_levels", counted)
    lists = {}
    for order in ([1, 2, 3, 4, 5], [5, 3, 1, 4, 2]):
        alg = builtin_sl(4)
        weights = _invariance_operators(alg, cartan_subalgebra(alg)).weights
        walks.clear()
        lists[tuple(order)] = {k: _zero_weight_keys(alg, weights, k) for k in order}
        assert walks == (order if order[0] == 1 else [5])
        assert lists[tuple(order)] == {k: original(weights, k)[k] for k in order}
    assert lists[(1, 2, 3, 4, 5)] == lists[(5, 3, 1, 4, 2)]


def _dumped_sl3_with_underscore_labels():
    data = builtin_sl(3).to_json()
    data["labels"] = [lab if lab[0] == "h" else f"{lab[:2]}_{lab[2:]}"
                      for lab in data["labels"]]
    return LieAlgebra.from_json(json.loads(dump_json(data)))


# (algebra, subalgebra, degrees) on which the integer-vector chain of
# invariant_basis is compared with the per-polynomial one, which applies
# every field of _invariance_operators to every zero-weight monomial
CHAIN_CASES = {
    **{f"sl{n}-full": (partial(builtin_sl, n), full_subalgebra, n) for n in range(2, 7)},
    "sl3-e1_2-file-full": (_dumped_sl3_with_underscore_labels, full_subalgebra, 3),
    "sl2+sl3-full": (lambda: direct_sum(builtin_sl(2), builtin_sl(3)), full_subalgebra, 4),
    **{case: (partial(builtin_sl, 4), partial(_span_of, labels=REDUCED_CASES[case][1]), 4)
       for case in ("levi-s(gl2+gl2)", "parabolic", "borel")},
    # no field is diagonal, so _raising_fields keeps every field
    "sl2-rotated-full": (_sl2_rotated, full_subalgebra, 4),
    # the sl(3) labels, but not its structure constants (sl_size is None)
    "sl3-rescaled-full": (lambda: LieAlgebra.from_json(rescaled_sl_json(3)),
                          full_subalgebra, 3),
}

# the cases that take the diagram-flip route: the full built-in sl(n)
FLIP_CASES = {f"sl{n}-full" for n in range(2, 7)} | {"sl3-e1_2-file-full"}


@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_integer_vector_chain_matches_the_per_polynomial_chain(case, monkeypatch):
    """Odd degrees included.  The full built-in sl(n) applies floor(n/2)
    raising fields, one per flip orbit, to the flip eigenvectors; every
    other case applies all of its fields to the zero-weight monomials."""
    make_alg, make_sub, kmax = CHAIN_CASES[case]
    alg = make_alg()
    sub = make_sub(alg)
    ops = _invariance_operators(alg, sub)
    assert ops.others
    if case == "sl2-rotated-full":
        assert not any(ops.weights) and len(ops.others) == 3
    if case in FLIP_CASES:
        n = sl_size(alg)
        assert ops.flip is not None and len(ops.flip[2]) == n // 2
        assert len(ops.others) == n - 1
    else:
        assert ops.flip is None
    calls = []
    kernel = commutant._kernel

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(commutant, "_kernel", counted)
    applied = len(ops.flip[2]) if ops.flip else len(ops.others)
    for k in range(kmax + 1):
        calls.clear()
        got = invariant_basis(alg, sub, k)
        assert len(calls) <= applied, k
        assert got == reference_invariant_basis(alg, sub, k), k


def _restricted_partitions(k, parts):
    """The number of partitions of k into the given parts (coin change)."""
    ways = [1] + [0] * k
    for part in parts:
        for t in range(part, k + 1):
            ways[t] += ways[t - part]
    return ways[k]


@pytest.mark.parametrize("n", range(2, 7))
def test_casimir_kernel_dims_follow_the_chevalley_series(n):
    """dim S^k(sl_n)^G is the coefficient of t^k in prod 1/(1 - t^d),
    d = 2..n (Chevalley): a dropped flip eigenspace would undercount it."""
    dims = casimirs_by_kernel(builtin_sl(n), n).kernel_dims
    assert dims == {k: _restricted_partitions(k, range(2, n + 1)) for k in range(1, n + 1)}


def test_flip_route_rejects_a_flip_that_is_no_automorphism(sl4, monkeypatch):
    perm, sign = sl_flip(sl4)
    broken = list(sign)
    broken[sl4.labels.index("e12")] *= -1
    monkeypatch.setattr(commutant, "sl_flip", lambda alg: (perm, tuple(broken)))
    ops = commutant._build_operators(sl4, full_subalgebra(sl4).vectors)
    assert ops.flip is None and len(ops.others) == 3


def test_kernel_pipeline_builds_no_fraction(sl4, fraction_count):
    """Kernels, new generators and relations stay in integer rows from the
    operators to the canonical basis."""
    full, cartan = full_subalgebra(sl4), cartan_subalgebra(sl4)
    for sub in (full, cartan):
        _invariance_operators(sl4, sub)
    summed = summed_torus_set(4)
    assert commutant._single_terms(summed.generators) is None
    runs = {
        "invariants": lambda: [invariant_basis(sl4, full, k) for k in range(1, 5)],
        "torus generators": lambda: generate(sl4, cartan, 4),
        "multi-term relations": lambda: relation_basis(summed, 6).relations,
    }
    for name, run in runs.items():
        before = fraction_count()
        assert run(), name
        assert fraction_count() == before, name
