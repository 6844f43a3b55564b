"""Single-term generator sets: relations, membership and new generators read
off packed keys, against the general route of products and elimination."""

import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

from poischain import (
    Generator,
    Monomial,
    Polynomial,
    builtin_sl,
    cartan_subalgebra,
    casimirs_by_kernel,
    generate,
    indecomposables,
    invariant_basis,
    lie_poisson_bracket,
    membership,
    parse_polynomial,
    relation_basis,
    span_subalgebra,
    torus_chain,
)
from poischain import commutant
from poischain.commutant import GeneratorSet

from helpers import (
    reference_generate,
    reference_indecomposables,
    reference_membership,
    reference_relation_basis,
    summed_torus_set,
)


def _torus(n, cap=None):
    alg = builtin_sl(n)
    return generate(alg, cartan_subalgebra(alg), cap or n)


def _seeded_single_terms(seed, count=6):
    """Single-term generators on sl(2)'s three coordinates with rational
    coefficients, most with denominators above 1; the last repeats an
    earlier monomial with another coefficient, so a block has two members
    already at degree one in the formal variables."""
    rng = random.Random(seed)
    alg = builtin_sl(2)
    polys = []
    for _ in range(count - 1):
        exps = [rng.randint(0, 2) for _ in range(alg.dim)]
        if not any(exps):
            exps[rng.randrange(alg.dim)] = 1
        coeff = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
        polys.append(Polynomial(alg.dim, {Monomial(enumerate(exps)): coeff}))
    polys.append(polys[rng.randrange(count - 1)].scale(F(-7, 3)))
    gens = [Generator(p, p.degree, f"g{i}") for i, p in enumerate(polys, start=1)]
    return GeneratorSet(algebra=alg, generators=gens)


def _same_membership(p, gens, budget):
    got = membership(p, gens, budget)
    want = reference_membership(p, gens, budget)
    assert (got.status, got.expression) == (want.status, want.expression)
    return got.status


@pytest.mark.parametrize("n", [3, 4])
def test_torus_relations_match_elimination(n):
    gens = _torus(n)
    got = relation_basis(gens, 10)
    want = reference_relation_basis(gens, 10)
    assert got.relations
    assert [(r.weighted_degree, r.formal) for r in got.relations] == [
        (r.weighted_degree, r.formal) for r in want.relations
    ]


@pytest.mark.parametrize("seed", range(6))
def test_seeded_single_term_relations_match_elimination(seed):
    gens = _seeded_single_terms(seed)
    top = max(8, *gens.degrees())
    got = relation_basis(gens, top)
    want = reference_relation_basis(gens, top)
    assert got.relations
    assert [(r.weighted_degree, r.formal) for r in got.relations] == [
        (r.weighted_degree, r.formal) for r in want.relations
    ]


@pytest.mark.parametrize("seed", range(6))
def test_seeded_single_term_membership_matches_elimination(seed):
    """Sums of rational multiples of generator products, sometimes with a
    stray monomial that no product makes, at budgets from below the degree
    to above it."""
    gens = _seeded_single_terms(seed)
    rng = random.Random(100 + seed)
    dim = gens.algebra.dim
    statuses = set()
    for _ in range(12):
        p = Polynomial.constant(F(rng.randint(-3, 3), 2), dim)
        for _ in range(rng.randint(1, 3)):
            factors = rng.choices(gens.polys(), k=rng.randint(1, 3))
            prod = Polynomial.constant(F(rng.randint(1, 5), rng.randint(1, 4)), dim)
            for f in factors:
                prod = prod * f
            p = p + prod
        if rng.random() < 0.3:
            exps = [(rng.randrange(dim), rng.randint(1, 5))]
            p = p + Polynomial(dim, {Monomial(exps): 1})
        for budget in (p.degree - 1, p.degree, p.degree + 2):
            statuses.add(_same_membership(p, gens, budget))
    assert statuses == {"found", "not_found_up_to_budget"}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_torus_membership_of_casimirs_and_brackets_matches_elimination(n):
    gens = _torus(n)
    for c in casimirs_by_kernel(gens.algebra, n).gens.generators:
        assert _same_membership(c.poly, gens, c.degree) == "found"
    for gi, gj in combinations_with_replacement(gens.generators, 2):
        br = lie_poisson_bracket(gi.poly, gj.poly, gens.algebra)
        if not br.is_zero():
            assert _same_membership(br, gens, gi.degree + gj.degree - 1) == "found"


def test_torus_membership_misses_match_elimination(sl3):
    gens = _torus(3, cap=2)
    cycle = parse_polynomial("e12*e23*e31 + 1/2*h1", sl3.dim, sl3.labels)
    assert _same_membership(cycle, gens, 3) == "not_found_up_to_budget"
    assert _same_membership(parse_polynomial("e12", sl3.dim, sl3.labels), gens, 2) == (
        "not_invariant"
    )
    c2 = casimirs_by_kernel(sl3, 2).gens.polys()[0]
    assert _same_membership(c2, gens, 1) == "not_found_up_to_budget"
    shifted = c2.scale(F(-5, 3)) + Polynomial.constant(F(2, 7), sl3.dim)
    assert _same_membership(shifted, gens, 2) == "found"


def _one_dimensional_torus(alg, seed):
    rng = random.Random(seed)
    rank = len(alg.cartan_indices)
    vec = [F(rng.choice([-1, 1]) * rng.randint(1, 5)) for _ in range(rank)]
    return span_subalgebra([vec + [F(0)] * (alg.dim - rank)], abelian=True, name="torus1")


@pytest.mark.parametrize("n, cap", [(2, 4), (3, 4), (4, 4), (5, 3)])
def test_new_generators_of_torus_sets_match_elimination(n, cap):
    alg = builtin_sl(n)
    for sub in (cartan_subalgebra(alg), _one_dimensional_torus(alg, n)):
        got = generate(alg, sub, cap)
        want = reference_generate(alg, sub, cap)
        assert [(g.label, g.poly) for g in got.generators] == [
            (g.label, g.poly) for g in want
        ]


def test_repeated_invariant_monomial_is_new_once(sl3):
    torus = _torus(3, cap=1)
    inv = invariant_basis(sl3, cartan_subalgebra(sl3), 2)
    twice = [*inv, inv[-1].scale(F(3, 2))]
    got = indecomposables(sl3, 2, torus.generators, twice)
    assert got == reference_indecomposables(sl3, 2, torus.generators, twice)
    assert len(got) == len(inv) - 3  # h1^2, h1*h2, h2^2 are products


def test_one_multi_term_generator_takes_the_general_route(sl3, monkeypatch):
    torus = _torus(3)
    c2 = casimirs_by_kernel(sl3, 2).gens.polys()[0]
    gens = GeneratorSet(
        algebra=sl3,
        generators=[*torus.generators, Generator(c2, 2, "C2")],
        subalgebra=torus.subalgebra,
    )
    cartan = cartan_subalgebra(sl3)
    product = c2 * torus.generators[-1].poly
    want_relations = reference_relation_basis(gens, 5).relations
    want_member = reference_membership(product, gens, 5)
    inv = invariant_basis(sl3, cartan, 4)
    want_new = reference_indecomposables(sl3, 4, gens.generators, inv)

    def single_terms_used(*args):
        raise AssertionError("the single-term route was taken")

    monkeypatch.setattr(commutant, "_term_products", single_terms_used)
    got_relations = relation_basis(gens, 5).relations
    # C2 is a combination of the quadratic torus generators
    assert [r.weighted_degree for r in got_relations][:1] == [2]
    assert [(r.weighted_degree, r.formal) for r in got_relations] == [
        (r.weighted_degree, r.formal) for r in want_relations
    ]
    got_member = membership(product, gens, 5)
    assert got_member.found
    assert got_member.expression == want_member.expression
    assert indecomposables(sl3, 4, gens.generators, inv) == want_new


def test_general_relation_route_is_independent_of_the_generator_basis():
    """A graded change of generators keeps the relation count of every
    weighted degree; the summed set is multi-term, so its relations come by
    products and elimination, the monomial set's by equal product keys."""
    torus, summed = _torus(3), summed_torus_set(3)
    assert commutant._single_terms(summed.generators) is None
    counts = [
        Counter(r.weighted_degree for r in relation_basis(gens, 6).relations)
        for gens in (torus, summed)
    ]
    assert counts[0] == counts[1] == {6: 1}


def test_torus_chain_enumerates_zero_weight_monomials_once_per_degree(monkeypatch):
    """The Cartan generators and the Casimir kernel share the zero-weight
    monomials of each degree through the algebra's memo."""
    calls = Counter()
    original = commutant._zero_weight_monomials

    def counted(weights, k):
        calls[k] += 1
        return original(weights, k)

    monkeypatch.setattr(commutant, "_zero_weight_monomials", counted)
    report = torus_chain(builtin_sl(4))
    assert report.verdict == "superintegrable"
    assert calls == {k: 1 for k in range(1, report.max_degree + 1)}
