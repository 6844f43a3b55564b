"""Single-term generator sets: relations, membership and new generators read
off packed keys, against the general route of products and elimination."""

import json
import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import prod

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
    render_polynomial,
    span_subalgebra,
    torus_chain,
    trace_casimirs_sln,
)
from poischain import commutant, linalg
from poischain.cli import main
from poischain.commutant import GeneratorSet
from poischain.poly import unpack, variable_keys

from helpers import (
    reference_generate,
    reference_indecomposables,
    reference_membership,
    reference_relation_basis,
    summed_torus_set,
    term_level_indecomposables,
    term_level_solve_by_factors,
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


@pytest.mark.parametrize("n, top, per_degree", [(5, 7, {6: 70, 7: 300}), (3, 16, {6: 1})])
def test_torus_relations_at_larger_budgets_match_elimination(n, top, per_degree):
    gens = _torus(n)
    got = relation_basis(gens, top)
    want = reference_relation_basis(gens, top)
    assert Counter(r.weighted_degree for r in got.relations) == per_degree
    assert [(r.weighted_degree, r.formal) for r in got.relations] == [
        (r.weighted_degree, r.formal) for r in want.relations
    ]


def _seeded_graded_terms(seed, count=6):
    """Single-term generators of degrees 1 to 4 (one of degree 4, so four
    levels are kept) on sl(2)'s three coordinates with rational
    coefficients; the last repeats an earlier monomial with another
    coefficient."""
    rng = random.Random(seed)
    alg = builtin_sl(2)
    polys = []
    for degree in [4] + [rng.randint(1, 4) for _ in range(count - 2)]:
        exps = Counter(rng.randrange(alg.dim) for _ in range(degree))
        coeff = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
        polys.append(Polynomial(alg.dim, {Monomial(exps.items()): coeff}))
    polys.append(polys[rng.randrange(count - 1)].scale(F(-5, 2)))
    gens = [Generator(p, p.degree, f"g{i}") for i, p in enumerate(polys, start=1)]
    return GeneratorSet(algebra=alg, generators=gens)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_graded_single_term_relations_match_elimination(seed):
    gens = _seeded_graded_terms(seed)
    assert max(gens.degrees()) == 4
    got = relation_basis(gens, 9)
    want = reference_relation_basis(gens, 9)
    assert got.relations
    assert [(r.weighted_degree, r.formal) for r in got.relations] == [
        (r.weighted_degree, r.formal) for r in want.relations
    ]


@pytest.mark.parametrize("weights", [[1, 3, 3, 4], [2, 2, 5], [1], []])
def test_term_levels_list_the_formal_monomials(weights):
    """Each level holds the formal monomials of the walk, as many as the
    count table says, each with its product's key and coefficient and the
    mask of its generators."""
    rng = random.Random(len(weights))
    keys = variable_keys(3)
    terms = [(keys[i % 3] + keys[0], rng.randint(-5, 5) or 1, rng.randint(1, 4))
             for i in range(len(weights))]
    top = 13
    counts = commutant._formal_counts(weights, top)[0]
    levels = list(commutant._term_levels(weights, terms, top))
    assert [t for t, _ in levels] == list(range(1, top + 1))
    for t, level in levels:
        walk = sorted(key for key, _ in commutant._formal_monomials(weights, t))
        assert sorted(entry[0] for entry in level) == walk
        assert len(level) == counts[t]
        for formal, product, num, den, mask in level:
            exps = dict(unpack(formal, len(weights)))
            assert product == sum(e * terms[i][0] for i, e in exps.items())
            assert (num, den) == (
                prod(terms[i][1] ** e for i, e in exps.items()),
                prod(terms[i][2] ** e for i, e in exps.items()),
            )
            assert mask == sum(1 << i for i in exps)


def test_toric_relations_build_no_echelon(monkeypatch):
    """The sl(4) torus relations through weighted degree 10 come with no
    Echelon and no canonical basis, while a set with one two-term member
    still takes elimination.  Both sets have more generators than
    coordinates, so the Jacobian rank, which eliminates too, cannot certify
    them free; a stand-in returns its upper bound, the dimension."""
    torus, summed = _torus(4), summed_torus_set(4)
    want = relation_basis(torus, 10).relations
    assert len(want) == 55 and len(torus) > torus.algebra.dim

    def refused(*args):
        raise AssertionError("elimination was used")

    monkeypatch.setattr(commutant, "generic_jacobian_rank", lambda polys, dim: dim)
    monkeypatch.setattr(linalg, "Echelon", refused)
    monkeypatch.setattr(commutant, "_canonical", refused)
    assert relation_basis(torus, 10).relations == want
    with pytest.raises(AssertionError, match="elimination was used"):
        relation_basis(summed, 10)


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

    for reader in ("_term_levels", "_product_codes"):
        monkeypatch.setattr(commutant, reader, single_terms_used)
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
    """The Cartan generators and the Casimir kernel read the zero-weight
    monomials of every degree off one walk at the cap, kept with the
    algebra."""
    walks = []
    original = commutant._zero_weight_levels

    def counted(weights, top):
        walks.append(top)
        return original(weights, top)

    monkeypatch.setattr(commutant, "_zero_weight_levels", counted)
    report = torus_chain(builtin_sl(4))
    assert report.verdict == "superintegrable"
    assert walks == [report.max_degree]


@pytest.mark.parametrize("n", range(2, 7))
def test_product_key_generators_match_the_term_levels_reader(n):
    """Degree by degree, the new generators read off the product keys equal
    those of the reader that listed every formal monomial."""
    alg = builtin_sl(n)
    sub = cartan_subalgebra(alg)
    gens = generate(alg, sub, n)
    for k in range(1, n + 1):
        inv = invariant_basis(alg, sub, k)
        got = indecomposables(alg, k, gens.generators, inv)
        assert got == term_level_indecomposables(alg, k, gens.generators, inv), k
        assert got == [g.poly for g in gens.generators if g.degree == k], k


def _rendered_membership(polys, gens, budget):
    out = []
    for p in polys:
        result = membership(p, gens, budget)
        text = result.found and render_polynomial(result.expression, gens.labels())
        out.append((result.status, text))
    return out


@pytest.mark.parametrize("n", range(2, 7))
def test_product_key_membership_matches_the_term_levels_reader(n, monkeypatch):
    """The same rendered expressions as the reader that listed every formal
    monomial, which pivots on the greatest formal key of each product key:
    the trace Casimirs and seeded sums of generator products of degree at
    most n in the torus generators through degree n, and, in those through
    degree n - 1, a sum whose top component is the n-cycle, which no
    product reaches."""
    alg = builtin_sl(n)
    gens = _torus(n)
    rng = random.Random(n)
    polys = trace_casimirs_sln(n).gens.polys()
    for _ in range(4):
        p = Polynomial.constant(F(rng.randint(-3, 3), 2), alg.dim)
        for _ in range(3):
            term = Polynomial.constant(F(rng.randint(1, 5), rng.randint(1, 4)), alg.dim)
            for _ in range(3):
                factor = rng.choice(gens.polys())
                if term.degree + factor.degree <= n:
                    term = term * factor
            p = p + term
        polys.append(p)
    truncated = _torus(n, cap=n - 1)
    cycle = "*".join(f"e{i}{i % n + 1}" for i in range(1, n + 1))
    missed = parse_polynomial(f"{cycle} + 1/3*h1^2", alg.dim, alg.labels)
    got = [_rendered_membership(polys, gens, n), _rendered_membership([missed], truncated, n)]
    monkeypatch.setattr(commutant, "_solve_by_factors", term_level_solve_by_factors)
    want = [_rendered_membership(polys, gens, n), _rendered_membership([missed], truncated, n)]
    assert got == want
    assert all(status == "found" for status, _ in got[0])
    assert got[1] == [("not_found_up_to_budget", False)]


def test_sl4_closure_report_matches_the_term_levels_reader(tmp_path, monkeypatch):
    """The sl(4) commutant --closure report, byte for byte."""
    argv = ["commutant", "--algebra", "sl4", "--subalgebra", "cartan", "--closure", "--out"]
    assert main(argv + [str(tmp_path / "got.json")]) == 0
    monkeypatch.setattr(commutant, "_solve_by_factors", term_level_solve_by_factors)
    assert main(argv + [str(tmp_path / "want.json")]) == 0
    got = (tmp_path / "got.json").read_bytes()
    assert got == (tmp_path / "want.json").read_bytes()
    assert json.loads(got)["closure"]["all_closed"] is True
