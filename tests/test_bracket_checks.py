"""The four pairwise bracket checks (centrality, J-map, shift-family
commutativity, closure) against their references in tests/helpers, which
call lie_poisson_bracket once per pair: identical reports, pairs in the same
order, on sl(3) and sl(4), with inputs whose brackets do not all vanish.
Shift families of central Casimirs are certified without brackets, on
sl(2)-sl(5) and a direct sum."""

from fractions import Fraction
from math import comb

import pytest

from poischain import (
    ChainSpec,
    Polynomial,
    base_center_check,
    bracket_closure_check,
    builtin_sl,
    cartan_subalgebra,
    casimir_mf,
    casimirs_by_kernel,
    chains,
    direct_sum,
    generate,
    is_regular,
    j_map_casimir_check,
    mf_commutativity_check,
    mf_generators,
    parse_polynomial,
    trace_casimirs_sln,
)
from poischain.commutant import Generator, GeneratorSet

from helpers import (
    levi_subalgebra,
    reference_base_center_check,
    reference_bracket_closure_check,
    reference_j_map_casimir_check,
    reference_mf_commutativity_check,
)


def _with_generators(gens, generators):
    """gens with its generator list replaced, its other attributes kept."""
    return GeneratorSet(gens.algebra, generators, gens.subalgebra, gens.max_degree,
                        gens.kernel_dims, gens.method, gens.shift, gens.base)


def _plus(g, poly):
    """g with poly added to its polynomial, its degree and label kept."""
    return Generator(g.poly + poly, g.degree, g.label, g.indecomposable)


@pytest.fixture(scope="module", params=[3, 4], ids=["sl3", "sl4"])
def case(request):
    n = request.param
    alg = builtin_sl(n)
    torus = generate(alg, cartan_subalgebra(alg), n)
    e12 = Generator(
        poly=Polynomial.variable(alg.labels.index("e12"), alg.dim), degree=1, label="e12"
    )
    return alg, torus, casimirs_by_kernel(alg, n), e12


@pytest.mark.parametrize("broken", [False, True], ids=["casimirs", "plus-e12"])
def test_base_center_check_matches_reference(case, broken):
    alg, torus, cas, e12 = case
    base = _with_generators(cas, cas.generators + ([e12] if broken else []))
    spec = ChainSpec(torus.subalgebra, torus, base)
    report = base_center_check(spec)
    assert report.to_json() == reference_base_center_check(spec).to_json()
    assert report.pair_count == len(base) * len(torus)
    assert report.passed != broken


def test_j_map_casimir_check_matches_reference(case):
    alg = case[0]
    report = j_map_casimir_check(alg)
    assert report.to_json() == reference_j_map_casimir_check(alg).to_json()
    assert report.all_central


def test_j_map_casimir_check_failures_match_reference(case, monkeypatch):
    # C2 + e12 is not central: its brackets with the torus generators of
    # nonzero e12 weight are the failures, for both routes
    alg, _, cas, e12 = case
    c2, *rest = cas.generators
    broken = _with_generators(cas, [_plus(c2, e12.poly), *rest])
    monkeypatch.setattr(chains, "casimirs_by_kernel", lambda alg, max_degree=None: broken)
    report = j_map_casimir_check(alg)
    assert report.to_json() == reference_j_map_casimir_check(alg).to_json()
    assert report.failures and not report.all_central


@pytest.mark.parametrize("broken", [False, True], ids=["casimirs", "C2-plus-e12*e13"])
def test_mf_commutativity_check_matches_reference(case, broken):
    alg, _, cas, _ = case
    if broken:
        c2, *rest = cas.generators
        extra = parse_polynomial("e12*e13", alg.dim, alg.labels)
        cas = _with_generators(cas, [_plus(c2, extra), *rest])
    n = alg.rank() + 1
    mu = [Fraction(k) for k in range(1, n)] + [Fraction(0)] * (alg.dim - n + 1)
    mf = mf_generators(cas, mu)
    report = mf_commutativity_check(mf)
    assert report.to_json() == reference_mf_commutativity_check(mf).to_json()
    assert report.commutative != broken


@pytest.mark.parametrize("broken", [False, True], ids=["torus", "quadrics-plus-e12"])
def test_bracket_closure_check_matches_reference(case, broken):
    alg, torus, _, e12 = case
    gens = torus
    if broken:
        # the torus generators up to degree 2 keep the membership searches small
        low = [g for g in torus.generators if g.degree <= 2]
        gens = _with_generators(torus, low + [e12])
    report = bracket_closure_check(gens)
    assert report.to_json() == reference_bracket_closure_check(gens).to_json()
    assert len(report.entries) == len(gens) * (len(gens) + 1) // 2
    assert report.all_closed != broken


@pytest.mark.parametrize("blocks, nonzero, missed, degrees", [
    ((2, 1, 1), 42, 14, {5, 6}),
    ((2, 2), 4, 4, {6}),
])
def test_closure_of_a_capped_set_keeps_membership_status(blocks, nonzero, missed, degrees):
    """On sl(4) Levi generator sets at their cap 4, some brackets are not
    found up to their weighted degree, all above the cap.  Each entry keeps
    membership's status, so such a miss reads not_found_up_to_budget and no
    bracket reads not_invariant; all_closed stays false."""
    alg = builtin_sl(4)
    gens = generate(alg, levi_subalgebra(alg, blocks))
    report = bracket_closure_check(gens)
    assert report.to_json() == reference_bracket_closure_check(gens).to_json()
    weight = {g.label: g.degree for g in gens.generators}
    statuses = {}
    for e in report.entries:
        statuses.setdefault(e.status, []).append(weight[e.left] + weight[e.right] - 1)
        assert e.closed == (e.status in (None, "found"))
        assert e.bracket_is_zero == (e.status is None)
    assert "not_invariant" not in statuses
    assert len(report.entries) - len(statuses[None]) == nonzero
    assert len(statuses["not_found_up_to_budget"]) == missed
    assert set(statuses["not_found_up_to_budget"]) == degrees
    assert gens.max_degree == 4 and not report.all_closed


def _shift(alg, kind):
    """A regular Cartan shift (distinct eigenvalues), zero, or the e12
    coordinate vector, a nilpotent shift."""
    mu = [Fraction(0)] * alg.dim
    if kind == "regular":
        for v, idx in enumerate(alg.cartan_indices, start=1):
            mu[idx] = Fraction(v)
    elif kind == "nilpotent":
        mu[next(i for i, lab in enumerate(alg.labels) if lab.startswith("e12"))] = Fraction(1)
    return mu


def _no_brackets(*args, **kwargs):
    raise AssertionError("the certificate should need no bracket")


@pytest.mark.parametrize("kind", ["regular", "zero", "nilpotent"])
@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "sl5", "sl2+sl3"])
def test_mf_certificate_matches_reference(name, kind):
    if name == "sl2+sl3":
        alg = direct_sum(builtin_sl(2), builtin_sl(3))
    else:
        alg = builtin_sl(int(name[2:]))
    mf = mf_generators(casimirs_by_kernel(alg), _shift(alg, kind))
    assert is_regular(alg, mf.shift) or kind != "regular"
    report = mf_commutativity_check(mf)
    assert report.to_json() == reference_mf_commutativity_check(mf).to_json()
    assert report.commutative


def test_mf_certificate_brackets_nothing(monkeypatch):
    # the trace-route sl(4) Casimirs and their 9 shift coefficients
    mf = mf_generators(trace_casimirs_sln(4), _shift(builtin_sl(4), "regular"))
    monkeypatch.setattr(casimir_mf, "brackets", _no_brackets)
    report = mf_commutativity_check(mf)
    assert (report.pair_count, report.commutative) == (comb(9, 2), True)


def test_mf_member_outside_the_shift_chains_is_bracketed(case):
    # C2.d1 + e12 is no shift coefficient of a Casimir, so the certificate
    # fails and the pairwise route finds its nonzero brackets
    alg, _, cas, e12 = case
    mf = mf_generators(cas, _shift(alg, "regular"))
    gens = [
        _plus(g, e12.poly) if g.label == "C2.d1" else g
        for g in mf.generators
    ]
    hand_built = _with_generators(mf, gens)
    report = mf_commutativity_check(hand_built)
    assert report.to_json() == reference_mf_commutativity_check(hand_built).to_json()
    assert not report.commutative
