"""The four pairwise bracket checks (centrality, J-map, shift-family
commutativity, closure) against their references in tests/helpers, which
call lie_poisson_bracket once per pair: identical reports, pairs in the same
order, on sl(3) and sl(4), with inputs whose brackets do not all vanish."""

from dataclasses import replace
from fractions import Fraction

import pytest

from poischain import (
    ChainSpec,
    Polynomial,
    base_center_check,
    bracket_closure_check,
    builtin_sl,
    cartan_subalgebra,
    casimirs_by_kernel,
    chains,
    generate,
    j_map_casimir_check,
    mf_commutativity_check,
    mf_generators,
    parse_polynomial,
)
from poischain.casimir_mf import CasimirSet
from poischain.commutant import Generator

from helpers import (
    reference_base_center_check,
    reference_bracket_closure_check,
    reference_j_map_casimir_check,
    reference_mf_commutativity_check,
)


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
    base = replace(cas.gens, generators=cas.gens.generators + ([e12] if broken else []))
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
    gens = replace(cas.gens, generators=[replace(c2, poly=c2.poly + e12.poly), *rest])
    broken = CasimirSet(gens=gens, method=cas.method)
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
        gens = replace(cas.gens, generators=[replace(c2, poly=c2.poly + extra), *rest])
        cas = CasimirSet(gens=gens, method=cas.method)
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
        gens = replace(torus, generators=low + [e12])
    report = bracket_closure_check(gens)
    assert report.to_json() == reference_bracket_closure_check(gens).to_json()
    assert len(report.entries) == len(gens) * (len(gens) + 1) // 2
    assert report.all_closed != broken
