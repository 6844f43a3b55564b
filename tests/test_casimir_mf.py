"""Casimirs by two routes and argument-shift (Mishchenko-Fomenko) families."""

from fractions import Fraction

import pytest

from poischain import (
    ConfigurationError,
    LieAlgebra,
    cartan_subalgebra,
    casimir_count_check,
    casimirs_by_kernel,
    direct_sum,
    lie_poisson_bracket,
    membership,
    mf_commutativity_check,
    mf_generators,
    mf_inclusion_check,
    mf_rank_check,
    sandwich_check,
    span_subalgebra,
    trace_casimirs_sln,
)
from poischain.casimir_mf import REGULARITY_NOTE

from helpers import reference_trace_casimirs, same_span

F = Fraction


def sl3_mu_regular():
    return [F(1), F(2)] + [F(0)] * 6


def test_kernel_casimir_sl2(sl2, sl2_casimirs):
    assert sl2_casimirs.method == "kernel"
    assert sl2_casimirs.gens.labels() == ["C2"]
    c2 = sl2_casimirs.gens.polys()[0]
    assert c2.render(sl2.labels) == "h1^2 + 4*e12*e21"
    assert sl2_casimirs.gens.kernel_dims == {1: 0, 2: 1}


def test_kernel_casimirs_sl3(sl3, sl3_casimirs):
    assert sl3_casimirs.gens.labels() == ["C2", "C3"]
    assert sl3_casimirs.gens.degrees() == [2, 3]
    assert sl3_casimirs.gens.kernel_dims == {1: 0, 2: 1, 3: 1}


def test_trace_casimir_sl2(sl2):
    cas = trace_casimirs_sln(2)
    assert cas.method == "trace-transport"
    assert cas.gens.labels() == ["c2"]
    assert cas.gens.polys()[0].render(sl2.labels) == "h1^2 + 4*e12*e21"


@pytest.mark.parametrize("n", range(2, 7))
def test_trace_casimirs_equal_trace_then_transport(n):
    """Transporting the coordinates before multiplying, and taking each
    trace from half powers, gives the very polynomials that transporting
    each finished trace gives, for every exponent cap."""
    reference = reference_trace_casimirs(n, n)
    for max_k in range(2, n + 1):
        cas = trace_casimirs_sln(n, max_k)
        assert cas.gens.labels() == [f"c{k}" for k in range(2, max_k + 1)]
        assert cas.gens.degrees() == list(range(2, max_k + 1))
        assert cas.gens.max_degree == max_k
        assert cas.polys() == reference[: max_k - 1]


def test_trace_casimirs_substitute_only_linear_forms(monkeypatch):
    """No finished trace is substituted: the route never calls
    substitute_linear, which would expand every product of images again."""
    from poischain import Polynomial

    reference = reference_trace_casimirs(4, 4)

    def refuse(self, images):
        raise AssertionError("substitute_linear called")

    monkeypatch.setattr(Polynomial, "substitute_linear", refuse)
    assert trace_casimirs_sln(4).polys() == reference


def test_trace_casimirs_build_few_fractions(fraction_count):
    """The Killing inverse comes back as integer rows over their pivots and
    each image is made from one of them, so the sl(5) route builds at most
    a handful of Fractions (the shared unit entries of full_subalgebra)."""
    before = fraction_count()
    cas = trace_casimirs_sln(5)
    assert fraction_count() - before <= 5
    assert cas.polys() == reference_trace_casimirs(5, 5)


@pytest.mark.parametrize(
    "n, max_k, message",
    [
        (1, None, "need n >= 2"),
        (0, None, "need n >= 2"),
        (3, 1, "trace exponent cap"),
        (3, 4, "trace exponent cap"),
    ],
)
def test_trace_casimirs_reject_bad_sizes(n, max_k, message):
    with pytest.raises(ConfigurationError, match=message):
        trace_casimirs_sln(n, max_k)


def test_casimirs_central(sl2, sl3, sl2_casimirs, sl3_casimirs):
    """Every Casimir from either route brackets to zero with every coordinate."""
    from poischain import Polynomial

    for alg, sets in (
        (sl2, [sl2_casimirs, trace_casimirs_sln(2)]),
        (sl3, [sl3_casimirs, trace_casimirs_sln(3)]),
    ):
        coords = [Polynomial.variable(i, alg.dim) for i in range(alg.dim)]
        for cas in sets:
            for c in cas.gens.polys():
                for x in coords:
                    assert lie_poisson_bracket(c, x, alg).is_zero()


def test_routes_agree_degreewise(sl3, sl3_casimirs):
    trace = trace_casimirs_sln(3)
    for d in (2, 3):
        kern_d = [g.poly for g in sl3_casimirs.gens.generators if g.degree == d]
        trac_d = [g.poly for g in trace.gens.generators if g.degree == d]
        assert same_span(kern_d, trac_d)


def test_routes_mutually_expressible(sl3, sl3_casimirs):
    trace = trace_casimirs_sln(3)
    for i, lbl in enumerate(["C2", "C3"]):
        fwd = membership(trace.gens.polys()[i], sl3_casimirs.gens, 3)
        assert fwd.status == "found"
        assert fwd.expression.render(sl3_casimirs.gens.labels()) == lbl
        back = membership(sl3_casimirs.gens.polys()[i], trace.gens, 3)
        assert back.status == "found"
        assert back.expression.render(trace.gens.labels()) == lbl.lower()


def test_casimir_count_checks(sl2_casimirs, sl3_casimirs):
    rep2 = casimir_count_check(sl2_casimirs)
    assert (rep2.independent_count, rep2.expected, rep2.dim) == (1, 1, 3)
    assert rep2.generic_commutator_rank == 2
    assert rep2.matches
    rep3 = casimir_count_check(sl3_casimirs)
    assert (rep3.independent_count, rep3.expected) == (2, 2)
    assert rep3.generic_commutator_rank == 6
    assert rep3.matches


def test_casimir_count_direct_sum(sl2):
    ds = direct_sum(sl2, sl2)
    rep = casimir_count_check(casimirs_by_kernel(ds, 2))
    assert (rep.independent_count, rep.expected) == (2, 2)
    assert rep.matches


def test_abelian_algebra_everything_is_casimir():
    ab = LieAlgebra(name="ab2", dim=2, labels=("a", "b"), structure={})
    cas = casimirs_by_kernel(ab, 1)
    assert cas.gens.labels() == ["C1_1", "C1_2"]
    rep = casimir_count_check(cas)
    assert (rep.independent_count, rep.expected, rep.generic_commutator_rank) == (2, 2, 0)


def test_mf_sl2_regular_cartan_shift(sl2, sl2_casimirs):
    mf = mf_generators(sl2_casimirs, [F(1), F(0), F(0)])
    assert [g.label for g in mf.generators] == ["C2", "C2.d1"]
    d1 = [g.poly for g in mf.generators if g.label == "C2.d1"][0]
    assert d1.render(sl2.labels) == "2*h1"
    assert mf.shift_regular
    assert mf.note == REGULARITY_NOTE
    comm = mf_commutativity_check(mf)
    assert comm.pair_count == 1 and comm.nonzero_pairs == []
    rank = mf_rank_check(mf)
    assert rank.jacobian_rank == rank.expected == 2  # (3 + 1) / 2
    assert rank.matches and rank.hypothesis_met
    assert rank.relations.relations == []


def test_mf_zero_shift_recovers_casimirs(sl3, sl3_casimirs):
    mf = mf_generators(sl3_casimirs, [F(0)] * 8)
    assert [g.label for g in mf.generators] == ["C2", "C3"]
    assert not mf.shift_regular
    rank = mf_rank_check(mf)
    assert rank.jacobian_rank == 2
    assert not rank.matches and not rank.hypothesis_met
    assert rank.relations.relations == []


def test_mf_sl3_regular_shift(sl3, sl3_casimirs):
    mf = mf_generators(sl3_casimirs, sl3_mu_regular())
    assert [g.label for g in mf.generators] == ["C2", "C2.d1", "C3", "C3.d1", "C3.d2"]
    assert mf.shift_regular
    comm = mf_commutativity_check(mf)
    assert comm.pair_count == 10 and comm.nonzero_pairs == []
    rank = mf_rank_check(mf)
    assert rank.jacobian_rank == rank.expected == 5  # (8 + 2) / 2
    assert rank.matches and rank.relations.relations == []


def test_mf_nonregular_nilpotent_shift(sl3, sl3_casimirs):
    mf = mf_generators(sl3_casimirs, [F(0), F(0), F(1)] + [F(0)] * 5)
    assert not mf.shift_regular
    rank = mf_rank_check(mf)
    assert rank.jacobian_rank == 4 and rank.expected == 5
    assert not rank.matches and not rank.hypothesis_met
    assert rank.relations.relations == []
    assert rank.note == REGULARITY_NOTE


def test_mf_generators_shift_degrees(sl3, sl3_casimirs):
    """The t-coefficients drop in degree by one per derivative order."""
    mf = mf_generators(sl3_casimirs, sl3_mu_regular())
    degs = {g.label: g.poly.degree for g in mf.generators}
    assert degs == {"C2": 2, "C2.d1": 1, "C3": 3, "C3.d1": 2, "C3.d2": 1}


def test_mf_inclusion_both_directions(sl3, sl3_casimirs):
    cart = cartan_subalgebra(sl3)
    inside = mf_inclusion_check(mf_generators(sl3_casimirs, sl3_mu_regular()), cart)
    assert inside.centralizer_route and inside.operator_route
    assert inside.agree and inside.included
    assert inside.witness is None
    # a shift with a root-vector component leaves the Cartan centralizer
    outside = mf_inclusion_check(
        mf_generators(sl3_casimirs, [F(1), F(2), F(1)] + [F(0)] * 5), cart
    )
    assert not outside.centralizer_route and not outside.operator_route
    assert outside.agree and not outside.included
    assert outside.witness == "C2.d1"


def test_sandwich_cartan(sl3, sl3_casimirs):
    cart = cartan_subalgebra(sl3)
    mf = mf_generators(sl3_casimirs, sl3_mu_regular())
    rep = sandwich_check(mf, cart)
    assert rep.d_a == 2 and rep.rank == 2
    assert rep.hypothesis_met and rep.casimirs_in_family
    assert rep.inclusion.included
    assert rep.notes == []


def test_sandwich_hypothesis_failure(sl3, sl3_casimirs):
    one_dim = span_subalgebra([[F(1), F(2)] + [F(0)] * 6], abelian=True)
    mf = mf_generators(sl3_casimirs, sl3_mu_regular())
    rep = sandwich_check(mf, one_dim)
    assert not rep.hypothesis_met
    assert rep.d_a == 1 and rep.rank == 2
    assert any("hypothesis fails" in n for n in rep.notes)


def test_mf_brackets_zero_for_sl2_trace_route(sl2):
    mf = mf_generators(trace_casimirs_sln(2), [F(1), F(0), F(0)])
    for i, g in enumerate(mf.generators):
        for h in mf.generators[i + 1 :]:
            assert lie_poisson_bracket(g.poly, h.poly, sl2).is_zero()
