"""Chain verification: trdeg bookkeeping, verdicts, bases, J-maps, leaves."""

import random
from fractions import Fraction

import pytest

from poischain import (
    ChainFormationError,
    ChainSpec,
    base_center_check,
    base_existence_verdict,
    builtin_sl,
    cartan_subalgebra,
    casimirs_by_kernel,
    fiber_ideal_generators,
    full_subalgebra,
    generate,
    j_map_casimir_check,
    leaf_dimension,
    lie_poisson_bracket,
    mf_chain,
    moment_map_base,
    parse_polynomial,
    poisson_center_basis,
    span_subalgebra,
    torus_chain,
    trdeg,
    verify_chain,
)
from poischain import chains, poly
from poischain.algebra import ConfigurationError
from poischain.chains import j_map_components
from poischain.commutant import Generator, GeneratorSet, _single_terms, default_degree_cap
from poischain.sampling import generic_jacobian_rank

from helpers import levi_subalgebra, reference_poisson_center_basis

F = Fraction


def make_gens(alg, rendered, degrees=None):
    gens = []
    for i, text in enumerate(rendered):
        p = parse_polynomial(text, alg.dim, alg.labels)
        gens.append(Generator(poly=p, degree=p.degree, label=f"b{i + 1}"))
    return GeneratorSet(algebra=alg, generators=gens)


def test_trdeg_counts_independent_generators(sl2):
    gs = make_gens(sl2, ["h1", "h1^2"])
    assert trdeg(gs) == 1
    gs2 = make_gens(sl2, ["h1", "e12*e21"])
    assert trdeg(gs2) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_trdeg_of_a_single_term_set_is_the_exponent_rank(n, monkeypatch):
    alg = builtin_sl(n)
    torus = generate(alg, cartan_subalgebra(alg))
    assert _single_terms(torus.generators) is not None
    sampled = generic_jacobian_rank(torus.polys(), alg.dim)

    def refuse(*args, **kwargs):
        raise AssertionError("a single-term set was sampled")

    monkeypatch.setattr(chains, "generic_jacobian_rank", refuse)
    assert trdeg(torus) == sampled == alg.dim - (n - 1)


def test_torus_chain_builds_no_hamiltonian_field_of_a_base_element(monkeypatch):
    """Every Casimir is certified central by is_invariant on the full
    algebra, so base_center_check brackets none of them."""
    alg = builtin_sl(4)
    casimirs = {g.poly for g in casimirs_by_kernel(alg).generators}
    fields = []
    original = poly.hamiltonian_field

    def recording(p, alg):
        fields.append(p)
        return original(p, alg)

    monkeypatch.setattr(poly, "hamiltonian_field", recording)
    report = torus_chain(alg)
    assert report.verdict == "superintegrable" and report.centrality.passed
    assert report.centrality.pair_count == len(casimirs) * 23
    assert not casimirs.intersection(fields)


def test_default_degree_cap(sl2, sl3, sl4):
    assert default_degree_cap(sl2) == 2
    assert default_degree_cap(sl3) == 3
    assert default_degree_cap(sl4) == 4


def test_torus_chain_sl2(sl2):
    rep = torus_chain(sl2)
    assert rep.verdict == "superintegrable"
    assert (rep.trdeg_intermediate, rep.trdeg_base) == (2, 1)
    assert rep.dim_identity and rep.cross_check_consistent
    assert rep.kernel_dims == {1: 1, 2: 2}
    assert rep.expected == {"trdeg_intermediate": 2, "trdeg_base": 1}


def test_torus_chain_sl3(sl3):
    rep = torus_chain(sl3)
    assert rep.verdict == "superintegrable"
    assert (rep.trdeg_intermediate, rep.trdeg_base) == (6, 2)
    assert rep.d_a == 2 and rep.dim == 8
    assert rep.kernel_dims == {1: 2, 2: 6, 3: 12}
    assert rep.centrality.failures == []
    assert rep.notes == []


@pytest.mark.parametrize("n", [3, 4, 5])
def test_torus_chain_builds_and_hashes_no_fraction(n, fraction_count, monkeypatch):
    """Integer spanning vectors and integer membership: the torus chain, on
    a new algebra with empty caches, builds no Fraction, and no lookup in
    the operator cache (keyed by the spanning vectors) hashes one."""
    hashed = []
    fraction_hash = Fraction.__hash__

    def counted_hash(self):
        hashed.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    alg = builtin_sl(n)
    before = fraction_count()
    assert torus_chain(alg).verdict == "superintegrable"
    assert fraction_count() == before
    assert hashed == []
    assert any(isinstance(key, tuple) and key[0] == "invariance operators"
               for key in alg._derived)


def test_torus_chain_degree_cap_is_inconclusive(sl3):
    rep = torus_chain(sl3, max_degree=2)
    assert rep.verdict == "inconclusive"
    assert rep.trdeg_intermediate == 5  # three-cycles are missing below degree 3
    assert any("degree cap" in n for n in rep.notes)


def test_chain_report_json_keys(sl2):
    data = torus_chain(sl2).to_json()
    assert data["verdict"] == "superintegrable"
    assert data["d_A"] == 1
    assert data["dim_identity"] is True
    assert set(data) >= {
        "algebra",
        "trdeg_intermediate",
        "trdeg_base",
        "kernel_dims",
        "cross_check_consistent",
    }


def test_ill_formed_chain_raises_with_witness(sl3, sl3_torus):
    base = make_gens(sl3, ["e12"])
    spec = ChainSpec(
        subalgebra=cartan_subalgebra(sl3),
        intermediate=sl3_torus,
        base=base,
    )
    with pytest.raises(ChainFormationError) as exc:
        verify_chain(spec)
    assert exc.value.witness == "b1"


def test_noncentral_base_rejected_with_witness(sl3, sl3_torus):
    base = make_gens(sl3, ["e12*e21"])
    spec = ChainSpec(
        subalgebra=cartan_subalgebra(sl3),
        intermediate=sl3_torus,
        base=base,
    )
    rep = verify_chain(spec)
    assert rep.verdict == "not_superintegrable"
    fail = rep.centrality.failures[0]
    assert fail["bracket"] == "e12*e23*e31 - e13*e21*e32"


def test_verdict_invariant_under_generator_presentation(sl3, sl3_torus):
    """Scaling and permuting generator lists must not change the verdict."""
    rng = random.Random(5)
    base = casimirs_by_kernel(sl3, 3)
    shuffled = list(sl3_torus.generators)
    rng.shuffle(shuffled)
    scaled = [
        Generator(
            poly=g.poly.scale(F(rng.randint(1, 9))),
            degree=g.degree,
            label=g.label,
        )
        for g in shuffled
    ]
    inter = GeneratorSet(
        algebra=sl3,
        generators=scaled,
        subalgebra=sl3_torus.subalgebra,
        max_degree=sl3_torus.max_degree,
        kernel_dims=sl3_torus.kernel_dims,
    )
    spec = ChainSpec(
        subalgebra=cartan_subalgebra(sl3),
        intermediate=inter,
        base=base,
    )
    rep = verify_chain(spec)
    assert rep.verdict == "superintegrable"
    assert (rep.trdeg_intermediate, rep.trdeg_base) == (6, 2)


def test_mf_chain_rejection(sl3):
    rep = mf_chain(sl3, cartan_subalgebra(sl3), [F(1), F(2)] + [F(0)] * 6)
    assert rep.verdict == "not_superintegrable"
    assert rep.trdeg_base == 5 and rep.d_a == 2
    assert not rep.dim_identity
    assert rep.centrality.failures  # C3.d1 does not commute with the two-cycles
    assert rep.cross_check_consistent


def test_moment_map_chain_one_dim_torus(sl3):
    # span{diag(1,1,-2)} = span{h1 + 2*h2}
    sub = span_subalgebra([[F(1), F(2)] + [F(0)] * 6], abelian=True)
    rep = moment_map_base(sl3, sub)
    assert rep.verdict == "superintegrable"
    assert (rep.trdeg_intermediate, rep.trdeg_base) == (7, 1)
    assert rep.centrality.pair_count == 8
    assert rep.centrality.failures == []


def test_moment_map_base_polynomials(sl3):
    sub = span_subalgebra([[F(1), F(2)] + [F(0)] * 6], abelian=True)
    gens = generate(sl3, sub, max_degree=2)
    polys = {g.poly.render(sl3.labels) for g in gens.generators}
    assert polys == {
        "h1",
        "h2",
        "e12",
        "e21",
        "e13*e31",
        "e13*e32",
        "e23*e31",
        "e23*e32",
    }


def test_moment_map_requires_abelian(sl3):
    with pytest.raises(ConfigurationError):
        moment_map_base(sl3, full_subalgebra(sl3))


def test_moment_map_cartan_reproduces_torus_dims(sl3):
    rep = moment_map_base(sl3, cartan_subalgebra(sl3))
    assert rep.verdict == "superintegrable"
    assert (rep.trdeg_intermediate, rep.trdeg_base) == (6, 2)


def test_base_existence(sl2, sl3):
    rep = base_existence_verdict(sl3, cartan_subalgebra(sl3))
    assert rep.verdict == "exists"
    assert rep.center_trdeg == 4 and rep.d_a == 2
    assert rep.center_dims == {1: 2, 2: 4, 3: 7}
    neg = base_existence_verdict(sl2, full_subalgebra(sl2))
    assert neg.verdict == "does_not_exist_up_to_cap"
    assert neg.center_trdeg == 1 and neg.d_a == 2
    assert "cap" in neg.note


def test_base_existence_report_json(sl3):
    data = base_existence_verdict(sl3, cartan_subalgebra(sl3)).to_json()
    assert data == {
        "verdict": "exists",
        "center_trdeg": 4,
        "d_A": 2,
        "max_degree": 3,
        "center_dims": {"1": 2, "2": 4, "3": 7},
        "note": "center rank is a lower bound from degreewise computation up to "
                "the cap 3; a negative verdict is relative to that cap",
    }


# Levi blocks of the built-in sl(n): (verdict, center_trdeg, d_A, center_dims)
# at the default cap n
LEVI_VERDICTS = {
    (2, 1): ("exists", 4, 4, {1: 1, 2: 3, 3: 4}),
    (2, 2): ("does_not_exist_up_to_cap", 6, 7, {1: 1, 2: 4, 3: 5, 4: 12}),
    (3, 1): ("does_not_exist_up_to_cap", 6, 9, {1: 1, 2: 3, 3: 5, 4: 9}),
    (2, 1, 1): ("exists", 6, 5, {1: 2, 2: 5, 3: 9, 4: 17}),
}


@pytest.mark.parametrize("blocks", LEVI_VERDICTS, ids=str)
def test_levi_base_existence(request, blocks):
    alg = request.getfixturevalue(f"sl{sum(blocks)}")
    rep = base_existence_verdict(alg, levi_subalgebra(alg, blocks))
    assert (rep.verdict, rep.center_trdeg, rep.d_a, rep.center_dims) == LEVI_VERDICTS[blocks]


@pytest.mark.parametrize("blocks, commutative", [
    ((2, 1), True), ((1, 2), True), ((3, 1), True), ((1, 3), True),
    ((2, 2), False), ((2, 1, 1), False),
], ids=str)
def test_levi_center_against_kramer_and_the_polynomial_route(request, blocks, commutative):
    """S(g)^L is Poisson-commutative exactly when L = GL(n-1) x GL(1)
    (Kramer, Arch. Math. 27, 1976), so the center has the invariants'
    dimensions exactly there; and through degree 4 the center is the one the
    polynomial-image route gives."""
    alg = request.getfixturevalue(f"sl{sum(blocks)}")
    sub = levi_subalgebra(alg, blocks)
    intermediate = generate(alg, sub)
    center = base_existence_verdict(alg, sub).center_dims
    assert (center == intermediate.kernel_dims) == commutative
    for k in range(1, 5):
        got = poisson_center_basis(alg, sub, intermediate, k)
        assert got == reference_poisson_center_basis(alg, sub, intermediate, k), k


def test_leaf_dimension(sl2, sl3, sl4):
    assert leaf_dimension(sl2) == 0
    assert leaf_dimension(sl3) == 2
    assert leaf_dimension(sl4) == 6


def test_leaf_dimension_consistency_with_chain(sl3):
    rep = torus_chain(sl3)
    r = sl3.rank()
    assert rep.trdeg_intermediate - 2 * r == sl3.dim - 3 * r == leaf_dimension(sl3)


def test_j_map_sl3(sl3):
    rep = j_map_casimir_check(sl3)
    assert rep.components == ["mu1", "mu2", "C2", "C3"]
    assert rep.zero_bracket_count == 28
    assert rep.failures == []
    assert rep.leaf_dim == 2


def test_j_map_components_bracket_to_zero(sl3, sl3_torus):
    comps = j_map_components(sl3)
    for _, comp in comps:
        for g in sl3_torus.generators:
            assert lie_poisson_bracket(comp, g.poly, sl3).is_zero()


def test_fiber_ideal_sl2(sl2):
    fib = fiber_ideal_generators(sl2, [F(1)], [F(0)])
    assert [p.render(sl2.labels) for p in fib] == ["h1^2 + 4*e12*e21 - 1", "h1"]


def test_fiber_ideal_sl3_counts(sl3):
    fib = fiber_ideal_generators(sl3, [F(1), F(2)], [F(3), F(4)])
    assert len(fib) == 4
    rendered = [p.render(sl3.labels) for p in fib]
    assert rendered[2] == "h1 - 3"
    assert rendered[3] == "h2 - 4"


def test_base_center_check_direct(sl3, sl3_torus, sl3_casimirs):
    spec = ChainSpec(
        subalgebra=cartan_subalgebra(sl3),
        intermediate=sl3_torus,
        base=sl3_casimirs,
    )
    rep = base_center_check(spec)
    assert rep.pair_count == 2 * 7
    assert rep.failures == []
