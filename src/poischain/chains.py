"""Verification of Poisson inclusion chains base < intermediate < full.

A chain is superintegrable when the base sits in the Poisson center of the
intermediate algebra and the two transcendence degrees add up to the
dimension of the Lie algebra.  Centrality is decided exactly (base_center_check),
transcendence degrees exactly or as generic Jacobian ranks (trdeg).  Because
generator sets are computed up to a degree cap, a failed dimension identity
with an intermediate rank below the orbit-complement prediction is reported
as inconclusive rather than negative, and so is a central Casimir base whose
rank falls short of the algebra's.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

from .algebra import (
    ConfigurationError,
    LieAlgebra,
    Record,
    SubalgebraSpec,
    cartan_subalgebra,
    full_subalgebra,
    orbit_dimension,
)
from .casimir_mf import casimirs_by_kernel, mf_generators
from .commutant import (
    Generator,
    GeneratorSet,
    _single_terms,
    generate,
    is_invariant,
    membership,
    poisson_center_basis,
)
from .linalg import rank_of_rows
from .poly import Polynomial, brackets, render_polynomial, unpack
from .sampling import DEFAULT_SEED, generic_jacobian_rank


class ChainFormationError(ConfigurationError):
    """The candidate base is not contained in the intermediate algebra."""

    def __init__(self, message: str, witness: str | None = None) -> None:
        super().__init__(message)
        self.witness = witness


def trdeg(gens: GeneratorSet, seed: int = DEFAULT_SEED) -> int:
    """Transcendence degree of the generated algebra.  For single-term
    generators c*x^a it is exact, the rank of the exponent matrix: monomials
    are algebraically independent exactly when their exponent vectors are
    linearly independent.  Other sets get the generic Jacobian rank, the
    maximum over the seeded sample points: a certified lower bound that is
    generically exact.
    """
    terms = _single_terms(gens.generators)
    if terms is not None:
        return rank_of_rows(dict(unpack(k, gens.algebra.dim)) for k, _, _ in terms)
    return generic_jacobian_rank(gens.polys(), gens.algebra.dim, seed=seed)


class ChainSpec(Record):
    """base_kind is casimirs | moment-map | mf | explicit."""

    _fields = ("subalgebra", "intermediate", "base", "base_kind")
    _defaults = {"base_kind": "explicit"}

    @property
    def algebra(self) -> LieAlgebra:
        return self.intermediate.algebra


class CentralityReport(Record):
    """Each failure is a dict {base, intermediate, bracket}."""

    _fields = ("pair_count", "failures")

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "pair_count": self.pair_count,
            "passed": self.passed,
            "failures": self.failures,
        }


def base_center_check(spec: ChainSpec) -> CentralityReport:
    """Exact brackets of every base generator against every intermediate one,
    except that a base generator the full algebra leaves invariant
    (is_invariant, which takes the Jacobi identity) is central in all of
    S(g), so a Casimir base builds no Hamiltonian field."""
    alg = spec.algebra
    full = full_subalgebra(alg)
    others = [b for b in spec.base.generators if not is_invariant(alg, full, b.poly)]
    pairs = list(product(others, spec.intermediate.generators))
    values = brackets(((b.poly, a.poly) for b, a in pairs), alg)
    failures = [
        {
            "base": b.label,
            "intermediate": a.label,
            "bracket": render_polynomial(br, alg.labels),
        }
        for (b, a), br in zip(pairs, values)
        if not br.is_zero()
    ]
    return CentralityReport(len(spec.base) * len(spec.intermediate), failures)


class ChainReport(Record):
    """verdict is superintegrable | not_superintegrable | inconclusive."""

    _fields = ("algebra", "subalgebra", "base_kind", "centrality", "trdeg_intermediate",
               "trdeg_base", "dim", "dim_identity", "d_a", "rank", "kernel_dims", "verdict",
               "cross_check_consistent", "max_degree", "expected", "notes")
    _defaults = {"expected": {}, "notes": []}

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "subalgebra": self.subalgebra,
            "base_kind": self.base_kind,
            "intermediate_kind": "commutant",
            "verdict": self.verdict,
            "centrality": self.centrality.to_json(),
            "trdeg_intermediate": self.trdeg_intermediate,
            "trdeg_base": self.trdeg_base,
            "dim": self.dim,
            "dim_identity": self.dim_identity,
            "d_A": self.d_a,
            "rank": self.rank,
            "kernel_dims": {str(k): v for k, v in sorted(self.kernel_dims.items())},
            "cross_check_consistent": self.cross_check_consistent,
            "max_degree": self.max_degree,
            "expected": self.expected,
            "notes": self.notes,
        }


def _check_base_containment(spec: ChainSpec) -> None:
    for b in spec.base.generators:
        budget = max(b.degree, b.poly.degree or 0, 1)
        # only the status is read, so a single-term intermediate decodes no
        # expression: at sl(7) the one of C7 has about 10^5 formal keys of 5 KB
        status = membership(b.poly, spec.intermediate, budget).status
        if status != "found":
            raise ChainFormationError(
                f"base generator {b.label!r} is not contained in the "
                f"intermediate algebra (membership status: {status}); "
                "the chain is ill-formed or the degree cap is too small",
                witness=b.label,
            )


def verify_chain(spec: ChainSpec, seed: int = DEFAULT_SEED) -> ChainReport:
    """Decide the superintegrability of the candidate chain.

    Besides the two defining conditions, the report carries an independent
    cross-check: the dimension identity should hold exactly when the base
    transcendence degree matches the generic orbit dimension of the
    subalgebra (both sides computed from scratch).
    """
    alg = spec.algebra
    _check_base_containment(spec)
    centrality = base_center_check(spec)
    trdeg_int = trdeg(spec.intermediate, seed=seed)
    trdeg_base = trdeg(spec.base, seed=seed)
    d_a = orbit_dimension(alg, spec.subalgebra, seed=seed)
    rank_g = alg.rank(seed=seed)
    identity = trdeg_int + trdeg_base == alg.dim
    notes: list[str] = []
    # a nonzero bracket is an exact witness at any cap
    if not centrality.passed:
        verdict = "not_superintegrable"
    elif identity:
        verdict = "superintegrable"
    elif trdeg_int != alg.dim - d_a:
        verdict = "inconclusive"
        notes.append(
            f"intermediate rank {trdeg_int} is below the orbit-complement "
            f"prediction {alg.dim - d_a}; the degree cap "
            f"{spec.intermediate.max_degree} may truncate the generators"
        )
    elif spec.base_kind == "casimirs" and trdeg_base < rank_g:
        verdict = "inconclusive"
        notes.append(
            f"base rank {trdeg_base} is below the rank {rank_g} of the algebra; "
            f"the degree cap {spec.base.max_degree} may truncate the Casimirs"
        )
    else:
        verdict = "not_superintegrable"
    cross = identity == (trdeg_base == d_a)
    if not cross:
        notes.append(
            "dimension identity and base-rank-vs-orbit-dimension tests "
            "disagree; generic sampling may be degenerate for this seed"
        )
    return ChainReport(
        algebra=alg.name,
        subalgebra=spec.subalgebra.name,
        base_kind=spec.base_kind,
        centrality=centrality,
        trdeg_intermediate=trdeg_int,
        trdeg_base=trdeg_base,
        dim=alg.dim,
        dim_identity=identity,
        d_a=d_a,
        rank=rank_g,
        kernel_dims=dict(spec.intermediate.kernel_dims),
        verdict=verdict,
        cross_check_consistent=cross,
        max_degree=spec.intermediate.max_degree,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# chain builders


def chain_over(
    sub: SubalgebraSpec,
    base: GeneratorSet,
    base_kind: str,
    max_degree: int | None,
    seed: int,
) -> ChainReport:
    """Verify the chain of the base under the invariants of the subalgebra,
    generated up to max_degree (generate's default when None)."""
    alg = base.algebra
    intermediate = generate(alg, sub, max_degree)
    return verify_chain(ChainSpec(sub, intermediate, base, base_kind), seed=seed)


def torus_chain(
    alg: LieAlgebra,
    max_degree: int | None = None,
    seed: int = DEFAULT_SEED,
) -> ChainReport:
    """Casimirs under the Cartan commutant: the canonical chain.

    The expected ranks (dim - rank for the intermediate, rank for the base)
    are recorded in the report for comparison.
    """
    base = casimirs_by_kernel(alg, max_degree)
    report = chain_over(cartan_subalgebra(alg), base, "casimirs", base.max_degree, seed)
    rank_g = alg.rank(seed=seed)
    report.expected = {
        "trdeg_intermediate": alg.dim - rank_g,
        "trdeg_base": rank_g,
    }
    return report


def moment_map_generators(alg: LieAlgebra, sub: SubalgebraSpec) -> list[Generator]:
    """The moment-map components mu_j: the linear polynomial sum_i h_i x_i
    of each spanning vector H of the subalgebra."""
    return [
        Generator(poly=alg.linear_form(vec), degree=1, label=f"mu{j + 1}")
        for j, vec in enumerate(sub.vectors)
    ]


def moment_map_base(
    alg: LieAlgebra,
    sub: SubalgebraSpec,
    max_degree: int | None = None,
    seed: int = DEFAULT_SEED,
) -> ChainReport:
    """Chain with the linear pairing polynomials of an abelian subalgebra as base.

    Each spanning vector H contributes the linear polynomial sum_i h_i x_i;
    the base they generate is expected to reach transcendence degree equal to
    the subalgebra size.
    """
    if not sub.abelian:
        raise ConfigurationError(
            "moment-map base requires a subalgebra flagged abelian"
        )
    base = GeneratorSet(alg, moment_map_generators(alg, sub), max_degree=1)
    report = chain_over(sub, base, "moment-map", max_degree, seed)
    report.expected = {
        "trdeg_intermediate": alg.dim - sub.size,
        "trdeg_base": sub.size,
    }
    return report


def mf_chain(
    alg: LieAlgebra,
    sub: SubalgebraSpec,
    mu: Sequence,
    max_degree: int | None = None,
    seed: int = DEFAULT_SEED,
) -> ChainReport:
    """Chain with the argument-shift family as candidate base (never valid
    for a regular shift: its rank exceeds any orbit dimension bound)."""
    cas = casimirs_by_kernel(alg, max_degree)
    return chain_over(sub, mf_generators(cas, mu), "mf", cas.max_degree, seed)


class BaseExistenceReport(Record):
    """verdict is exists | does_not_exist_up_to_cap."""

    _fields = ("verdict", "center_trdeg", "d_a", "max_degree", "center_dims", "note")

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "center_trdeg": self.center_trdeg,
            "d_A": self.d_a,
            "max_degree": self.max_degree,
            "center_dims": {str(k): v for k, v in sorted(self.center_dims.items())},
            "note": self.note,
        }


def base_existence_verdict(
    alg: LieAlgebra,
    sub: SubalgebraSpec,
    max_degree: int | None = None,
    seed: int = DEFAULT_SEED,
) -> BaseExistenceReport:
    """Whether a valid base can exist: compare the Poisson-center rank of the
    intermediate algebra with the generic orbit dimension.

    A base must consist of central elements and reach transcendence degree
    equal to the orbit dimension, so a center rank below that bound rules one
    out up to the cap.  The center is computed degreewise against the
    generated intermediate algebra and is itself a lower bound.
    """
    intermediate = generate(alg, sub, max_degree)
    cap = intermediate.max_degree
    center_polys: list[Polynomial] = []
    center_dims: dict[int, int] = {}
    for k in range(1, cap + 1):
        basis = poisson_center_basis(alg, sub, intermediate, k)
        center_dims[k] = len(basis)
        center_polys.extend(basis)
    center_rank = generic_jacobian_rank(center_polys, alg.dim, seed=seed)
    d_a = orbit_dimension(alg, sub, seed=seed)
    verdict = "exists" if center_rank >= d_a else "does_not_exist_up_to_cap"
    return BaseExistenceReport(
        verdict=verdict,
        center_trdeg=center_rank,
        d_a=d_a,
        max_degree=cap,
        center_dims=center_dims,
        note=(
            "center rank is a lower bound from degreewise computation up to "
            f"the cap {cap}; a negative verdict is relative to that cap"
        ),
    )


# ---------------------------------------------------------------------------
# symplectic-leaf bookkeeping


def leaf_dimension(alg: LieAlgebra, seed: int = DEFAULT_SEED) -> int:
    """Dimension of the joint level sets cut out by the Casimirs and the
    Cartan coordinates: dim - 3*rank (meaningful when nonnegative)."""
    return alg.dim - 3 * alg.rank(seed=seed)


class JMapReport(Record):
    _fields = ("components", "generator_labels", "zero_bracket_count", "failures", "leaf_dim")

    @property
    def all_central(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "components": self.components,
            "generators": self.generator_labels,
            "zero_bracket_count": self.zero_bracket_count,
            "all_central": self.all_central,
            "failures": self.failures,
            "leaf_dimension": self.leaf_dim,
        }


def j_map_components(
    alg: LieAlgebra, max_degree: int | None = None
) -> list[tuple[str, Polynomial]]:
    """The 2r polynomials (Cartan coordinates then Casimirs) defining the
    joint level map."""
    gens = moment_map_generators(alg, cartan_subalgebra(alg))
    gens += casimirs_by_kernel(alg, max_degree).generators
    return [(g.label, g.poly) for g in gens]


def j_map_casimir_check(
    alg: LieAlgebra,
    max_degree: int | None = None,
    seed: int = DEFAULT_SEED,
) -> JMapReport:
    """Centrality of every level-map component against every torus-commutant
    generator, by the exact brackets of base_center_check."""
    sub = cartan_subalgebra(alg)
    torus = generate(alg, sub, max_degree)
    components = [Generator(poly, poly.degree, label)
                  for label, poly in j_map_components(alg, torus.max_degree)]
    base = GeneratorSet(alg, components)
    centrality = base_center_check(ChainSpec(sub, torus, base))
    failures = [
        {"component": f["base"], "generator": f["intermediate"], "bracket": f["bracket"]}
        for f in centrality.failures
    ]
    return JMapReport(
        components=base.labels(),
        generator_labels=torus.labels(),
        zero_bracket_count=centrality.pair_count - len(failures),
        failures=failures,
        leaf_dim=leaf_dimension(alg, seed=seed),
    )


def fiber_ideal_generators(
    alg: LieAlgebra,
    c_values: Sequence,
    alpha_values: Sequence,
    max_degree: int | None = None,
) -> list[Polynomial]:
    """Generators of the level-set ideal: shifted Casimirs and shifted Cartan
    coordinates, one per rank."""
    casimirs = casimirs_by_kernel(alg, max_degree).generators
    mus = moment_map_generators(alg, cartan_subalgebra(alg))
    c_values = list(c_values)
    alpha_values = list(alpha_values)
    if len(c_values) != len(casimirs):
        raise ConfigurationError(f"expected {len(casimirs)} Casimir level values")
    if len(alpha_values) != len(mus):
        raise ConfigurationError(f"expected {len(mus)} Cartan level values")
    return [
        g.poly - Polynomial.constant(Fraction(v), alg.dim)
        for g, v in zip(casimirs + mus, c_values + alpha_values)
    ]
