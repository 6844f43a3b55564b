"""Casimir elements and argument-shift (Mishchenko-Fomenko) subalgebras.

Casimirs come from two independent constructions that are cross-checked in
the test suite: the kernel route (invariants of the full algebra, degree by
degree) and, for sl(n), power traces of a symbolic matrix transported to dual
coordinates through the Killing form (trace_casimirs).  Shifting a
Casimir's argument along a fixed direction and collecting coefficients of
the shift parameter produces a Poisson-commutative family whose independent
count reaches (dim + rank)/2 exactly when the direction is regular.  Its
commutativity is certified by the Mishchenko-Fomenko argument when the
Casimirs are central, and decided otherwise by exact pairwise brackets from
poly.brackets, one Hamiltonian field per left element.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import ClassVar, Sequence

from .algebra import (
    ConfigurationError,
    LieAlgebra,
    SubalgebraSpec,
    builtin_sl,
    full_subalgebra,
    in_centralizer,
    is_regular,
    killing_form,
    orbit_dimension,
    sl_size,
    _linear_forms,
    _sl_matrix_basis,
)
from .commutant import (
    Generator,
    GeneratorSet,
    RelationSet,
    generate,
    is_invariant,
    relation_basis,
)
from .poly import (
    Polynomial,
    as_point,
    brackets,
    linear_combination,
    render_polynomial,
    sum_of_products,
)
from .sampling import DEFAULT_SEED, generic_jacobian_rank

REGULARITY_NOTE = (
    "regularity of the shift (maximal commutator-matrix rank) is the "
    "operative hypothesis; semisimplicity of the shift is not checked"
)


@dataclass
class CasimirSet:
    """Central generators of the symmetric algebra, with their construction tag."""

    gens: GeneratorSet
    method: str  # "kernel" | "trace-transport"

    @property
    def algebra(self) -> LieAlgebra:
        return self.gens.algebra

    @property
    def generators(self) -> list[Generator]:
        return self.gens.generators

    def polys(self) -> list[Polynomial]:
        return self.gens.polys()

    def __len__(self) -> int:
        return len(self.gens.generators)

    def to_json(self) -> dict:
        out = self.gens.to_json()
        out["method"] = self.method
        return out


def casimirs_by_kernel(alg: LieAlgebra, max_degree: int | None = None) -> CasimirSet:
    """Indecomposable invariants of the full algebra up to the degree cap
    (generate's default when None)."""
    gens = generate(alg, full_subalgebra(alg), max_degree, label_prefix="C")
    return CasimirSet(gens=gens, method="kernel")


def _symbolic_sl_matrix(
    n: int, images: Sequence[Polynomial]
) -> list[list[Polynomial]]:
    """The generic traceless matrix sum_i m_i * images[i] over the h/e basis
    matrices m_i: entry (r, c) is the combination of the images whose basis
    matrix is nonzero there."""
    matrices, _ = _sl_matrix_basis(n)
    dim = len(images)
    pieces: dict[tuple[int, int], list] = {}
    for mat, image in zip(matrices, images):
        for rc, v in mat.items():
            pieces.setdefault(rc, []).append((v, image))
    return [
        [linear_combination(dim, pieces.get((r, c), ())) for c in range(n)]
        for r in range(n)
    ]


def _matrix_poly_mul(
    a: list[list[Polynomial]], b: list[list[Polynomial]], dim: int
) -> list[list[Polynomial]]:
    n = len(a)
    return [
        [sum_of_products(dim, ((a[r][k], b[k][c]) for k in range(n))) for c in range(n)]
        for r in range(n)
    ]


def trace_casimirs_sln(n: int, max_k: int | None = None) -> CasimirSet:
    """trace_casimirs on builtin_sl(n)."""
    if n < 2:
        raise ConfigurationError("need n >= 2")
    return trace_casimirs(builtin_sl(n), max_k)


def trace_casimirs(alg: LieAlgebra, max_k: int | None = None) -> CasimirSet:
    """Power traces of the generic traceless matrix, in dual coordinates, on
    an sl(n) in the built-in layout (sl_size), rendered with its own name
    and labels.

    The trace of the k-th matrix power is a polynomial in the coefficients of
    the matrix against the standard basis; composing with the inverse Killing
    form turns it into a central polynomial in the dual coordinates.  That
    substitution phi is a ring homomorphism, so tr((phi X)^k) = phi(tr X^k):
    the coordinates are transported once, at degree 1, the matrix is built
    from their images, and each power trace comes out already transported,
    the same polynomial the substitution of the finished trace gives.  Only
    the powers up to ceil(max_k / 2) are formed; tr X^k is the sum over r, c
    of (X^a)_rc (X^b)_cr with a = k // 2 and b = k - a.  Each result is made
    monic.  k runs over 2..max_k (the first power has zero trace); values
    above n add nothing new and are rejected.
    """
    n = sl_size(alg)
    if n is None:
        raise ConfigurationError("the trace route requires a built-in sl(n) algebra")
    if max_k is None:
        max_k = n
    if not 2 <= max_k <= n:
        raise ConfigurationError("trace exponent cap must lie in 2..n")
    images = _linear_forms(alg.dim, killing_form(alg).inverse)
    powers = [None, _symbolic_sl_matrix(n, images)]  # powers[j] = X^j
    while len(powers) <= (max_k + 1) // 2:
        powers.append(_matrix_poly_mul(powers[-1], powers[1], alg.dim))
    gens: list[Generator] = []
    for k in range(2, max_k + 1):
        a, b = powers[k // 2], powers[k - k // 2]
        trace = sum_of_products(
            alg.dim, ((a[r][c], b[c][r]) for r in range(n) for c in range(n))
        )
        gens.append(Generator(poly=trace.monic(), degree=k, label=f"c{k}"))
    gen_set = GeneratorSet(
        algebra=alg,
        generators=gens,
        subalgebra=full_subalgebra(alg),
        max_degree=max_k,
    )
    return CasimirSet(gens=gen_set, method="trace-transport")


@dataclass
class CasimirCountReport:
    independent_count: int
    expected: int  # dim - generic commutator rank
    dim: int
    generic_commutator_rank: int
    max_degree: int
    matches: bool

    def to_json(self) -> dict:
        return asdict(self)


def casimir_count_check(
    casimirs: CasimirSet, seed: int = DEFAULT_SEED
) -> CasimirCountReport:
    """Independent Casimir count against the corank of the commutator matrix.

    The corank (dim minus the generic rank of the bracket pairing matrix) is
    the maximal number of functionally independent central polynomials; the
    kernel construction should reach it once the degree cap covers every
    fundamental generator degree.
    """
    alg = casimirs.algebra
    count = generic_jacobian_rank(casimirs.polys(), alg.dim, seed=seed)
    corank = alg.dim - orbit_dimension(alg, full_subalgebra(alg), seed=seed)
    return CasimirCountReport(
        independent_count=count,
        expected=corank,
        dim=alg.dim,
        generic_commutator_rank=alg.dim - corank,
        max_degree=casimirs.gens.max_degree,
        matches=count == corank,
    )


# ---------------------------------------------------------------------------
# argument shift


@dataclass
class MFAlgebra:
    """Shift-coefficient family of the Casimirs along a fixed direction."""

    shift: tuple[Fraction, ...]
    base: CasimirSet
    generators: list[Generator]
    shift_regular: bool
    note: ClassVar[str] = REGULARITY_NOTE

    @property
    def algebra(self) -> LieAlgebra:
        return self.base.algebra

    def polys(self) -> list[Polynomial]:
        return [g.poly for g in self.generators]

    def as_generator_set(self) -> GeneratorSet:
        return GeneratorSet(algebra=self.algebra, generators=list(self.generators))

    def to_json(self) -> dict:
        alg = self.algebra
        return {
            "algebra": alg.name,
            "shift": [str(c) for c in self.shift],
            "shift_regular": self.shift_regular,
            "note": self.note,
            "generators": [
                {
                    "label": g.label,
                    "degree": g.degree,
                    "poly": render_polynomial(g.poly, alg.labels),
                }
                for g in self.generators
            ],
        }


def mf_generators(cas: CasimirSet, mu: Sequence) -> MFAlgebra:
    """All shift-parameter coefficients of each Casimir, top constant dropped.

    Expanding P(x + t*mu) in t gives coefficients of orders 0..deg P; the
    order-0 coefficient is P itself and the top one is the constant P(mu),
    which generates nothing and is discarded.  Zero coefficients are dropped,
    so a zero shift reproduces exactly the Casimirs.
    """
    alg = cas.algebra
    point = as_point(mu, alg.dim)
    gens: list[Generator] = []
    for base_gen in cas.generators:
        coeffs = base_gen.poly.shift_coefficients(point)
        top = base_gen.degree
        for j in range(top):
            poly = coeffs.get(j)
            if poly is None or poly.is_zero():
                continue
            label = base_gen.label if j == 0 else f"{base_gen.label}.d{j}"
            degree = poly.degree or 0
            gens.append(Generator(poly=poly, degree=degree, label=label))
    regular = is_regular(alg, point)
    return MFAlgebra(
        shift=point, base=cas, generators=gens, shift_regular=regular
    )


@dataclass
class CommutativityReport:
    pair_count: int
    nonzero_pairs: list[tuple[str, str]]

    @property
    def commutative(self) -> bool:
        return not self.nonzero_pairs

    def to_json(self) -> dict:
        return {
            "pair_count": self.pair_count,
            "commutative": self.commutative,
            "nonzero_pairs": [list(p) for p in self.nonzero_pairs],
        }


def mf_commutativity_check(mf: MFAlgebra) -> CommutativityReport:
    """Whether every pair of the shift family Poisson-commutes.

    First the Mishchenko-Fomenko certificate (Mishchenko and Fomenko 1978;
    Bolsinov 1991): every member is a shift coefficient f_k of a base
    generator f, and every base generator is central, by is_invariant on the
    full algebra (which takes the Jacobi identity, as base_center_check
    does).  Then no bracket is needed.  With f(x + t*a) = sum_k t^k f_k(x),
    centrality of f at x + t*a reads Pi_x df_(k+1) + Pi_a df_k = 0, where
    Pi_x is the Lie-Poisson tensor, linear in x.  By antisymmetry,
    {f_i, g_j} = {f_(i-1), g_(j+1)} = ... = {f_0, g_(i+j)} = 0 for any two
    such chains.  Otherwise every pair is bracketed exactly, so
    nonzero_pairs are found on every input.
    """
    alg = mf.algebra
    full = full_subalgebra(alg)
    coefficients = {
        c for g in mf.base.generators for c in g.poly.shift_coefficients(mf.shift).values()
    }
    m = len(mf.generators)
    if all(g.poly in coefficients for g in mf.generators) and all(
        is_invariant(alg, full, g.poly) for g in mf.base.generators
    ):
        return CommutativityReport(pair_count=m * (m - 1) // 2, nonzero_pairs=[])
    pairs = list(combinations(mf.generators, 2))
    values = brackets(((gi.poly, gj.poly) for gi, gj in pairs), mf.algebra)
    bad = [
        (gi.label, gj.label) for (gi, gj), br in zip(pairs, values) if not br.is_zero()
    ]
    return CommutativityReport(pair_count=len(pairs), nonzero_pairs=bad)


@dataclass
class MFRankReport:
    jacobian_rank: int
    expected: int  # b(g) = (dim + rank)/2
    generator_count: int
    shift_regular: bool
    hypothesis_met: bool
    matches: bool
    relations: RelationSet | None
    note: ClassVar[str] = REGULARITY_NOTE

    def to_json(self) -> dict:
        out = {
            "jacobian_rank": self.jacobian_rank,
            "expected": self.expected,
            "generator_count": self.generator_count,
            "shift_regular": self.shift_regular,
            "hypothesis_met": self.hypothesis_met,
            "matches": self.matches,
            "note": self.note,
        }
        if self.relations is not None:
            out["relations"] = self.relations.to_json()
        return out


def mf_rank_check(mf: MFAlgebra, seed: int = DEFAULT_SEED) -> MFRankReport:
    """Independent count of the shift family against (dim + rank)/2.

    When the shift is not regular the report flags the missing hypothesis and
    still states the computed rank.  It also lists the polynomial relations
    up to weighted degree twice the largest generator degree.  For a free
    family, one whose gradients are independent, relation_basis certifies
    that list empty by the Jacobian criterion, so "no relations up to
    2 * max degree" then holds in every degree.
    """
    alg = mf.algebra
    rank_g = alg.rank(seed=seed)
    b_g, rem = divmod(alg.dim + rank_g, 2)
    if rem:
        raise ConfigurationError(f"dim {alg.dim} + flagged Cartan rank {rank_g} "
                                 "is odd; not a valid bracket geometry")
    jac = generic_jacobian_rank(mf.polys(), alg.dim, seed=seed)
    relations = None
    if mf.generators:
        max_deg = max(g.degree for g in mf.generators)
        relations = relation_basis(mf.as_generator_set(), 2 * max_deg)
    return MFRankReport(
        jacobian_rank=jac,
        expected=b_g,
        generator_count=len(mf.generators),
        shift_regular=mf.shift_regular,
        hypothesis_met=mf.shift_regular,
        matches=jac == b_g,
        relations=relations,
    )


@dataclass
class InclusionReport:
    centralizer_route: bool
    operator_route: bool
    witness: str | None  # label of a generator failing invariance

    @property
    def agree(self) -> bool:
        return self.centralizer_route == self.operator_route

    @property
    def included(self) -> bool:
        return self.operator_route

    def to_json(self) -> dict:
        return {
            "centralizer_route": self.centralizer_route,
            "operator_route": self.operator_route,
            "agree": self.agree,
            "included": self.included,
            "witness": self.witness,
        }


def mf_inclusion_check(mf: MFAlgebra, sub: SubalgebraSpec) -> InclusionReport:
    """Whether the shift family lands inside the invariants of the subalgebra.

    Two independent tests that must agree: the shift, moved to the algebra
    by the Killing form, commutes with the subalgebra (a rank-one
    linear-algebra criterion), and every family member is annihilated by
    every invariance operator (a full kernel check).  The first failing
    generator is reported as a witness.
    """
    alg = mf.algebra
    central = in_centralizer(alg, sub, mf.shift)
    witness = None
    operator_ok = True
    for g in mf.generators:
        if not is_invariant(alg, sub, g.poly):
            operator_ok = False
            witness = g.label
            break
    return InclusionReport(
        centralizer_route=central, operator_route=operator_ok, witness=witness
    )


@dataclass
class SandwichReport:
    d_a: int
    rank: int
    hypothesis_met: bool  # d_A == rank
    casimirs_in_family: bool
    inclusion: InclusionReport
    notes: list[str] = field(default_factory=list)

    @property
    def sandwich_holds(self) -> bool:
        return self.casimirs_in_family and self.inclusion.included

    def to_json(self) -> dict:
        return {
            "d_A": self.d_a,
            "rank": self.rank,
            "hypothesis_met": self.hypothesis_met,
            "casimirs_in_family": self.casimirs_in_family,
            "inclusion": self.inclusion.to_json(),
            "sandwich_holds": self.sandwich_holds,
            "notes": self.notes,
        }


def sandwich_check(
    mf: MFAlgebra,
    sub: SubalgebraSpec,
    seed: int = DEFAULT_SEED,
) -> SandwichReport:
    """Certificate for the refined chain: the Casimirs the family was built
    from (mf.base) inside the shift family inside the invariants of the
    subalgebra.

    The refinement is meaningful when the subalgebra's generic orbit
    dimension equals the rank; a mismatch is reported as a failed hypothesis
    while the two inclusions are still checked.
    """
    alg = mf.algebra
    d_a = orbit_dimension(alg, sub, seed=seed)
    rank_g = alg.rank(seed=seed)
    notes = []
    if d_a != rank_g:
        notes.append(
            f"hypothesis fails: generic orbit dimension {d_a} != rank {rank_g}"
        )
    order_zero = {
        g.label.split(".")[0]: g.poly for g in mf.generators if "." not in g.label
    }
    casimirs_in = all(
        order_zero.get(c.label) == c.poly for c in mf.base.generators
    )
    inclusion = mf_inclusion_check(mf, sub)
    if not inclusion.agree:
        notes.append("inclusion routes disagree; investigate")
    return SandwichReport(
        d_a=d_a,
        rank=rank_g,
        hypothesis_met=d_a == rank_g,
        casimirs_in_family=casimirs_in,
        inclusion=inclusion,
        notes=notes,
    )
