"""Invariant polynomial subalgebras computed by exact degreewise kernels.

A polynomial p is invariant under a subalgebra element H exactly when the
derivation L_H(p) = {l_H, p} vanishes, where l_H is the linear coordinate of
H.  The degree-k invariants are therefore the simultaneous kernel of finitely
many sparse linear operators on the degree-k monomial space; we intersect the
kernels one operator at a time (diagonal operators first, which collapses the
dimension immediately for torus actions) and normalize the result to the
unique reduced echelon basis in graded-lex order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import linalg
from .algebra import LieAlgebra, SubalgebraSpec
from .poly import (
    Monomial,
    Polynomial,
    as_fraction,
    lie_poisson_bracket,
    parse_polynomial,
    polynomial_from_json,
    render_polynomial,
)


class BudgetExceededError(RuntimeError):
    """A combinatorial budget (columns, products) was exceeded."""

    def __init__(self, message: str, degree: int | None = None) -> None:
        super().__init__(message)
        self.degree = degree


@dataclass(frozen=True)
class Generator:
    poly: Polynomial
    degree: int
    label: str
    indecomposable: bool = True


@dataclass
class GeneratorSet:
    """A finite generator list for a polynomial subalgebra, with provenance."""

    algebra: LieAlgebra
    generators: list[Generator]
    subalgebra: SubalgebraSpec | None = None
    max_degree: int | None = None
    kernel_dims: dict[int, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.generators)

    def polys(self) -> list[Polynomial]:
        return [g.poly for g in self.generators]

    def labels(self) -> list[str]:
        return [g.label for g in self.generators]

    def degrees(self) -> list[int]:
        return [g.degree for g in self.generators]

    def to_json(self) -> dict:
        out = {
            "algebra": self.algebra.name,
            "dim": self.algebra.dim,
            "labels": list(self.algebra.labels),
            "generators": [
                {
                    "label": g.label,
                    "degree": g.degree,
                    "indecomposable": g.indecomposable,
                    "poly": render_polynomial(g.poly, self.algebra.labels),
                }
                for g in self.generators
            ],
        }
        if self.max_degree is not None:
            out["max_degree"] = self.max_degree
        if self.kernel_dims:
            out["kernel_dims"] = {str(k): v for k, v in sorted(self.kernel_dims.items())}
        return out

    @classmethod
    def from_json(cls, data: Mapping, alg: LieAlgebra) -> "GeneratorSet":
        gens = []
        for entry in data["generators"]:
            raw = entry["poly"]
            if isinstance(raw, str):
                poly = parse_polynomial(raw, alg.dim, alg.labels)
            else:
                poly = polynomial_from_json(raw, alg.dim)
            degree = int(entry.get("degree", poly.degree or 0))
            gens.append(
                Generator(
                    poly=poly,
                    degree=degree,
                    label=str(entry.get("label", f"g{len(gens) + 1}")),
                    indecomposable=bool(entry.get("indecomposable", True)),
                )
            )
        kernel_dims = {int(k): int(v) for k, v in data.get("kernel_dims", {}).items()}
        return cls(
            algebra=alg,
            generators=gens,
            max_degree=data.get("max_degree"),
            kernel_dims=kernel_dims,
        )


# ---------------------------------------------------------------------------
# monomial bases and operators


def monomial_basis(dim: int, k: int) -> list[Monomial]:
    """All monomials of total degree k, graded-lex descending."""
    if k == 0:
        return [Monomial.one()]
    monos = []
    for combo in combinations_with_replacement(range(dim), k):
        counts: dict[int, int] = {}
        for v in combo:
            counts[v] = counts.get(v, 0) + 1
        monos.append(Monomial(counts.items()))
    monos.sort(key=lambda m: m.dense(dim), reverse=True)
    return monos


def _contracted_action(
    alg: LieAlgebra, vec: Sequence[Fraction]
) -> dict[int, dict[int, Fraction]]:
    """Per-coordinate action of L_H: maps v to the terms of {l_H, x_v}."""
    out: dict[int, dict[int, Fraction]] = {}
    for a, ha in enumerate(vec):
        if not ha:
            continue
        for v in range(alg.dim):
            if v == a:
                continue
            for l, c in alg.bracket_coeffs(a, v).items():
                row = out.setdefault(v, {})
                nv = row.get(l, Fraction(0)) + ha * c
                if nv:
                    row[l] = nv
                else:
                    del row[l]
    return {v: row for v, row in out.items() if row}


def _apply_contracted(
    action: dict[int, dict[int, Fraction]], p: Polynomial
) -> Polynomial:
    """Apply the derivation with the given coordinate action by the Leibniz rule."""
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in p.terms.items():
        for v, e in mono.exps:
            row = action.get(v)
            if not row:
                continue
            base = mono.lowered(v)
            for l, c in row.items():
                m2 = base.raised(l)
                nv = out.get(m2, Fraction(0)) + coeff * e * c
                if nv:
                    out[m2] = nv
                else:
                    del out[m2]
    return Polynomial(p.dim, out)


def apply_invariance_operator(
    alg: LieAlgebra, vec: Sequence[Fraction], p: Polynomial
) -> Polynomial:
    """L_H(p) = {l_H, p} for the subalgebra element with the given coordinates."""
    return _apply_contracted(_contracted_action(alg, vec), p)


def _ordered_actions(
    alg: LieAlgebra, sub: SubalgebraSpec
) -> list[dict[int, dict[int, Fraction]]]:
    """Operator actions for the spanning vectors, diagonal-like ones first."""
    actions = [_contracted_action(alg, vec) for vec in sub.vectors]

    def sort_key(pair):
        idx, action = pair
        diagonal = all(set(row) <= {v} for v, row in action.items())
        nnz = sum(len(row) for row in action.values())
        return (not diagonal, nnz, idx)

    return [a for _, a in sorted(enumerate(actions), key=sort_key)]


# ---------------------------------------------------------------------------
# kernels


def _kernel_of_images(
    images: Iterable[Polynomial], ncols: int
) -> list[dict[int, Fraction]]:
    """Kernel of the linear map sending column i to the i-th image polynomial."""
    rows_by_mono: dict[Monomial, dict[int, Fraction]] = {}
    for col, img in enumerate(images):
        for mono, c in img.terms.items():
            rows_by_mono.setdefault(mono, {})[col] = c
    rows = [linalg.row_from_rationals(entries) for entries in rows_by_mono.values()]
    return linalg.nullspace(rows, ncols)


def _kernel_of_map(
    basis: Sequence[Polynomial], image_of: Callable[[Polynomial], Polynomial]
) -> list[Polynomial]:
    """Basis of the kernel of a linear map given by images of basis polynomials."""
    if not basis:
        return []
    dim = basis[0].dim
    out = []
    for vec in _kernel_of_images(map(image_of, basis), len(basis)):
        acc = Polynomial.zero(dim)
        for col, c in vec.items():
            acc = acc + basis[col].scale(c)
        out.append(acc)
    return out


def _graded_lex_index(
    polys: Iterable[Polynomial], dim: int
) -> tuple[list[Monomial], dict[Monomial, int]]:
    """The monomials of the polynomials in graded-lex descending order, and
    the column index of each."""
    monos = sorted(
        {m for p in polys for m in p.terms},
        key=lambda m: m.sort_key(dim),
        reverse=True,
    )
    return monos, {m: i for i, m in enumerate(monos)}


def _canonical_polys(
    polys: Sequence[Polynomial], dim: int
) -> list[Polynomial]:
    """The reduced echelon basis of the span of the polynomials, with
    graded-lex pivots: equal spans give equal lists."""
    monos, index = _graded_lex_index(polys, dim)
    reduced = linalg.canonical_rref(
        {index[m]: c for m, c in p.terms.items()} for p in polys
    )
    return [
        Polynomial(dim, {monos[i]: c for i, c in row.items()}) for row in reduced
    ]


def invariant_basis(alg: LieAlgebra, sub: SubalgebraSpec, k: int) -> list[Polynomial]:
    """The degree-k polynomials annihilated by every operator of the subalgebra.

    Returned as the unique reduced echelon basis with graded-lex pivots, so
    the output is deterministic and basis-order canonical.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k == 0:
        return [Polynomial.one(alg.dim)]
    basis: list[Polynomial] = [
        Polynomial(alg.dim, {m: Fraction(1)}) for m in monomial_basis(alg.dim, k)
    ]
    for action in _ordered_actions(alg, sub):
        if not basis:
            break
        if not action:
            continue
        basis = _kernel_of_map(basis, lambda p, a=action: _apply_contracted(a, p))
    return _canonical_polys(basis, alg.dim)


def _generator_products(
    gens: Sequence[Generator], max_degree: int
) -> Iterator[tuple[int, Polynomial]]:
    """Every product of one or more of the generators (repeats allowed) with
    total degree at most max_degree, as (degree, product) pairs, lazily and
    depth first in generator order."""

    def rec(start: int, degree: int, acc: Polynomial | None):
        for idx in range(start, len(gens)):
            g = gens[idx]
            total = degree + g.degree
            if total > max_degree:
                continue
            prod = g.poly if acc is None else acc * g.poly
            yield total, prod
            yield from rec(idx, total, prod)

    return rec(0, 0, None)


def indecomposables(
    alg: LieAlgebra,
    sub: SubalgebraSpec,
    k: int,
    previous: Sequence[Generator],
    invariant: Sequence[Polynomial] | None = None,
) -> list[Polynomial]:
    """New degree-k generators: a complement of the span of products of
    earlier generators inside the degree-k invariants, chosen by graded-lex
    pivot positions."""
    inv = invariant_basis(alg, sub, k) if invariant is None else list(invariant)
    if not inv:
        return []
    dim = alg.dim
    monos, index = _graded_lex_index(inv, dim)
    lower = sorted(
        (g for g in previous if g.degree < k), key=lambda g: (g.degree, g.label)
    )
    ech = linalg.Echelon()
    for degree, prod in _generator_products(lower, k):
        if degree < k:
            continue
        entries: dict[int, Fraction] = {}
        for m, c in prod.terms.items():
            if m not in index:
                # product of invariants must stay inside the invariant span;
                # widen the index in the unexpected case
                index[m] = len(monos)
                monos.append(m)
            entries[index[m]] = c
        ech.insert(linalg.row_from_rationals(entries))
    out = []
    for b in inv:
        row = linalg.row_from_rationals({index[m]: c for m, c in b.terms.items()})
        red = ech.reduce(row)
        if not red:
            continue
        ech.insert(dict(red))
        poly = Polynomial(dim, {monos[i]: Fraction(v) for i, v in red.items()})
        out.append(poly.monic())
    return out


def generate(
    alg: LieAlgebra,
    sub: SubalgebraSpec,
    max_degree: int,
    label_prefix: str = "q",
) -> GeneratorSet:
    """Indecomposable invariant generators through the degree cap.

    Records the kernel dimension at each degree; generator counts per degree
    never shrink when the cap grows (earlier degrees are unaffected).
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    gens: list[Generator] = []
    kernel_dims: dict[int, int] = {}
    for k in range(1, max_degree + 1):
        inv = invariant_basis(alg, sub, k)
        kernel_dims[k] = len(inv)
        fresh = indecomposables(alg, sub, k, gens, invariant=inv)
        for idx, poly in enumerate(fresh, start=1):
            label = f"{label_prefix}{k}_{idx}" if len(fresh) > 1 else f"{label_prefix}{k}"
            gens.append(Generator(poly=poly, degree=k, label=label))
    return GeneratorSet(
        algebra=alg,
        generators=gens,
        subalgebra=sub,
        max_degree=max_degree,
        kernel_dims=kernel_dims,
    )


# ---------------------------------------------------------------------------
# relations, membership, closure, center


def weighted_exponents(weights: Sequence[int], total: int) -> list[tuple[int, ...]]:
    """All exponent tuples e with sum(w_i * e_i) == total, lex descending."""
    out: list[tuple[int, ...]] = []

    def rec(idx: int, remaining: int, acc: list[int]) -> None:
        if idx == len(weights):
            if remaining == 0:
                out.append(tuple(acc))
            return
        w = weights[idx]
        top = remaining // w
        for e in range(top, -1, -1):
            acc.append(e)
            rec(idx + 1, remaining - e * w, acc)
            acc.pop()

    rec(0, total, [])
    return out


def _formal_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


def _formal_monomial(exps: tuple[int, ...]) -> Monomial:
    return Monomial([(i, e) for i, e in enumerate(exps) if e])


def _expand_formal(gens: GeneratorSet, exps: tuple[int, ...]) -> Polynomial:
    acc = Polynomial.one(gens.algebra.dim)
    for i, e in enumerate(exps):
        if e:
            acc = acc * gens.generators[i].poly.power(e)
    return acc


@dataclass
class Relation:
    weighted_degree: int
    formal: Polynomial  # polynomial in one formal variable per generator

    def render(self, gens: GeneratorSet) -> str:
        return render_polynomial(self.formal, gens.labels())


@dataclass
class RelationSet:
    generator_labels: list[str]
    weights: list[int]
    max_degree: int
    relations: list[Relation]

    def to_json(self) -> dict:
        return {
            "generators": self.generator_labels,
            "weights": self.weights,
            "max_degree": self.max_degree,
            "relations": [
                {
                    "weighted_degree": r.weighted_degree,
                    "relation": render_polynomial(r.formal, self.generator_labels),
                }
                for r in self.relations
            ],
        }


def relation_basis(
    gens: GeneratorSet,
    max_total_degree: int,
    column_budget: int = 20000,
) -> RelationSet:
    """Degreewise basis of the polynomial relations among the generators.

    A relation of weighted degree d is a linear dependency among the
    expansions of the formal generator monomials of weighted degree d (the
    weight of a generator is its degree).  Multiples of relations found in
    lower degree are reduced away, so every reported relation is new.
    """
    weights = gens.degrees()
    if weights and max_total_degree < max(weights):
        raise ValueError("budget below the largest generator degree")
    nformal = len(gens.generators)
    relations: list[Relation] = []
    for d in range(1, max_total_degree + 1):
        cols = weighted_exponents(weights, d)
        cols.sort(key=_formal_key, reverse=True)
        if not cols:
            continue
        if len(cols) > column_budget:
            raise BudgetExceededError(
                f"{len(cols)} formal monomials at weighted degree {d}", degree=d
            )
        kernel = _kernel_of_images(
            (_expand_formal(gens, exps) for exps in cols), len(cols)
        )
        if not kernel:
            continue
        col_index = {exps: i for i, exps in enumerate(cols)}
        old = linalg.Echelon()
        for rel in relations:
            shift = d - rel.weighted_degree
            for mult in weighted_exponents(weights, shift):
                vec: dict[int, Fraction] = {}
                for mono, c in rel.formal.terms.items():
                    dense = list(mono.dense(nformal))
                    combined = tuple(a + b for a, b in zip(dense, mult))
                    vec[col_index[combined]] = c
                old.insert(linalg.row_from_rationals(vec))
        fresh_vectors = []
        for vec in kernel:
            row = linalg.row_from_rationals(vec)
            red = old.reduce(row)
            if red:
                old.insert(dict(red))
                fresh_vectors.append(
                    {ci: Fraction(v) for ci, v in red.items()}
                )
        for vec in linalg.canonical_rref(fresh_vectors):
            formal = Polynomial(
                nformal,
                {_formal_monomial(cols[ci]): c for ci, c in vec.items()},
            )
            relations.append(Relation(weighted_degree=d, formal=formal))
    return RelationSet(
        generator_labels=gens.labels(),
        weights=weights,
        max_degree=max_total_degree,
        relations=relations,
    )


@dataclass
class MembershipResult:
    status: str  # found | not_invariant | not_found_up_to_budget
    expression: Polynomial | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def is_invariant(alg: LieAlgebra, sub: SubalgebraSpec, p: Polynomial) -> bool:
    return all(
        apply_invariance_operator(alg, vec, p).is_zero() for vec in sub.vectors
    )


def membership(
    p: Polynomial, gens: GeneratorSet, max_total_degree: int
) -> MembershipResult:
    """Express p as a polynomial in the generators, weighted degree capped.

    The result is an expression in one formal variable per generator, or a
    'not found up to the budget' verdict (which is not a disproof).
    """
    deg = p.degree
    if deg is not None and deg > max_total_degree:
        return MembershipResult("not_found_up_to_budget")
    if gens.subalgebra is not None and not is_invariant(
        gens.algebra, gens.subalgebra, p
    ):
        return MembershipResult("not_invariant")
    weights = gens.degrees()
    nformal = len(gens.generators)
    mono_ids: dict[Monomial, int] = {}

    def row_of(poly: Polynomial) -> linalg.Row:
        return linalg.row_from_rationals(
            {mono_ids.setdefault(m, len(mono_ids)): c for m, c in poly.terms.items()}
        )

    expression = Polynomial.zero(nformal)
    for d, component in p.homogeneous_components().items():
        if d == 0:
            expression = expression + Polynomial.constant(
                component.terms[Monomial.one()], nformal
            )
            continue
        cols = weighted_exponents(weights, d)
        cols.sort(key=_formal_key, reverse=True)
        if not cols:
            return MembershipResult("not_found_up_to_budget")
        expansions = [row_of(_expand_formal(gens, exps)) for exps in cols]
        coeffs = linalg.express_in_rowspace(expansions, row_of(component))
        if coeffs is None:
            return MembershipResult("not_found_up_to_budget")
        for exps, c in zip(cols, coeffs):
            if c:
                expression = expression + Polynomial(
                    nformal, {_formal_monomial(exps): c}
                )
    return MembershipResult("found", expression)


@dataclass
class ClosureEntry:
    left: str
    right: str
    bracket_is_zero: bool
    closed: bool
    expression: str | None


@dataclass
class ClosureReport:
    entries: list[ClosureEntry]

    @property
    def all_closed(self) -> bool:
        return all(e.closed for e in self.entries)

    def to_json(self) -> dict:
        return {
            "all_closed": self.all_closed,
            "pairs": [
                {
                    "left": e.left,
                    "right": e.right,
                    "bracket_is_zero": e.bracket_is_zero,
                    "closed": e.closed,
                    "expression": e.expression,
                }
                for e in self.entries
            ],
        }


def bracket_closure_check(
    gens: GeneratorSet, max_total_degree: int | None = None
) -> ClosureReport:
    """Whether the generator brackets land back in the generated subalgebra.

    Each pairwise bracket of degrees (a, b) is searched for at weighted
    degree a + b - 1, the degree the bracket actually has (optionally capped
    by an overall budget).
    """
    alg = gens.algebra
    entries = []
    for i, gi in enumerate(gens.generators):
        for gj in gens.generators[i:]:
            br = lie_poisson_bracket(gi.poly, gj.poly, alg)
            if br.is_zero():
                entries.append(
                    ClosureEntry(gi.label, gj.label, True, True, None)
                )
                continue
            budget = gi.degree + gj.degree - 1
            if max_total_degree is not None:
                budget = min(budget, max_total_degree)
            result = membership(br, gens, budget)
            entries.append(
                ClosureEntry(
                    gi.label,
                    gj.label,
                    False,
                    result.found,
                    render_polynomial(result.expression, gens.labels())
                    if result.found
                    else None,
                )
            )
    return ClosureReport(entries)


def poisson_center_basis(
    alg: LieAlgebra,
    sub: SubalgebraSpec,
    gens: GeneratorSet,
    k: int,
) -> list[Polynomial]:
    """Degree-k invariants whose bracket with every generator vanishes."""
    basis = invariant_basis(alg, sub, k)
    for g in gens.generators:
        if not basis:
            break
        basis = _kernel_of_map(
            basis, lambda p, q=g.poly: lie_poisson_bracket(p, q, alg)
        )
    return _canonical_polys(basis, alg.dim)
