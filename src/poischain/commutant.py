"""Invariant polynomial subalgebras computed by exact degreewise kernels.

A polynomial p is invariant under a subalgebra element H exactly when the
derivation L_H(p) = {l_H, p} vanishes, where l_H is the linear coordinate of
H.  The degree-k invariants are the joint kernel of these operators on the
degree-k part.

An operator that scales every coordinate, x_v -> c_v x_v (a Cartan element
in a weight basis, as for the built-in sl(n)), has the monomials as
eigenvectors, so the joint kernel of these diagonal operators is listed
directly: the monomials of weight zero, of every degree through the cap
from one walk (_zero_weight_levels).  The other operators are applied one
at a time on integer vectors over those monomials (_invariant_rows).  When
the checks of _raising_fields pass, only the raising operators are applied:
the n - 1 simple ones for the full sl(n), and of those only one per orbit
of the diagram flip, on the flip eigenvectors of sign (-1)^k (Chevalley's
restriction theorem; _flip_route, invariant_basis).

Every kernel, of an invariance operator, of a generator's Hamiltonian field
(poisson_center_basis) or of generator products (relation_basis, and
membership with the target as the last vector, _solve_by_products), is
one _kernel on integer rows, and every basis returned one _canonical over a
graded-lex descending key list, the only place polynomials are built.

Relations and new generators range over the formal generator monomials of
one weighted degree (a generator weighs its degree), membership over those
of every degree of its target at once: products of different weighted
degrees have disjoint monomial supports, so that kernel is block-diagonal,
with the free columns of the per-degree solves.  For
single-term generators c*x^a, as the torus generators of the built-in sl(n)
are, each expands to one term, so the relations are binomials (the toric
ideal of a monomial map; Sturmfels, Groebner Bases and Convex Polytopes,
ch. 4) and every answer is read off packed keys with no product and no
elimination: relations from formal monomials listed level by level
(_term_levels, _fiber_relations), new generators and membership from one
entry per product key (_product_codes).  Other sets take products along
one walk (_formal_monomials) and elimination.  Either route builds a
membership expression as integer numerators over one denominator, with no
Fraction; with integer spanning vectors, a torus chain builds none.

GeneratorSet is the one generator-set type: commutants from generate,
Casimir sets and argument-shift families (casimir_mf) alike.
"""

from __future__ import annotations

from collections import deque
from functools import partial, reduce
from itertools import combinations, combinations_with_replacement
from math import lcm
from operator import and_, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from . import linalg
from .algebra import (
    ConfigurationError,
    LieAlgebra,
    Record,
    SubalgebraSpec,
    Vector,
    sl_flip,
    vector_row,
)
from .poly import (
    Monomial,
    Polynomial,
    VectorField,
    W,
    _json_int,
    _json_list,
    _make,
    brackets,
    hamiltonian_field,
    parse_polynomial,
    polynomial_from_json,
    render_polynomial,
    unpack,
    variable_keys,
)
from .sampling import generic_jacobian_rank

# formal monomials of one weighted degree that relation_basis expands
COLUMN_BUDGET = 20_000


class BudgetExceededError(ConfigurationError):
    """A combinatorial budget (columns, census, instances) was exceeded."""

    def __init__(self, message: str, degree: int | None = None) -> None:
        super().__init__(message)
        self.degree = degree


class Generator(Record):
    _fields = ("poly", "degree", "label", "indecomposable")
    _defaults = {"indecomposable": True}
    __hash__ = Record._hash


class GeneratorSet(Record):
    """A finite generator list for a polynomial subalgebra, with provenance.

    A Casimir set carries its construction in method ("kernel" or
    "trace-transport"), an argument-shift family its shift and the base set
    whose shift coefficients it lists.

    membership and relation_basis solve degree by degree, so they raise
    ConfigurationError on the first generator whose polynomial is not
    homogeneous of its stated degree (from_json checks only the top
    degree).  Flow monitors and chain bases read from a file use the
    polynomials only as targets or in brackets and accept any."""

    _fields = ("algebra", "generators", "subalgebra", "max_degree", "kernel_dims",
               "method", "shift", "base")
    _defaults = {"subalgebra": None, "max_degree": None, "kernel_dims": {},
                 "method": None, "shift": None, "base": None}

    def __len__(self) -> int:
        return len(self.generators)

    # perfbench/workloads.py reads these two; they go with the benchmark change
    @property
    def gens(self) -> GeneratorSet:
        return self

    def as_generator_set(self) -> GeneratorSet:
        return self

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
        if self.method is not None:
            out["method"] = self.method
        return out

    @classmethod
    def from_json(cls, data: Mapping, alg: LieAlgebra) -> "GeneratorSet":
        gens: dict[str, Generator] = {}
        for entry in _json_list(data["generators"], "generators"):
            raw = entry["poly"]
            if isinstance(raw, str):
                poly = parse_polynomial(raw, alg.dim, alg.labels)
            else:
                poly = polynomial_from_json(raw, alg.dim)
            flag = entry.get("indecomposable", True)
            if not isinstance(flag, bool):
                raise ValueError(f"indecomposable must be a boolean, got {flag!r}")
            degree = _json_int(entry.get("degree", poly.degree or 0), "degree")
            if degree < 1:
                raise ValueError(f"generator degree must be at least 1, got {degree}")
            if degree != poly.degree:
                raise ValueError(
                    f"generator degree {degree} is not the degree {poly.degree} of its poly"
                )
            label = entry.get("label", f"g{len(gens) + 1}")
            if not isinstance(label, str):
                raise ValueError(f"generator label must be a string, got {label!r}")
            if label in gens:
                raise ValueError(f"generator label {label!r} is used twice")
            gens[label] = Generator(poly, degree, label, flag)
        cap = data.get("max_degree")
        dims = data.get("kernel_dims", {})
        if not isinstance(dims, dict):
            raise ValueError(f"kernel_dims must be an object, got {dims!r}")
        return cls(
            algebra=alg,
            generators=list(gens.values()),
            max_degree=None if cap is None else _json_int(cap, "max_degree"),
            kernel_dims={int(k): _json_int(v, "kernel dim") for k, v in dims.items()},
        )


# ---------------------------------------------------------------------------
# monomial bases and operators


def monomial_basis(dim: int, k: int) -> list[Monomial]:
    """All monomials of total degree k, graded-lex descending."""
    keys = variable_keys(dim)
    combos = combinations_with_replacement(range(dim), k)
    packed = sorted((sum(keys[v] for v in combo) for combo in combos), reverse=True)
    return [Monomial(unpack(key, dim)) for key in packed]


def _diagonal_weights(field: Sequence[Polynomial]) -> list[int] | None:
    """The weights c_v when the field scales every coordinate, x_v -> c_v x_v,
    scaled to integers by their common denominator, which keeps the
    zero-weight monomials unchanged; else None."""
    den = lcm(*(component.den for component in field))
    weights = []
    for x_v, component in zip(variable_keys(len(field)), field):
        if component.num.keys() - {x_v}:
            return None
        weights.append(component.num.get(x_v, 0) * (den // component.den))
    return weights


def _weight_codes(weights: Sequence[tuple[int, ...]], k: int) -> list[int]:
    """Each coordinate's weight packed into one integer code, its digits in a
    base wide enough that no sum of at most k weights carries: a monomial of
    degree at most k has weight zero exactly when sum_v e_v * codes[v] = 0."""
    bound = max((abs(w) for wt in weights for w in wt), default=0)
    base = 2 * k * bound + 1
    return [sum(w * base**a for a, w in enumerate(wt)) for wt in weights]


def _zero_weight_levels(weights: Sequence[tuple[int, ...]], top: int) -> list[list[int]]:
    """levels[k], k = 0..top: the keys of the degree-k monomials of weight
    zero, sum_v e_v * weights[v] = 0, graded-lex descending.

    Coordinates of weight zero (the Cartan ones) never change the weight, so
    one walk runs over the others, comparing weights by codes wide enough
    for top (_weight_codes).  A leaf of code 0 after d factors is a degree-d
    core, and level k holds each core of degree d <= k times each
    degree-(k - d) monomial in the zero-weight coordinates.  The walk takes
    the first third of its coordinates unpruned; from there on reach[i] maps
    each code the coordinates i.. make within degree top to the least degree
    that makes it, filled one degree at a time, and the walk enters only
    branches that can end at code 0 within the degree left.  A least degree
    answers that for any degree left, so one table at top prunes every
    lower degree too, and the walk reaches each core of degree <= top once.
    """
    keys = variable_keys(len(weights))
    walked = [v for v, wt in enumerate(weights) if any(wt)]
    still = [v for v, wt in enumerate(weights) if not any(wt)]
    every_code = _weight_codes(weights, top)
    codes = [every_code[v] for v in walked]
    split = len(walked) // 3
    reach: list[dict | None] = [None] * len(walked) + [{0: 0}]
    for i in range(len(walked) - 1, split - 1, -1):
        states = reach[i] = dict(reach[i + 1])
        step = codes[i]
        layers: list[list[int]] = [[] for _ in range(top + 1)]
        for c, d in states.items():
            layers[d].append(c)
        for d in range(top):
            for c in layers[d]:
                # a code lowered to an earlier layer was extended there
                if states[c] == d and states.get(c + step, top + 1) > d + 1:
                    states[c + step] = d + 1
                    layers[d + 1].append(c + step)
    cores: list[list[int]] = [[] for _ in range(top + 1)]  # by degree

    def walk(i: int, code: int, left: int, key: int) -> None:
        if i == len(walked):
            cores[top - left].append(key)
            return
        step, after, var = codes[i], reach[i + 1], keys[walked[i]]
        for e in range(left, -1, -1):
            nxt = code + e * step
            if after is None or after.get(-nxt, top + 1) <= left - e:
                walk(i + 1, nxt, left - e, key + e * var)

    walk(0, 0, top, 0)
    # fills[d]: the keys of the degree-d monomials in the zero-weight
    # coordinates (only d = 0, the empty monomial, when there are none)
    fills = [list(map(sum, combinations_with_replacement([keys[v] for v in still], d)))
             for d in range(top + 1)]
    return [sorted((c + f for d in range(k + 1) for c in cores[d] for f in fills[k - d]),
                   reverse=True) for k in range(top + 1)]


def _zero_weight_keys(alg: LieAlgebra, weights: tuple, k: int) -> list[int]:
    """Level k of the deepest walk kept with the algebra, replaced in place
    by a walk through k when shallower; the Cartan and the full subalgebra
    share it, having the same weights."""
    levels = alg.derived(("zero weight monomials", weights), list)
    if len(levels) <= k:
        levels[:] = _zero_weight_levels(weights, k)
    return levels[k]


# ---------------------------------------------------------------------------
# invariance operators


class _Operators(Record):
    """The fields the invariants of one subalgebra are computed with:
    weights[v] is the weight of coordinate v under each field that scales
    every coordinate, and others holds the non-diagonal fields still to
    apply, with their spanning vectors: only the raising fields in spanning
    order when _raising_fields shows that they suffice, else every one,
    fewest nonzeros first.  flip is _flip_route's (perm, sign, positions in
    others of the fields applied to the flip eigenvectors), or None."""

    _fields = ("weights", "others", "flip")
    __hash__ = Record._hash


def _invariance_operators(alg: LieAlgebra, sub: SubalgebraSpec) -> _Operators:
    """The operators of the subalgebra, built once per algebra and set of
    spanning vectors."""
    return alg.derived(
        ("invariance operators", sub.vectors),
        partial(_build_operators, alg, sub.vectors),
    )


def _build_operators(alg: LieAlgebra, vectors: Sequence[Vector]) -> _Operators:
    diagonal: list[tuple[Vector, list[int]]] = []
    roots: list[tuple[Vector, list[Polynomial]]] = []
    for vec in vectors:
        field = hamiltonian_field(alg.linear_form(vec), alg)
        if not any(component.num for component in field):
            continue
        weights = _diagonal_weights(field)
        if weights is None:
            roots.append((vec, field))
        else:
            diagonal.append((vec, weights))
    weights = tuple(tuple(w[v] for _, w in diagonal) for v in range(alg.dim))
    keep = _raising_fields(
        alg, [vec for vec, _ in diagonal], [vec for vec, _ in roots], weights
    )
    if keep is None:
        roots.sort(key=lambda root: sum(len(component.num) for component in root[1]))
    others = tuple(
        (vec, VectorField(field))
        for i, (vec, field) in enumerate(roots)
        if keep is None or i in keep
    )
    flip = None if keep is None else _flip_route(
        alg, vectors, [vec for vec, _ in diagonal], [vec for vec, _ in others]
    )
    return _Operators(weights, others, flip)


def _flip_route(
    alg: LieAlgebra,
    vectors: Sequence[Vector],
    diagonal: Sequence[Vector],
    raising: Sequence[Vector],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None:
    """The diagram flip (perm, sign) of algebra.sl_flip and the positions of
    the first raising vector of each flip orbit; None unless the flip route
    of invariant_basis applies: the vectors span a built-in sl(n), and the
    flip is an involutive automorphism that keeps the diagonal span and
    maps each raising vector to +- a raising vector."""
    flip = sl_flip(alg)
    if flip is None or len(linalg.Echelon(map(vector_row, vectors))) != alg.dim:
        return None
    perm, sign = flip
    if any(perm[perm[v]] != v or sign[v] != sign[perm[v]] for v in range(alg.dim)):
        return None

    def image(row: linalg.Row, scale: int = 1) -> linalg.Row:
        return {perm[v]: scale * sign[v] * c for v, c in row.items()}

    rows, _ = alg.bracket_rows()
    moved: list[dict[int, dict[int, int]]] = [{} for _ in rows]
    for i, row in enumerate(rows):
        for j, out in row.items():
            moved[perm[i]][perm[j]] = image(out, sign[i] * sign[j])
    cartan = linalg.Echelon(map(vector_row, diagonal))
    if moved != rows or any(cartan.reduce(image(vector_row(h))) for h in diagonal):
        return None
    kept = [vector_row(vec) for vec in raising]
    half = []
    for i, row in enumerate(kept):
        pair = (image(row), image(row, -1))
        j = next((j for j, other in enumerate(kept) if other in pair), None)
        if j is None:
            return None
        if i <= j:
            half.append(i)
    return perm, sign, tuple(half)


def _lie_closure(alg: LieAlgebra, gens: Sequence[linalg.Row]) -> linalg.Echelon:
    """The span of the Lie algebra the rows generate: the span of the
    generators, closed under bracketing with each generator."""
    span = linalg.Echelon()
    queue = [g for g in gens if span.insert(g) is not None]
    while queue:
        x = queue.pop()
        for g in gens:
            b = alg.bracket_row(g, x)
            if span.insert(b) is not None:
                queue.append(b)
    return span


def _raising_fields(
    alg: LieAlgebra,
    diagonal: Sequence[Vector],
    roots: Sequence[Vector],
    weights: Sequence[tuple[int, ...]],
) -> set[int] | None:
    """The indices of the root vectors whose fields suffice, with the
    diagonal ones, to cut out the invariants; None when that is not shown.
    The algebra is taken to satisfy the Jacobi identity, so that it acts on
    each degree through its brackets.

    A root vector E has [H, E] = alpha(H) E for every diagonal H: all its
    coordinates have one weight, its shift alpha, which must be nonzero and
    its own.  Of each pair of opposite shifts the vector spanned first
    raises, and so does a vector with no opposite.  The kept raising vectors
    are those outside the span of the brackets of two raising vectors; with
    the diagonal vectors they must generate every raising vector.  A
    lowering vector E_-alpha outside that closure needs h = [E_alpha,
    E_-alpha] in the span of the diagonal vectors and [h, E_alpha] != 0:
    then E_alpha, E_-alpha and h span a copy of sl(2) in which h acts
    diagonally, and a weight-zero vector killed by E_alpha is a
    highest-weight vector of weight zero, so it spans a trivial module and
    E_-alpha kills it too (Humphreys, Introduction to Lie Algebras and
    Representation Theory, sections 7 and 20).
    """
    rows = [vector_row(vec) for vec in roots]
    shifts = []
    for row in rows:
        found = {weights[v] for v in row}
        shift = found.pop()
        if found or not any(shift):
            return None
        shifts.append(shift)
    index = {shift: i for i, shift in enumerate(shifts)}
    if len(index) != len(shifts):
        return None
    opposite = [index.get(tuple(-w for w in shift)) for shift in shifts]
    raising = [i for i, j in enumerate(opposite) if j is None or j > i]
    brackets = linalg.Echelon(
        alg.bracket_row(rows[a], rows[b]) for a, b in combinations(raising, 2)
    )
    keep = [i for i in raising if brackets.reduce(rows[i])]
    gens = [vector_row(vec) for vec in diagonal]
    span = _lie_closure(alg, gens + [rows[i] for i in keep])
    if any(span.reduce(rows[i]) for i in raising):
        return None
    cartan = linalg.Echelon(gens)
    for i, j in enumerate(opposite):
        if j is None or j > i or not span.reduce(rows[i]):
            continue
        h = alg.bracket_row(rows[j], rows[i])
        if cartan.reduce(h) or not alg.bracket_row(h, rows[j]):
            return None
    return set(keep)


# ---------------------------------------------------------------------------
# kernels


def _kernel(pairs: Iterable[tuple[linalg.Row, linalg.Row]]) -> list[linalg.Row]:
    """The combinations of the vectors, integer rows over columns, that the
    map annihilates, as primitive integer rows.  pairs yields each vector
    with its image, all images over one denominator, and is consumed before
    the elimination; the map's rows, one per image monomial, go sparsest
    first."""
    vectors: list[linalg.Row] = []
    rows: dict[int, linalg.Row] = {}
    for j, (vec, image) in enumerate(pairs):
        vectors.append(vec)
        for m, v in image.items():
            rows.setdefault(m, {})[j] = v
    out = []
    for x in linalg.nullspace(sorted(rows.values(), key=len), len(vectors)):
        vec = _combination((a, vectors[j]) for j, a in x.items())
        linalg.make_primitive(vec)
        out.append(vec)
    return out


def _canonical(rows: Iterable[linalg.Row], keys: Sequence[int], dim: int) -> list[Polynomial]:
    """The reduced echelon basis of the span of integer rows over the
    positions of keys, a graded-lex descending key list, as polynomials
    over their pivots: equal spans give equal lists."""
    return [
        _make(dim, {keys[c]: v for c, v in row.items()}, row[min(row)])
        for row in linalg.canonical_rref(rows)
    ]


def invariant_basis(alg: LieAlgebra, sub: SubalgebraSpec, k: int) -> list[Polynomial]:
    """The degree-k polynomials annihilated by every operator of the subalgebra.

    Returned as the unique reduced echelon basis with graded-lex pivots
    (_canonical over the zero-weight keys of _invariant_rows), so the output
    is deterministic and basis-order canonical.

    For the full algebra of a built-in sl(n) (_flip_route), the kernel starts
    from the (-1)^k-eigenvectors of the diagram flip tau(X) = -J X^T J on
    the zero-weight monomials and applies the simple raising fields
    E_alpha_1 .. E_alpha_floor(n/2) only.  That is exactly S^k(g)^G:
    1. tau is an automorphism, so tau p is invariant with p.  Restricted to
       the Cartan h, where tau acts as -w0, it is p|_h(-w0 .) = (-1)^k p|_h
       by Chevalley's restriction theorem, S(g)^G = S(h)^W (Humphreys,
       Introduction to Lie Algebras and Representation Theory, 23.1); that
       restriction is injective on invariants, so tau p = (-1)^k p.
    2. tau x^a = s(a) x^(tau a), s(a) the product of the coordinate signs,
       so the eigenspace has one basis vector per tau-orbit of zero-weight
       monomials (_flip_eigenvectors): x^a + (-1)^k s(a) x^(tau a), or
       x^a alone for a fixed monomial with (-1)^k s(a) = 1.
    3. tau conjugates the field of E_alpha_i into minus that of
       E_alpha_(n-i), so an eigenvector killed by one is killed by both.
    4. A zero-weight polynomial killed by the simple raising fields is
       invariant (_raising_fields).
    """
    keys, rows = _invariant_rows(alg, sub, k)
    if rows is None:
        return [_make(alg.dim, {key: 1}, 1) for key in keys]
    return _canonical(rows, keys, alg.dim)


def _invariant_rows(
    alg: LieAlgebra, sub: SubalgebraSpec, k: int
) -> tuple[list[int], list[linalg.Row] | None]:
    """The degree-k zero-weight keys and a basis of the degree-k invariants
    as integer rows over their positions, each non-diagonal field applied
    by _kernel; the rows are None when no such field applies, as every key
    is then invariant."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    ops = _invariance_operators(alg, sub)
    keys = _zero_weight_keys(alg, ops.weights, k)
    if not ops.others:
        return keys, None
    if ops.flip is None:
        rows = [{c: 1} for c in range(len(keys))]
        fields = ops.others
    else:
        perm, sign, half = ops.flip
        rows = _flip_eigenvectors(keys, perm, sign, (-1) ** k)
        fields = tuple(ops.others[i] for i in half)
    for _, field in fields:
        if rows:
            rows = _kernel(_linear_images(rows, keys, field))
    return keys, rows


def _flip_eigenvectors(
    keys: list[int], perm: Sequence[int], sign: Sequence[int], eigenvalue: int
) -> list[linalg.Row]:
    """A basis of the eigenvalue-eigenspace of the involution tau: x_v ->
    sign[v] * x_perm[v] on the span of the monomials keys[c], which tau must
    permute: x^a + eigenvalue * s(a) * x^(tau a) for each 2-orbit, x^a for a
    fixed monomial with eigenvalue * s(a) = 1, as integer rows over the
    keys' positions."""
    dim = len(perm)
    images = [variable_keys(dim)[p] for p in perm]
    index = {key: c for c, key in enumerate(keys)}
    out: list[linalg.Row] = []
    for c, key in enumerate(keys):
        image, s = 0, eigenvalue
        for v, e in unpack(key, dim):
            image += e * images[v]
            if sign[v] < 0 and e & 1:
                s = -s
        d = index[image]
        if d > c:
            out.append({c: 1, d: s})
        elif d == c and s == 1:
            out.append({c: 1})
    return out


def _combination(terms: Iterable[tuple[int, linalg.Row]]) -> linalg.Row:
    """sum(a * row) over the (a, row) pairs, zero entries dropped."""
    out: linalg.Row = {}
    get = out.get
    for a, row in terms:
        for c, v in row.items():
            out[c] = get(c, 0) + a * v
    return {c: v for c, v in out.items() if v}


def _linear_images(
    vectors: list[linalg.Row], keys: list[int], field: VectorField
) -> Iterator[tuple[linalg.Row, linalg.Row]]:
    """Each vector with its image under a linear field, over field.den: the
    vectors are integer rows over the monomials keys[c], and the image of
    each monomial is computed once, then freed when the last is taken."""
    images = field.monomial_images({keys[c] for vec in vectors for c in vec})
    for vec in vectors:
        yield vec, _combination((a, images[keys[c]]) for c, a in vec.items())


def _field_images(
    vectors: list[linalg.Row], keys: list[int], field: VectorField
) -> Iterator[tuple[linalg.Row, linalg.Row]]:
    """Each vector with its image under the field, over field.den: one field
    call per vector, integer rows over the monomials keys[c]."""
    for vec in vectors:
        image = field(_make(field.dim, {keys[c]: v for c, v in vec.items()}, 1))
        yield vec, {m: v * (field.den // image.den) for m, v in image.num.items()}


def _formal_counts(weights: Sequence[int], degree: int) -> list[list[int]]:
    """counts[i][t], t = 0..degree: the number of multisets of generators i..
    with weight sum t; counts[0][t] counts the formal monomials of weighted
    degree t."""
    if any(w < 1 for w in weights):
        raise ValueError("generator degrees must be positive")
    counts = [[1] + [0] * degree]
    for w in reversed(weights):
        row = counts[-1][:]
        for t in range(w, degree + 1):
            row[t] += row[t - w]
        counts.append(row)
    return counts[::-1]


def _formal_monomials(
    weights: Sequence[int], degree: int, polys: Sequence[Polynomial] | None = None
) -> Iterator[tuple[int, Polynomial | None]]:
    """The formal monomials of weighted degree `degree`, one variable per
    generator, as (key, product) pairs, depth first over the multisets of
    generators in generator order.

    A key is its prefix's key plus the key of its last variable i, and a
    product is its prefix's product times polys[i] (None without polys).
    Generator i is entered only when counts[i] (_formal_counts) says
    generators i.. can still complete the degree; the counts never grow with
    i, so those i form a range.  The walk is one explicit stack of open
    prefixes, each with the next generator to try.
    """
    counts = _formal_counts(weights, degree)
    keys = variable_keys(len(weights))
    # stop[t]: generators i.. can make weight t exactly when i < stop[t]
    stop = [sum(1 for row in counts if row[t]) for t in range(degree + 1)]
    if not degree:
        yield 0, None
        return
    frames = [[0, degree, 0, None]]
    while frames:
        frame = frames[-1]
        start, left, key, value = frame
        for i in range(start, stop[left]):
            rest = left - weights[i]
            if rest >= 0 and counts[i][rest]:
                break
        else:
            frames.pop()
            continue
        frame[0] = i + 1
        child = None if polys is None else (polys[i] if value is None else value * polys[i])
        if rest:
            frames.append([i, rest, key + keys[i], child])
        else:
            yield key + keys[i], child


def _formal_columns(weights: Sequence[int], d: int) -> list[int]:
    """The keys of the formal monomials of weighted degree d, graded-lex
    descending: the column order."""
    return sorted((key for key, _ in _formal_monomials(weights, d)), reverse=True)


def _generator_products(
    gens: Sequence[Generator], degree: int
) -> Iterator[tuple[int, Polynomial]]:
    """The (formal key, product) pairs of the generator products of weighted
    degree `degree`, each generator weighing its degree."""
    return _formal_monomials([g.degree for g in gens], degree, [g.poly for g in gens])


Term = tuple[int, int, int]  # (monomial key, numerator, denominator)


def _single_terms(gens: Sequence[Generator]) -> list[Term] | None:
    """Each generator as its one term c*x^a, (a, numerator, denominator) of
    c; None unless every generator is a single term."""
    if any(len(g.poly.num) != 1 for g in gens):
        return None
    return [(key, num, g.poly.den) for g in gens for key, num in g.poly.num.items()]


# (formal key, product key, numerator, denominator, mask of generators used)
Entry = tuple[int, int, int, int, int]


def _term_levels(
    weights: Sequence[int], terms: Sequence[Term], top: int
) -> Iterator[tuple[int, list[Entry]]]:
    """(t, level) for t = 1..top: an Entry per formal monomial of weighted
    degree t of single-term generators.  Level t is, for each generator i,
    the entries of level t - w_i whose last generator is at most i (a
    prefix of ends[i] entries: a level is ordered by last generator), each
    extended by i.  Only the last max(weights) levels are kept."""
    if any(w < 1 for w in weights):
        raise ValueError("generator degrees must be positive")
    fkeys = variable_keys(len(weights))
    levels = deque([([(0, 0, 1, 1, 0)], [1] * len(weights))], maxlen=max(weights, default=1))
    for t in range(1, top + 1):
        level: list[Entry] = []
        ends = []
        for i, (w, fkey, (key, num, den)) in enumerate(zip(weights, fkeys, terms)):
            if w <= t:
                below, stops = levels[-w]
                bit = 1 << i
                level += [(f + fkey, p + key, a * num, b * den, m | bit)
                          for f, p, a, b, m in below[:stops[i]]]
            ends.append(len(level))
        below = None  # only the window keeps levels, none after the top
        levels.append((level, ends))
        if t == top:
            levels.clear()
        yield t, level


def _product_codes(weights: Sequence[int], keys: Sequence[int], top: int) -> list[dict[int, int]]:
    """The product-key levels t = 0..top: each key of a product of
    single-term generators (weight w_i, key key_i) of weight t, once,
    mapped to a code of its greatest formal monomial, the digits n - a_1,
    ..., n - a_m in base 2**n.bit_length() for indices a_1 <= ... <= a_m.

    Codes compare as graded-lex formal keys (more factors, more digits; at
    the first differing digit the smaller index is a variable the other has
    fewer of).  Generators are added one at a time, each to level t >= w_i
    in increasing t: level t - w_i (i already in it) plus key_i, with i
    appended, the greater code kept.  Each candidate is a formal monomial
    of q, none above the greatest, G; G less its last factor i is one of
    q - key_i, no greater than the entry there, so the candidate of i is at
    least G, hence G.
    """
    if any(w < 1 for w in weights):
        raise ValueError("generator degrees must be positive")
    n = len(weights)
    width = n.bit_length()
    levels: list[dict[int, int]] = [{0: 0}] + [{} for _ in range(top)]
    for i, (w, key) in enumerate(zip(weights, keys)):
        for t in range(w, top + 1):
            level = levels[t]
            get = level.get
            for q, code in levels[t - w].items():
                q += key
                code = code << width | n - i
                if get(q, 0) < code:
                    level[q] = code
    return levels


def _fiber_relations(level: list[Entry], nformal: int) -> list[Polynomial]:
    """The new relations of one level, by pivot: members of a fiber (one
    product key) sharing a generator are joined, and the least formal keys
    f_1 > ... > f_k of its components give x^f_j - (r_j/r_k)*x^f_k, j < k,
    r the products' coefficients."""
    first: dict[int, Entry] = {}
    fibers: dict[int, list[Entry]] = {}
    for entry in level:
        head = first.setdefault(entry[1], entry)
        if head is not entry:
            fibers.setdefault(entry[1], [head]).append(entry)
    rows: dict[int, Polynomial] = {}
    for members in fibers.values():
        if reduce(and_, [entry[4] for entry in members]):
            continue  # a generator common to all: one component
        parts: list[tuple[int, Entry]] = []  # (mask, least member), masks disjoint
        for entry in members:
            mask, least, kept = entry[4], entry, []
            for part in parts:
                if part[0] & mask:
                    mask, least = mask | part[0], min(least, part[1])
                else:
                    kept.append(part)
            parts = [*kept, (mask, least)]
        free = sorted(least for _, least in parts)
        fk, _, nk, dk, _ = free[0]
        for fj, _, nj, dj, _ in free[1:]:
            p, s = nj * dk, dj * nk  # r_j / r_k = p / s
            if s < 0:
                p, s = -p, -s
            rows[fj] = _make(nformal, {fj: s, fk: -p}, s)
    return [rows[f] for f in sorted(rows, reverse=True)]


def indecomposables(
    alg: LieAlgebra, k: int, previous: Sequence[Generator], invariant: Sequence[Polynomial]
) -> list[Polynomial]:
    """New degree-k generators: a complement of the span of products of
    earlier generators inside the degree-k invariants (invariant, the basis
    invariant_basis returns at degree k), chosen by graded-lex pivot
    positions.  When the earlier generators and the invariants are all
    single terms, the products span the monomials of their keys
    (_product_codes), so a monomial whose key is absent lies outside that
    span: it is indecomposable, and the pivot the elimination keeps."""
    inv = list(invariant)
    if not inv:
        return []
    lower = [g for g in previous if g.degree < k]
    terms = _single_terms(lower)
    if terms is not None and all(len(b.num) == 1 for b in inv):
        made = set(_product_codes([g.degree for g in lower], [t[0] for t in terms], k)[k])
        out = []
        for b in inv:
            (key,) = b.num
            if key not in made:
                made.add(key)
                out.append(b.monic())
        return out
    keys = sorted({key for b in inv for key in b.num}, reverse=True)
    index = {key: i for i, key in enumerate(keys)}
    # rows hold numerators: a row's scale changes neither the span nor,
    # after monic(), the generators read off it
    ech = linalg.Echelon()
    for _, prod in _generator_products(lower, k):
        for key in prod.num:
            if key not in index:
                # product of invariants must stay inside the invariant span;
                # widen the index in the unexpected case
                index[key] = len(keys)
                keys.append(key)
        ech.insert({index[key]: v for key, v in prod.num.items()})
    out = []
    for b in inv:
        red = ech.reduce({index[key]: v for key, v in b.num.items()})
        if not red:
            continue
        ech.insert(dict(red))
        out.append(_make(alg.dim, {keys[i]: v for i, v in red.items()}, 1).monic())
    return out


def default_degree_cap(alg: LieAlgebra) -> int:
    """Generation cap rank + 1: n for sl(n), the length of its longest cycle."""
    return alg.rank() + 1


def _new_generators(
    alg: LieAlgebra, sub: SubalgebraSpec, k: int, previous: Sequence[Generator]
) -> tuple[int, tuple[Polynomial, ...]]:
    """The degree-k kernel dimension and new generator polynomials."""
    inv = invariant_basis(alg, sub, k)
    return len(inv), tuple(indecomposables(alg, k, previous, inv))


def generate(
    alg: LieAlgebra,
    sub: SubalgebraSpec,
    max_degree: int | None = None,
    label_prefix: str = "q",
) -> GeneratorSet:
    """Indecomposable invariant generators through the degree cap, by
    default default_degree_cap(alg); the cap used is kept as max_degree.

    Records the kernel dimension at each degree; generator counts per degree
    never shrink when the cap grows (earlier degrees are unaffected).  So
    each degree's kernel dimension and new generator polynomials are kept
    with the algebra, and a later call for the same subalgebra computes
    only the degrees not reached before.
    """
    if max_degree is None:
        max_degree = default_degree_cap(alg)
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    # one walk lists the zero-weight keys of every degree through the cap
    _zero_weight_keys(alg, _invariance_operators(alg, sub).weights, max_degree)
    gens: list[Generator] = []
    kernel_dims: dict[int, int] = {}
    for k in range(1, max_degree + 1):
        kernel_dims[k], fresh = alg.derived(
            ("generators", sub.vectors, k), partial(_new_generators, alg, sub, k, gens)
        )
        for idx, poly in enumerate(fresh, start=1):
            label = f"{label_prefix}{k}_{idx}" if len(fresh) > 1 else f"{label_prefix}{k}"
            gens.append(Generator(poly=poly, degree=k, label=label))
    return GeneratorSet(alg, gens, sub, max_degree, kernel_dims)


# ---------------------------------------------------------------------------
# relations, membership, closure, center


class Relation(Record):
    """formal is a polynomial in one formal variable per generator."""

    _fields = ("weighted_degree", "formal")

    def render(self, gens: GeneratorSet) -> str:
        return render_polynomial(self.formal, gens.labels())


class RelationSet(Record):
    _fields = ("generator_labels", "weights", "max_degree", "relations")

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


def _require_homogeneous(gens: GeneratorSet) -> None:
    """ConfigurationError naming the first generator with a monomial whose
    degree is not the generator's degree."""
    for g in gens.generators:
        shift = W * g.poly.dim
        if any(key >> shift != g.degree for key in g.poly.num):
            raise ConfigurationError(
                f"generator {g.label!r} is not homogeneous of its degree {g.degree}")


def relation_basis(gens: GeneratorSet, max_total_degree: int) -> RelationSet:
    """Degreewise basis of the polynomial relations among the generators.

    After the degree-bound check, the Jacobian criterion is an exact
    certificate: gradients of the m generators of rank m at one integer
    point, a lower bound on their rank over Q(x), make them algebraically
    independent (Jacobi, in characteristic zero), and the list comes back
    empty with no columns, so COLUMN_BUDGET does not apply.

    Otherwise a relation of weighted degree d is a linear dependency among
    the expansions of the formal monomials of weighted degree d, whose count
    (_formal_counts) is checked against COLUMN_BUDGET before any product.
    Per degree, the kernel comes by elimination over the products (_kernel,
    each formal monomial scaled by its product's denominator), less the
    multiples of lower relations, in reduced echelon form over the formal
    monomials, ordered by (total degree, exponents) descending (_canonical).

    Single-term generators need no elimination (_fiber_relations; Diaconis
    and Sturmfels, Ann. Statist. 26, 1998; Charalambous, Katsabekis and
    Thoma, Proc. AMS 135, 2007): binomials within fibers, the formal
    monomials of one product key, span the kernel.  Members i*a and i*b are
    joined by a multiple, as lower relations span the kernel of the fiber of
    a and b; a multiple joins only members sharing its multiplier.  So the
    multiples span the hyperplane of each component of shared generators,
    pivots at all but its last member, and new relations join the last ones.
    Every generator must be homogeneous of its degree (_require_homogeneous).
    """
    _require_homogeneous(gens)
    weights = gens.degrees()
    if weights and max_total_degree < max(weights):
        raise ConfigurationError(f"weighted-degree budget {max_total_degree} is "
                                 f"below the largest generator degree {max(weights)}")
    nformal = len(gens.generators)
    found = RelationSet(gens.labels(), weights, max_total_degree, [])
    if generic_jacobian_rank(gens.polys(), gens.algebra.dim) == nformal:
        return found
    counts = _formal_counts(weights, max_total_degree)[0]
    for d in range(1, max_total_degree + 1):
        if counts[d] > COLUMN_BUDGET:
            msg = f"{counts[d]} formal monomials at weighted degree {d}"
            raise BudgetExceededError(msg, degree=d)
    relations = found.relations
    terms = _single_terms(gens.generators)
    if terms is not None:
        for d, level in _term_levels(weights, terms, max_total_degree):
            relations += [Relation(d, formal) for formal in _fiber_relations(level, nformal)]
        return found
    for d in range(1, max_total_degree + 1):
        if not counts[d]:
            continue
        cols = _formal_columns(weights, d)
        col_index = {key: i for i, key in enumerate(cols)}
        # a product's column scaled by its denominator maps to its numerators
        kernel = _kernel(({col_index[key]: prod.den}, prod.num)
                         for key, prod in _generator_products(gens.generators, d))
        if not kernel:
            continue
        old = linalg.Echelon()
        multipliers: dict[int, list[int]] = {}
        for rel in relations:
            shift = d - rel.weighted_degree
            if shift not in multipliers:
                multipliers[shift] = _formal_columns(weights, shift)
            for mult in multipliers[shift]:
                # a multiple's row is the relation's numerators, shifted
                old.insert({col_index[key + mult]: v for key, v in rel.formal.num.items()})
        fresh = []
        for vec in kernel:
            red = old.reduce(vec)
            if red:
                old.insert(dict(red))
                fresh.append(red)
        relations += [Relation(d, formal) for formal in _canonical(fresh, cols, nformal)]
    return found


class MembershipResult(Record):
    """status is found | not_invariant | not_found_up_to_budget.  expression
    is p in one formal variable per generator when found, else None; the
    single-term route passes its decoding step instead (_solve_by_factors),
    run on the first read, so a check that reads only the status decodes
    no formal key."""

    _fields = ("status", "expression")
    _defaults = {"expression": None}

    @property
    def expression(self) -> Polynomial | None:
        if isinstance(self._expression, partial):
            self._expression = self._expression()
        return self._expression

    @expression.setter
    def expression(self, value: Polynomial | partial | None) -> None:
        self._expression = value

    @property
    def found(self) -> bool:
        return self.status == "found"


def is_invariant(alg: LieAlgebra, sub: SubalgebraSpec, p: Polynomial) -> bool:
    """Whether every operator of the subalgebra annihilates p.  A diagonal
    field multiplies each monomial by its weight, so the diagonal fields all
    annihilate p exactly when every monomial of p has weight zero: one pass
    over the monomials against the weights.  Then the fields invariant_basis
    applies."""
    ops = _invariance_operators(alg, sub)
    if any(ops.weights):
        if p.dim != alg.dim:
            raise ValueError("vector field dimension does not match the polynomial")
        codes = _weight_codes(ops.weights, p.degree or 0)
        for key in p.num:
            if sum(e * codes[v] for v, e in unpack(key, p.dim)):
                return False
    return all(field(p).is_zero() for _, field in ops.others)


def membership(p: Polynomial, gens: GeneratorSet, max_total_degree: int) -> MembershipResult:
    """Express p as a polynomial in the generators, weighted degree capped.

    The result is an expression in one formal variable per generator, or a
    'not found up to the budget' verdict (which is not a disproof), from one
    solve over the generator products of every degree p has
    (_solve_by_products) or, for single-term generators, term by term
    (_solve_by_factors), with the same result: products of different
    degrees have disjoint supports, so it sums the per-degree solves.
    That needs every generator homogeneous of its degree
    (_require_homogeneous).
    """
    _require_homogeneous(gens)
    deg = p.degree
    if deg is not None and deg > max_total_degree:
        return MembershipResult("not_found_up_to_budget")
    sub = gens.subalgebra
    if sub is not None and not is_invariant(gens.algebra, sub, p):
        return MembershipResult("not_invariant")
    terms = _single_terms(gens.generators)
    expression = (_solve_by_products(gens.generators, p) if terms is None
                  else _solve_by_factors(gens.degrees(), terms, p))
    if expression is None:
        return MembershipResult("not_found_up_to_budget")
    return MembershipResult("found", expression)


def _solve_by_products(gens: Sequence[Generator], p: Polynomial) -> Polynomial | None:
    """p as a sum of generator products, one formal variable per generator,
    from one _kernel over the products of every weighted degree p has (the
    empty product 1 at degree 0) in column order and p last; None when
    there is no solution.

    Vector i is prod.den at i, its image the product's numerators, and p's
    is its den at n, so a kernel vector v nonzero at n gives p as
    sum(-v[i] / v[n] * product i).  Column n is free exactly when p lies in
    the products' span, and then one kernel vector is nonzero at n:
    nullspace's vector of that free column, zero at every other free
    column, so every product dependent on the products before it gets
    coefficient zero.  The map is block-diagonal by degree (disjoint
    supports), so its free columns and v are those of the per-degree
    solves."""
    shift = W * p.dim
    one = Polynomial.one(p.dim)
    # the products in column order, graded-lex descending by formal key
    products = sorted(
        ((key, one if prod is None else prod)
         for d in {key >> shift for key in p.num}
         for key, prod in _generator_products(gens, d)),
        key=itemgetter(0), reverse=True)
    n = len(products)
    pairs = [({i: prod.den}, prod.num) for i, (_, prod) in enumerate(products)]
    pairs.append(({n: p.den}, p.num))
    v = next((v for v in _kernel(pairs) if n in v), None)
    if v is None:
        return None
    sign = -1 if v[n] > 0 else 1
    return _make(len(gens), {
        products[i][0]: sign * a for i, a in v.items() if i != n
    }, abs(v[n]))


def _solve_by_factors(
    weights: Sequence[int], terms: Sequence[Term], p: Polynomial
) -> partial | None:
    """_solve_by_products for single-term generators, with no product and no
    solve: each term of p goes to the formal monomial of greatest key among
    those of its monomial, coded in the _product_codes level of its degree
    (level 0 has the empty product); None when some term has none, else the
    step that decodes the codes (_decode_factors), not yet run.  The solve's
    columns go by descending formal key, and the products of one monomial
    are multiples of each other, so the first, of greatest formal key, is
    the pivot; degrees share no product, as in the solve."""
    shift = W * p.dim
    levels = _product_codes(weights, [key for key, _, _ in terms], p.degree or 0)
    codes = [levels[key >> shift].get(key) for key in p.num]
    if None in codes:
        return None
    return partial(_decode_factors, terms, p, codes)


def _decode_factors(terms: Sequence[Term], p: Polynomial, codes: list[int]) -> Polynomial:
    """p in the formal variables, codes[j] coding the formal monomial of the
    j-th term of p."""
    n = len(terms)
    width = n.bit_length()
    fkeys = variable_keys(n)
    best = {}  # product key -> (formal key, numerator, denominator)
    for key, code in zip(p.num, codes):
        formal, num, den = 0, 1, 1
        while code:
            i = n - (code & (1 << width) - 1)
            code >>= width
            formal += fkeys[i]
            num *= terms[i][1]
            den *= terms[i][2]
        best[key] = formal, num, den
    scale = lcm(*(num for _, num, _ in best.values()))
    return _make(n, {
        formal: p.num[key] * den * (scale // num)
        for key, (formal, num, den) in best.items()
    }, p.den * scale)


class ClosureEntry(Record):
    """status is membership's status, None for a zero bracket."""

    _fields = ("left", "right", "bracket_is_zero", "closed", "expression", "status")


class ClosureReport(Record):
    _fields = ("entries",)

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
                    "status": e.status,
                }
                for e in self.entries
            ],
        }


def bracket_closure_check(gens: GeneratorSet) -> ClosureReport:
    """Whether the generator brackets land back in the generated subalgebra.

    Each pairwise bracket of degrees (a, b) is searched for at weighted
    degree a + b - 1, the degree the bracket actually has, and keeps
    membership's status.  A bracket of two invariants is invariant (Jacobi),
    so for a generated set only not_invariant disproves closure; a bracket
    not_found_up_to_budget may need generators above the set's cap.
    """
    pairs = list(combinations_with_replacement(gens.generators, 2))
    values = brackets(((gi.poly, gj.poly) for gi, gj in pairs), gens.algebra)
    entries = []
    for (gi, gj), br in zip(pairs, values):
        if br.is_zero():
            entries.append(ClosureEntry(gi.label, gj.label, True, True, None, None))
            continue
        result = membership(br, gens, gi.degree + gj.degree - 1)
        text = render_polynomial(result.expression, gens.labels()) if result.found else None
        entries.append(
            ClosureEntry(gi.label, gj.label, False, result.found, text, result.status))
    return ClosureReport(entries)


def poisson_center_basis(
    alg: LieAlgebra,
    sub: SubalgebraSpec,
    gens: GeneratorSet,
    k: int,
) -> list[Polynomial]:
    """Degree-k invariants whose bracket with every generator vanishes: the
    invariant rows of _invariant_rows, cut by one _kernel per generator."""
    keys, rows = _invariant_rows(alg, sub, k)
    if rows is None:
        rows = [{c: 1} for c in range(len(keys))]
    for g in gens.generators:
        if not rows:
            break
        # {p, g} = -{g, p}: the same kernel as p -> X_g(p)
        rows = _kernel(_field_images(rows, keys, VectorField(hamiltonian_field(g.poly, alg))))
    return _canonical(rows, keys, alg.dim)

