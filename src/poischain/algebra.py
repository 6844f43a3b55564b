"""Lie algebras presented by exact structure constants.

A LieAlgebra stores sparse structure constants C_ijk (only i < j, nonzero;
ints as they are, other rationals as Fractions) with basis labels and an
optional flagged Cartan subalgebra.  Coordinates x_1..x_n live on the dual
space; polynomials on the algebra itself are moved to dual coordinates
through a fixed invariant bilinear form (Killing by default).  A
SubalgebraSpec keeps each spanning vector as integers, a rational one
scaled once by the lcm of its denominators: a subalgebra is its span, so
the scale moves no operator, rank or verdict.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

from . import linalg
from .poly import Polynomial, _from_fractions, _json_int, _json_list, _make, as_fraction
from .poly import as_point, variable_keys
from .sampling import DEFAULT_SEED, generic_rank

Vector = tuple[int, ...]
T = TypeVar("T")


class ConfigurationError(ValueError):
    """Invalid input: data an operation cannot work with, or work over a
    stated budget.  The command line prints one error line and exits 3."""


class Record:
    """A plain value class: the constructor binds positional, then keyword
    arguments to the attributes named in _fields, in order, and fills the
    missing ones from _defaults (a fresh copy of a dict or list default per
    instance); instances of one class are equal when those attributes are,
    and repr shows them in that order.  Defining __eq__ leaves records
    unhashable; the three that no caller changes after __init__
    (commutant.Generator and _Operators, cycles.CycleMonomial) set
    __hash__ = Record._hash."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args, **kwargs) -> None:
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} arguments, got {len(args)}")
        for field, value in zip(fields, args):
            setattr(self, field, value)
        for field in fields[len(args):]:
            if field in kwargs:
                value = kwargs.pop(field)
            elif field in self._defaults:
                value = self._defaults[field]
                if isinstance(value, (dict, list)):
                    value = value.copy()
            else:
                raise TypeError(f"{name} missing argument {field!r}")
            setattr(self, field, value)
        if kwargs:  # a name not in _fields, or one already given by position
            raise TypeError(f"{name} got unknown or repeated arguments {sorted(kwargs)}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def _hash(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class LieAlgebra:
    """Equal only to itself (and hashed by identity), as the data derived
    from its structure constants is kept with the instance."""

    def __init__(
        self,
        name: str,
        dim: int,
        labels: tuple[str, ...],
        structure: dict[tuple[int, int, int], int | Fraction],
        cartan_indices: tuple[int, ...] | None = None,
    ) -> None:
        self.name = name
        self.dim = dim
        self.labels = tuple(labels)
        if len(self.labels) != dim:
            raise ValueError("label count does not match dimension")
        if len(set(self.labels)) != dim:
            raise ValueError("duplicate basis labels")
        clean: dict[tuple[int, int, int], int | Fraction] = {}
        for (i, j, k), c in structure.items():
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"structure index out of range: {(i, j, k)}")
            if i >= j:
                raise ValueError(
                    f"structure constants must be stored with i < j: {(i, j, k)}"
                )
            c = c if type(c) is int else as_fraction(c)
            if c:
                clean[(i, j, k)] = c
        self.structure = clean
        if cartan_indices is not None:
            cartan_indices = tuple(cartan_indices)
            if any(not 0 <= i < dim for i in cartan_indices):
                raise ValueError("Cartan index out of range")
            if len(set(cartan_indices)) != len(cartan_indices):
                raise ValueError("duplicate Cartan indices")
        self.cartan_indices = cartan_indices
        self._derived: dict[Hashable, object] = {}

    # -- structure access ---------------------------------------------------

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """build(), called on the first request for this key and kept with
        the algebra: data derived from the structure constants, such as
        bracket_rows or the invariance operators of a subalgebra.  Callers
        must not mutate the value; commutant._zero_weight_keys alone
        deepens its own in place."""
        try:
            return self._derived[key]  # type: ignore[return-value]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def bracket_rows(self) -> tuple[list[dict[int, dict[int, int]]], int]:
        """The structure constants as integers over one common denominator d:
        rows[i] maps every j with [X_i, X_j] != 0 to {k: d * C_ijk}
        (antisymmetry applied).  Indexed once; callers must not mutate it."""
        return self.derived("bracket_rows", self._index_brackets)

    def _index_brackets(self) -> tuple[list[dict[int, dict[int, int]]], int]:
        den = lcm(*(c.denominator for c in self.structure.values()))
        rows: list[dict[int, dict[int, int]]] = [{} for _ in range(self.dim)]
        for (i, j, k), c in self.structure.items():
            num = c.numerator * (den // c.denominator)
            rows[i].setdefault(j, {})[k] = num
            rows[j].setdefault(i, {})[k] = -num
        return rows, den

    def bracket_coeffs(self, i: int, j: int) -> dict[int, Fraction]:
        """Coefficients of [X_i, X_j] in the basis, antisymmetry applied."""
        rows, den = self.bracket_rows()
        return {k: Fraction(c, den) for k, c in rows[i].get(j, {}).items()}

    def bracket_row(self, u: linalg.Row, v: linalg.Row) -> linalg.Row:
        """[u, v] for integer coordinate rows u, v, times the structure
        denominator: the same zero test and span as the bracket itself."""
        rows, _ = self.bracket_rows()
        out: dict[int, int] = {}
        for i, a in u.items():
            row = rows[i]
            for j, b in v.items():
                for k, c in row.get(j, {}).items():
                    out[k] = out.get(k, 0) + a * b * c
        return {k: x for k, x in out.items() if x}

    def linear_form(self, vec: Sequence) -> Polynomial:
        """The linear coordinate function of a basis-coordinate vector."""
        coeffs = [v if type(v) is int else as_fraction(v) for v in vec]
        if len(coeffs) > self.dim:
            raise ValueError("variable index out of range")
        return _from_fractions(self.dim, dict(zip(variable_keys(self.dim), coeffs)))

    def rank(self, seed: int = DEFAULT_SEED) -> int:
        """Rank: the flagged Cartan dimension, else dim minus the generic
        rank of the commutator rows (the orbit dimension of the full
        algebra).  That rank is a lower bound on the generic one, so without
        a flagged Cartan the result is an upper bound on the rank (sampling
        gives the chance it is high).  The sampled rank is kept per seed."""
        if self.cartan_indices is not None:
            return len(self.cartan_indices)
        return self.derived(
            ("rank", seed),
            lambda: self.dim - orbit_dimension(self, full_subalgebra(self), seed),
        )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        entries = [
            {"i": i, "j": j, "k": k, "c": str(c)}
            for (i, j, k), c in sorted(self.structure.items())
        ]
        out = {
            "name": self.name,
            "dim": self.dim,
            "labels": list(self.labels),
            "structure": entries,
        }
        if self.cartan_indices is not None:
            out["cartan_indices"] = list(self.cartan_indices)
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "LieAlgebra":
        dim = _json_int(data["dim"], "dim")
        labels = data.get("labels") or [f"x{i + 1}" for i in range(dim)]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ValueError(f"labels must be a list of strings, got {labels!r}")
        structure: dict[tuple[int, int, int], object] = {}
        for entry in _json_list(data.get("structure", []), "structure"):
            key = tuple(_json_int(entry[a], f"structure index {a}") for a in "ijk")
            if key in structure:
                raise ValueError(f"duplicate structure entry for {key}")
            structure[key] = entry["c"]
        cartan = data.get("cartan_indices")
        if cartan is not None:
            cartan = [_json_int(i, "Cartan index") for i in _json_list(cartan, "cartan_indices")]
        return cls(str(data.get("name", "algebra")), dim, labels, structure, cartan)


def vector_row(vec: Vector) -> linalg.Row:
    """An integer coordinate vector as a sparse row."""
    return {i: v for i, v in enumerate(vec) if v}


def _integer_vector(vec: Iterable) -> Vector:
    """The vector times the lcm of its entries' denominators."""
    entries = [v if type(v) is int else as_fraction(v) for v in vec]
    scale = lcm(*(v.denominator for v in entries))
    return tuple(v.numerator * (scale // v.denominator) for v in entries)


# ---------------------------------------------------------------------------
# validation


class CheckResult(Record):
    _fields = ("name", "passed", "detail", "witness")
    _defaults = {"detail": "", "witness": None}


class ValidationReport(Record):
    _fields = ("algebra", "checks")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "detail": c.detail,
                    "witness": list(c.witness) if c.witness else None,
                }
                for c in self.checks
            ],
        }


def validate_algebra(alg: LieAlgebra) -> ValidationReport:
    """Antisymmetry (by storage convention), the Jacobi identity checked on
    every basis triple, and nondegeneracy of the Killing form."""
    checks = [CheckResult("antisymmetry", True,
                          "structure stored for i < j only; [X_i, X_i] = 0 by convention")]
    witness = _jacobi_witness(alg)
    if witness is None:
        jacobi = CheckResult("jacobi", True, "holds on all basis triples")
    else:
        jacobi = CheckResult("jacobi", False, "Jacobi identity fails", witness)
    checks.append(jacobi)

    killing = killing_form(alg)
    det = Fraction(linalg.det_exact(killing.rows), killing.den**alg.dim)
    checks.append(CheckResult("killing_nondegenerate", det != 0, f"det(Killing) = {det}"))
    return ValidationReport(alg.name, checks)


def _jacobi_witness(alg: LieAlgebra) -> tuple[str, str, str, str] | None:
    """Labels of the first basis triple i < j < k on which the Jacobi sum
    [X_i, [X_j, X_k]] + [X_j, [X_k, X_i]] + [X_k, [X_i, X_j]] is nonzero,
    followed by its smallest nonzero coordinate; None if there is none.
    Summed in the integer structure constants (scaled by the denominator
    squared, which does not move a zero); a term whose inner bracket or
    outer row is zero adds nothing and is skipped."""
    rows, _ = alg.bracket_rows()
    labels = alg.labels
    for i, row_i in enumerate(rows):
        for j in range(i + 1, alg.dim):
            row_j = rows[j]
            ij = row_i.get(j)
            for k in range(j + 1, alg.dim):
                row_k = rows[k]
                jk, ki = row_j.get(k), row_k.get(i)
                if not (ij or jk or ki):
                    continue
                total: dict[int, int] = {}
                for row, inner in ((row_i, jk), (row_j, ki), (row_k, ij)):
                    if inner:
                        for m, x in inner.items():
                            out = row.get(m)
                            if out:
                                for l, y in out.items():
                                    total[l] = total.get(l, 0) + x * y
                if any(total.values()):
                    bad = min(l for l, v in total.items() if v)
                    return (labels[i], labels[j], labels[k], labels[bad])
    return None


# ---------------------------------------------------------------------------
# bilinear forms


class BilinearForm(Record):
    """B(X_i, X_j) = rows[i].get(j, 0) / den, in sparse integer rows."""

    _fields = ("rows", "den")
    _defaults = {"den": 1}

    @cached_property
    def inverse(self) -> list[tuple[linalg.Row, int]]:
        """Row j of B^-1 as (integer entries, positive denominator)."""
        try:
            inverse = linalg.matrix_inverse(self.rows)
        except ValueError:
            raise ConfigurationError("the Killing form is degenerate "
                                     "(the algebra is not semisimple)") from None
        return [({i: self.den * v for i, v in row.items()}, d) for row, d in inverse]


def killing_form(alg: LieAlgebra) -> BilinearForm:
    """B(X, Y) = trace(ad X . ad Y), computed exactly from the structure constants
    and kept with the algebra: B(X_i, X_j) = sum over a, b of C_iab C_jba, with
    the nonzero C_iab grouped by (a, b) so that each group meets only its
    (b, a) partner, summed in bracket_rows' integers over den^2."""

    def build() -> BilinearForm:
        rows, den = alg.bracket_rows()
        groups: dict[tuple[int, int], dict[int, int]] = {}
        for i, row in enumerate(rows):
            for a, outs in row.items():
                for b, c in outs.items():
                    groups.setdefault((a, b), {})[i] = c
        totals: list[dict[int, int]] = [{} for _ in range(alg.dim)]
        for (a, b), left in groups.items():
            right = groups.get((b, a), {})
            for i, c in left.items():
                total = totals[i]
                for j, c2 in right.items():
                    total[j] = total.get(j, 0) + c * c2
        nonzero = tuple({j: t for j, t in row.items() if t} for row in totals)
        return BilinearForm(nonzero, den * den)

    return alg.derived("killing", build)


def _linear_forms(dim: int, rows: Iterable[tuple[linalg.Row, int]]) -> list[Polynomial]:
    """The linear coordinate function of each (integer row, denominator)."""
    keys = variable_keys(dim)
    return [_make(dim, {keys[i]: v for i, v in row.items()}, d) for row, d in rows]


# ---------------------------------------------------------------------------
# special linear family


def _sl_labels(n: int, separator: str) -> list[str]:
    """h1..h(n-1), then e<i><separator><j> for the matrix units row by row."""
    return [f"h{i}" for i in range(1, n)] + [
        f"e{i}{separator}{j}"
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]


SparseMatrix = dict[tuple[int, int], int]


def _sl_matrix_basis(n: int) -> tuple[list[SparseMatrix], list[str]]:
    """The h/e basis matrices of sl(n), as sparse {(row, col): entry} maps
    with 0-based indices, and their labels.  From n = 10 on the two indices
    of e_ij are separated by "_" (e1_11, not the ambiguous e111), as in the
    cycle labels."""
    mats: list[SparseMatrix] = [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]
    mats += [{(i, j): 1} for i in range(n) for j in range(n) if i != j]
    return mats, _sl_labels(n, "_" if n >= 10 else "")


def _sl_matrix_coords(m: SparseMatrix, n: int) -> dict[int, int]:
    """Nonzero coordinates, in ascending index order, of a traceless sparse
    matrix in the h/e basis built above: h_i carries the running sum of the
    first i diagonal entries, and e_ij the (i, j) entry."""
    coords: dict[int, int] = {}
    diagonal = {r: v for (r, c), v in m.items() if r == c}
    running = 0
    for i in range(min(diagonal, default=n - 1), n - 1):
        running += diagonal.get(i, 0)
        if running:
            coords[i] = running
    for (r, c), v in sorted(m.items()):
        if r != c and v:
            coords[n - 1 + r * (n - 1) + (c if c < r else c - 1)] = v
    return coords


def builtin_sl(n: int) -> LieAlgebra:
    """sl(n) in the basis h_i = E_ii - E_(i+1)(i+1), followed by the E_ij row
    by row; the h block is the flagged Cartan subalgebra.  Every basis matrix
    has at most two entries, so each commutator takes a constant number of
    products."""
    if n < 2:
        raise ConfigurationError("sl(n) needs n >= 2")
    mats, labels = _sl_matrix_basis(n)
    dim = n * n - 1
    structure: dict[tuple[int, int, int], Fraction] = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            comm: SparseMatrix = {}
            for left, right, sign in ((mats[a], mats[b], 1), (mats[b], mats[a], -1)):
                for (r, t), x in left.items():
                    for (t2, c), y in right.items():
                        if t == t2:
                            comm[(r, c)] = comm.get((r, c), 0) + sign * x * y
            for k, c in _sl_matrix_coords(comm, n).items():
                structure[(a, b, k)] = c
    alg = LieAlgebra(
        name=f"sl{n}",
        dim=dim,
        labels=tuple(labels),
        structure=structure,
        cartan_indices=tuple(range(n - 1)),
    )
    alg.derived("sl size", lambda: n)
    return alg


def sl_size(alg: LieAlgebra) -> int | None:
    """n if the algebra is sl(n) in the built-in layout, else None: the
    labels may take either form, e12 or e1_2, and the structure constants
    must be those of builtin_sl(n).  Decided once per algebra."""

    def match() -> int | None:
        if alg.cartan_indices is None:
            return None
        n = len(alg.cartan_indices) + 1
        forms = (tuple(_sl_labels(n, "")), tuple(_sl_labels(n, "_")))
        if alg.dim != n * n - 1 or alg.labels not in forms:
            return None
        return n if alg.structure == builtin_sl(n).structure else None

    return alg.derived("sl size", match)


def sl_flip(alg: LieAlgebra) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The diagram flip tau(X) = -J X^T J of an sl(n) in the built-in
    layout (sl_size), J the antidiagonal permutation matrix, as a signed
    permutation of the coordinates: tau(x_v) = sign[v] * x_perm[v], so
    h_i -> h_(n-i) and e_ij -> -e_(n+1-j)(n+1-i).  None for other algebras."""
    n = sl_size(alg)
    if n is None:
        return None

    def build() -> tuple[tuple[int, ...], tuple[int, ...]]:
        perm, sign = [], []
        for m in _sl_matrix_basis(n)[0]:
            # tau maps the (r, c) entry x to -x at (n-1-c, n-1-r)
            [(v, s)] = _sl_matrix_coords(
                {(n - 1 - c, n - 1 - r): -x for (r, c), x in m.items()}, n
            ).items()
            if abs(s) != 1:
                raise ValueError(f"flip image {s} * x_{v} is not a signed coordinate")
            perm.append(v)
            sign.append(s)
        return tuple(perm), tuple(sign)

    return alg.derived("sl flip", build)


def direct_sum(a: LieAlgebra, b: LieAlgebra, name: str | None = None) -> LieAlgebra:
    labels = tuple(f"{lab}.1" for lab in a.labels) + tuple(
        f"{lab}.2" for lab in b.labels
    )
    structure = dict(a.structure)
    off = a.dim
    for (i, j, k), c in b.structure.items():
        structure[(i + off, j + off, k + off)] = c
    cartan = None
    if a.cartan_indices is not None and b.cartan_indices is not None:
        cartan = tuple(a.cartan_indices) + tuple(i + off for i in b.cartan_indices)
    return LieAlgebra(
        name=name or f"{a.name}+{b.name}",
        dim=a.dim + b.dim,
        labels=labels,
        structure=structure,
        cartan_indices=cartan,
    )


# ---------------------------------------------------------------------------
# subalgebras


class SubalgebraSpec(Record):
    """A Lie subalgebra given by integer spanning vectors, with declared flags."""

    _fields = ("vectors", "abelian", "name")

    def __init__(
        self, vectors: tuple[Vector, ...], abelian: bool = False, name: str = "subalgebra"
    ) -> None:
        self.vectors = tuple(_integer_vector(vec) for vec in vectors)
        self.abelian = abelian
        self.name = name

    @property
    def size(self) -> int:
        return len(self.vectors)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "vectors": [[str(v) for v in vec] for vec in self.vectors],
            "abelian": self.abelian,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "SubalgebraSpec":
        abelian = data.get("abelian", False)
        if not isinstance(abelian, bool):
            raise ValueError(f"abelian must be a boolean, got {abelian!r}")
        vectors = [_json_list(vec, "vector") for vec in _json_list(data["vectors"], "vectors")]
        return cls(vectors, abelian, str(data.get("name", "subalgebra")))


def cartan_subalgebra(alg: LieAlgebra) -> SubalgebraSpec:
    if alg.cartan_indices is None:
        raise ConfigurationError(f"{alg.name} has no flagged Cartan subalgebra")
    vectors = [[int(i == c) for i in range(alg.dim)] for c in alg.cartan_indices]
    return SubalgebraSpec(vectors, abelian=True, name="cartan")


def full_subalgebra(alg: LieAlgebra) -> SubalgebraSpec:
    vectors = [[int(i == c) for i in range(alg.dim)] for c in range(alg.dim)]
    return SubalgebraSpec(vectors, name="full")


def span_subalgebra(
    vectors: Iterable[Sequence],
    abelian: bool = False,
    name: str = "span",
) -> SubalgebraSpec:
    return SubalgebraSpec(vectors, abelian=abelian, name=name)


def validate_subalgebra(alg: LieAlgebra, sub: SubalgebraSpec) -> ValidationReport:
    """Linear independence, bracket closure, and the declared abelian flag."""
    checks = []
    for vec in sub.vectors:
        if len(vec) != alg.dim:
            raise ValueError("subalgebra vector dimension mismatch")

    rows = [vector_row(vec) for vec in sub.vectors]
    span = linalg.Echelon(rows)
    independent = len(span) == sub.size
    checks.append(
        CheckResult("independent", independent, f"{sub.size} spanning vectors")
    )

    closed = CheckResult("closed", True, "bracket closed in the span")
    abelian_check = CheckResult("abelian", True, "all brackets vanish")
    for i in range(sub.size):
        for j in range(i + 1, sub.size):
            br = alg.bracket_row(rows[i], rows[j])
            if br:
                if sub.abelian and abelian_check.passed:
                    abelian_check = CheckResult(
                        "abelian", False, "nonzero bracket", (i, j)
                    )
                if closed.passed and span.reduce(br):
                    closed = CheckResult(
                        "closed", False, "bracket leaves the span", (i, j)
                    )
    checks.append(closed)
    if sub.abelian:
        checks.append(abelian_check)
    return ValidationReport(f"{alg.name}:{sub.name}", checks)


# ---------------------------------------------------------------------------
# geometry on the dual space


def commutator_rows(alg: LieAlgebra, point: Sequence[int]) -> list[linalg.Row]:
    """The matrix A_ij(x) = sum_k C_ijk x_k at an integer point, times the
    structure denominator, one sparse integer row per i."""
    rows, _ = alg.bracket_rows()
    out = []
    for row in rows:
        entries = {}
        for j, coeffs in row.items():
            v = sum(c * point[k] for k, c in coeffs.items())
            if v:
                entries[j] = v
        out.append(entries)
    return out


def orbit_dimension(
    alg: LieAlgebra, sub: SubalgebraSpec, seed: int = DEFAULT_SEED
) -> int:
    """Generic dimension of the subalgebra orbits on the dual space.

    At a point the rows are the infinitesimal motions of the coordinates
    under the spanning vectors, v . A(x) for each vector v; the generic rank
    of those rows is reported (a certified lower bound, generically exact).
    """
    vectors = [vector_row(vec) for vec in sub.vectors]

    def rows_at(point: Sequence[int]) -> list[linalg.Row]:
        a = commutator_rows(alg, point)
        out = []
        for vec in vectors:
            row: dict[int, int] = {}
            for i, c in vec.items():
                for k, v in a[i].items():
                    row[k] = row.get(k, 0) + c * v
            out.append({k: v for k, v in row.items() if v})
        return out

    return generic_rank(rows_at, len(vectors), alg.dim, seed)


def is_regular(
    alg: LieAlgebra, point: Sequence[Fraction], seed: int = DEFAULT_SEED
) -> bool:
    """True when the stabilizer of the point has the minimal (rank)
    dimension: the commutator rows at the point, scaled to integers, have
    rank dim minus the rank of the algebra."""
    ints = _integer_vector(as_point(point, alg.dim))
    return linalg.rank_of_rows(commutator_rows(alg, ints)) == alg.dim - alg.rank(seed)


def in_centralizer(
    alg: LieAlgebra, sub: SubalgebraSpec, point: Sequence[Fraction]
) -> bool:
    """Whether the dual point, moved to the algebra by the Killing form,
    commutes with every spanning vector of the subalgebra."""
    pt = _integer_vector(as_point(point, alg.dim))
    inv = killing_form(alg).inverse
    scale = lcm(*(d for _, d in inv))
    z = {j: s * (scale // d) for j, (row, d) in enumerate(inv)
         if (s := sum(v * pt[i] for i, v in row.items()))}
    return not any(alg.bracket_row(vector_row(vec), z) for vec in sub.vectors)


def dual_transport(
    alg: LieAlgebra, form: BilinearForm, p: Polynomial
) -> Polynomial:
    """Move a polynomial in algebra-side coordinates to dual coordinates.

    The substitution is coordinate_i -> (B^-1 x)_i, so that evaluating the
    result at a dual point equals evaluating p at the algebra element paired
    to it by the form.
    """
    if p.dim != alg.dim or len(form.rows) != alg.dim:
        raise ValueError("dimension mismatch in dual transport")
    return p.substitute_linear(_linear_forms(alg.dim, form.inverse))
