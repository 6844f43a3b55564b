"""Fraction-free sparse linear algebra over exact integers.

Rows are sparse dicts mapping column index to a nonzero integer.  Elimination
combines rows by cross multiplication and re-extracts integer content, so the
whole pipeline stays in arbitrary-precision integers; rationals only appear
when a result is normalized for presentation.

Echelon is the one elimination core: rank, nullspace, canonical_rref and
express_in_rowspace all insert rows into it.  Only det_exact and
matrix_inverse, which work on small dense rational matrices, eliminate on
their own.

Column indices at or above TAG_BASE are bookkeeping tags carried through the
elimination (used to express a vector in a row space); they never become
pivots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

Row = dict[int, int]

TAG_BASE = 1 << 40


def row_from_rationals(entries: Mapping[int, Fraction]) -> Row:
    """Scale a rational sparse vector to a primitive integer row."""
    entries = {c: Fraction(v) for c, v in entries.items() if v}
    if not entries:
        return {}
    scale = 1
    for v in entries.values():
        scale = scale * v.denominator // gcd(scale, v.denominator)
    row = {c: int(v * scale) for c, v in entries.items()}
    _make_primitive(row)
    return row


def _make_primitive(row: Row) -> None:
    """Divide out the integer content in place; anchor sign at the least real column."""
    if not row:
        return
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        for k in row:
            row[k] //= g
    anchor = min((c for c in row if c < TAG_BASE), default=None)
    if anchor is None:
        anchor = min(row)
    if row[anchor] < 0:
        for k in row:
            row[k] = -row[k]


def _eliminate(target: Row, source: Row, col: int) -> None:
    """target := a*target - b*source so that target[col] vanishes (fraction free)."""
    a = source[col]
    b = target[col]
    g = gcd(a, b)
    a //= g
    b //= g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for k in list(target):
            target[k] *= a
    for k, v in source.items():
        nv = target.get(k, 0) - b * v
        if nv:
            target[k] = nv
        else:
            target.pop(k, None)
    _make_primitive(target)


class Echelon:
    """Incrementally maintained echelon basis of a row space.

    Every stored row is primitive, owns a distinct pivot column, and carries a
    zero in every other pivot column (they are kept mutually reduced), which
    makes back substitution a single lookup.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, Row] = {}
        self._touch: dict[int, set[int]] = {}

    def __len__(self) -> int:
        return len(self.pivots)

    def _register(self, pivcol: int, row: Row) -> None:
        for c in row:
            if c < TAG_BASE:
                self._touch.setdefault(c, set()).add(pivcol)

    def _unregister(self, pivcol: int, row: Row) -> None:
        for c in row:
            if c < TAG_BASE:
                cell = self._touch.get(c)
                if cell:
                    cell.discard(pivcol)

    def reduce(self, row: Row) -> Row:
        """Return a copy of row reduced against every pivot."""
        r = dict(row)
        for col in sorted(c for c in r if c < TAG_BASE):
            if col in r and col in self.pivots:
                _eliminate(r, self.pivots[col], col)
        return r

    def insert(self, row: Row) -> int | None:
        """Reduce and store a row; returns its pivot column, or None if dependent."""
        r = self.reduce(row)
        real = [c for c in r if c < TAG_BASE]
        if not real:
            return None
        piv = min(real)
        _make_primitive(r)
        for pc in list(self._touch.get(piv, ())):
            prow = self.pivots[pc]
            self._unregister(pc, prow)
            _eliminate(prow, r, piv)
            self._register(pc, prow)
        self.pivots[piv] = r
        self._register(piv, r)
        return piv

    def rows_touching(self, col: int) -> list[int]:
        return sorted(self._touch.get(col, ()))


def rank_of_rows(rows: Iterable[Row]) -> int:
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    return len(ech)


def rank_of_matrix(matrix: Sequence[Sequence[Fraction]]) -> int:
    rows = []
    for dense in matrix:
        rows.append(row_from_rationals({i: v for i, v in enumerate(dense) if v}))
    return rank_of_rows(rows)


def nullspace(rows: Iterable[Row], ncols: int) -> list[dict[int, Fraction]]:
    """Kernel basis of the column action x -> (row . x for each row).

    One vector per free (non-pivot) column f, in ascending order of f: it has
    coefficient one at f, zero at every other free column, and its pivot
    entries are read off the reduced echelon rows.  The basis depends only on
    the row space (not on the order, scaling or repetition of the rows), but
    it is not the reduced echelon basis of the kernel: pass it to
    canonical_rref for that.
    """
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    free = [c for c in range(ncols) if c not in ech.pivots]
    vectors: list[dict[int, Fraction]] = []
    for f in free:
        v: dict[int, Fraction] = {f: Fraction(1)}
        for pc in ech.rows_touching(f):
            prow = ech.pivots[pc]
            if f in prow:
                v[pc] = Fraction(-prow[f], prow[pc])
        vectors.append(v)
    return vectors


def canonical_rref(
    vectors: Iterable[Mapping[int, Fraction]],
) -> list[dict[int, Fraction]]:
    """The unique reduced row echelon basis of the span of the given vectors.

    The vectors go into an Echelon, whose rows are already fully reduced with
    leftmost pivots; each row is then scaled to pivot entry one and the rows
    are sorted by pivot column.  The output depends only on the spanned
    subspace.
    """
    ech = Echelon()
    for vec in vectors:
        ech.insert(row_from_rationals(vec))
    out = []
    for col, row in sorted(ech.pivots.items()):
        piv = row[col]
        out.append({c: Fraction(v, piv) for c, v in sorted(row.items())})
    return out


def express_in_rowspace(
    rows: Sequence[Row], target: Row
) -> list[Fraction] | None:
    """Coefficients c with sum(c_i * rows_i) == target, or None if unsolvable.

    When the rows are dependent a deterministic particular solution is
    returned (later dependent rows get coefficient zero).
    """
    ech = Echelon()
    tag_of: dict[int, int] = {}
    for i, row in enumerate(rows):
        tagged = dict(row)
        tag = TAG_BASE + 1 + i
        tagged[tag] = 1
        if ech.insert(tagged) is not None:
            tag_of[i] = tag
    goal = dict(target)
    goal[TAG_BASE] = 1
    red = ech.reduce(goal)
    if any(c < TAG_BASE for c in red):
        return None
    scale = red[TAG_BASE]
    coeffs = []
    for i in range(len(rows)):
        tag = TAG_BASE + 1 + i
        coeffs.append(Fraction(-red.get(tag, 0), scale))
    return coeffs


def det_exact(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant via rational Gaussian elimination with pivoting."""
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError("determinant needs a square matrix")
    m = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        piv = m[col][col]
        det *= piv
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] / piv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def matrix_inverse(
    matrix: Sequence[Sequence[Fraction]],
) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan; raises on singular input."""
    n = len(matrix)
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col]), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        piv = m[col][col]
        m[col] = [v / piv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [row[n:] for row in m]
