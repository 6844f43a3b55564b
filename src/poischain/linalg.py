"""Fraction-free sparse linear algebra over exact integers.

Rows are sparse dicts mapping column index to a nonzero integer.  Elimination
combines rows by cross multiplication and re-extracts integer content, so the
whole pipeline stays in arbitrary-precision integers: every routine here
takes integer rows, and nullspace, canonical_rref and matrix_inverse return
them (an inverse row over its own pivot) and det_exact an integer.
Fraction appears only at the edge: row_from_rationals reads rational input.

Echelon is the one elimination core: rank_of_rows, nullspace,
canonical_rref and matrix_inverse all insert rows into it, and a linear
solve is a nullspace with the target as the last column
(commutant._solve_by_products).  A rank takes integer rows only: the
sampled ranks evaluate theirs at integer points (sampling.generic_rank) and
algebra.is_regular scales its point to integers, so no rational matrix is
built for a rank.  Only det_exact eliminates on its own: Echelon keeps its
rows primitive, which drops the row scales a determinant needs.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Row = dict[int, int]


def row_from_rationals(entries: Mapping[int, Fraction]) -> Row:
    """Scale a rational sparse vector to a primitive integer row."""
    entries = {c: Fraction(v) for c, v in entries.items() if v}
    scale = lcm(*(v.denominator for v in entries.values()))
    row = {c: v.numerator * (scale // v.denominator) for c, v in entries.items()}
    make_primitive(row)
    return row


def make_primitive(row: Row) -> None:
    """Divide out the integer content in place; anchor sign at the least
    column."""
    if not row:
        return
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g


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
        for k in target:
            target[k] *= a
    for k, v in source.items():
        nv = target.get(k, 0) - b * v
        if nv:
            target[k] = nv
        else:
            target.pop(k, None)
    make_primitive(target)


class Echelon:
    """Echelon basis of a row space, filled by forward insertion.

    Every stored row is primitive and owns a distinct pivot column, its
    least column.  insert reduces a row against the stored pivots and
    stores it without touching the other rows, so a batch of inserts pays
    only for its own reductions.  One backward pass, run when the rows are
    next read through pivots, clears every pivot column from the other rows,
    which makes back substitution a single lookup.  The rows read are the
    same however inserts and reads interleave: primitive multiples of the
    reduced row echelon rows of the span.
    """

    def __init__(self, rows: Iterable[Row] = ()) -> None:
        self._rows: dict[int, Row] = {}
        self._reduced = True
        for row in rows:
            self.insert(row)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> dict[int, Row]:
        """Pivot column -> stored row, after the pending backward pass."""
        if not self._reduced:
            rows = self._rows
            # from the last pivot up: the rows below are already clear, so
            # no pivot column comes back into a row once it is cleared
            for piv in sorted(rows, reverse=True):
                row = rows[piv]
                for col in sorted(c for c in row if c != piv and c in rows):
                    _eliminate(row, rows[col], col)
            self._reduced = True
        return self._rows

    def reduce(self, row: Row) -> Row:
        """Return a copy of row reduced against every pivot.

        Pivot columns are cleared smallest first; a stored row has no entry
        left of its pivot, so an elimination only brings in larger columns,
        which join the queue when they are pivots.  The result does not
        depend on whether the backward pass has run: it is the one vector of
        row + span that vanishes on every pivot column, made primitive (or
        row itself when it meets no pivot).
        """
        r = dict(row)
        rows = self._rows
        queue = [c for c in r if c in rows]
        heapify(queue)
        while queue:
            col = heappop(queue)
            if col not in r:
                continue
            source = rows[col]
            for c in source:
                if c not in r and c in rows:
                    heappush(queue, c)
            _eliminate(r, source, col)
        return r

    def insert(self, row: Row) -> int | None:
        """Reduce a row forward and store it; returns its pivot column, or
        None if dependent."""
        r = self.reduce(row)
        if not r:
            return None
        piv = min(r)
        make_primitive(r)
        self._rows[piv] = r
        self._reduced = False
        return piv


def rank_of_rows(rows: Iterable[Row]) -> int:
    """The rank of integer rows: the one rank every sampled generic rank
    (sampling.generic_rank) and regularity test takes."""
    return len(Echelon(rows))


def nullspace(rows: Iterable[Row], ncols: int) -> list[Row]:
    """Kernel basis of the column action x -> (row . x for each row).

    The rows (columns in range(ncols)) go into an Echelon as one batch; once
    every column is a pivot the kernel is {0} and [] is returned at once,
    with no backward pass.  Otherwise there is one primitive row per free
    (non-pivot) column f, in ascending order of f: positive at f, zero at
    every other free column, its pivot entries read off the reduced rows.
    The basis depends only on the row space (not on the order, scaling or
    repetition of the rows), but it is not the reduced echelon basis of the
    kernel: pass it to canonical_rref for that.
    """
    ech = Echelon()
    for row in rows:
        if ech.insert(row) is not None and len(ech) == ncols:
            return []
    pivots = ech.pivots
    columns: dict[int, list[int]] = {f: [] for f in range(ncols) if f not in pivots}
    for pc in sorted(pivots):
        for f in pivots[pc]:
            if f in columns:
                columns[f].append(pc)
    out = []
    for f, pcs in columns.items():
        scale = lcm(*(pivots[pc][pc] for pc in pcs))
        vec = {f: scale} | {pc: -pivots[pc][f] * scale // pivots[pc][pc] for pc in pcs}
        g = gcd(*vec.values())
        out.append({c: v // g for c, v in vec.items()})
    return out


def canonical_rref(rows: Iterable[Row]) -> list[Row]:
    """The reduced echelon basis of the span of the rows, each row a primitive
    multiple of its reduced row echelon row.

    The rows go into an Echelon as one batch; after its backward pass its
    rows are fully reduced with leftmost positive pivots.  They are sorted
    by pivot, keys ascending.  The output depends only on the span.
    """
    pivots = Echelon(rows).pivots
    return [dict(sorted(row.items())) for _, row in sorted(pivots.items())]


def det_exact(rows: Sequence[Row]) -> int:
    """Exact determinant of a square matrix of integer rows by Bareiss
    elimination with row swaps, on a copy: each division by the previous
    pivot is exact."""
    n = len(rows)
    if any(not 0 <= c < n for row in rows for c in row):
        raise ValueError("determinant needs a square matrix")
    rows = [dict(row) for row in rows]
    sign = prev = 1
    for k in range(n):
        p = next((r for r in range(k, n) if k in rows[r]), None)
        if p is None:
            return 0
        if p != k:
            rows[k], rows[p], sign = rows[p], rows[k], -sign
        top = rows[k]
        pivot = top.pop(k)
        for i in range(k + 1, n):
            row = rows[i]
            a = row.pop(k, 0)
            if a or pivot != prev:  # otherwise the row stays as it is
                for j in row:
                    row[j] *= pivot
                if a:
                    for j, v in top.items():
                        row[j] = row.get(j, 0) - a * v
                rows[i] = {j: v // prev for j, v in row.items() if v}
        prev = pivot
    return sign * prev


def matrix_inverse(rows: Sequence[Row]) -> list[tuple[Row, int]]:
    """Exact inverse of a square matrix of integer rows; raises on singular
    input.  Row j of the inverse comes back as (integer entries, d > 0): the
    right half of row j of canonical_rref of [A | I] (the identity in columns
    n..2n-1) over its pivot d.  A is singular iff some row j of that basis
    has its pivot anywhere but column j."""
    n = len(rows)
    if any(not 0 <= c < n for row in rows for c in row):
        raise ValueError("inverse needs a square matrix")
    out = []
    for j, row in enumerate(canonical_rref(r | {n + i: 1} for i, r in enumerate(rows))):
        if min(row) != j:
            raise ValueError("matrix is singular")
        out.append(({c - n: v for c, v in row.items() if c >= n}, row[j]))
    return out
