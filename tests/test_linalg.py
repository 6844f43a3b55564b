"""Exact sparse linear algebra: elimination, nullspaces, canonical bases."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poischain.linalg import (
    Echelon,
    canonical_rref,
    det_exact,
    matrix_inverse,
    nullspace,
    rank_of_rows,
    row_from_rationals,
)

from poischain import builtin_sl, direct_sum, killing_form
from poischain.commutant import _kernel

from helpers import (
    dense_form,
    dense_inverse,
    gauss_jordan_rows,
    rank_of_matrix,
    reference_det,
    tagged_inverse,
    tagged_solve,
)


def F(x, y=None):
    return Fraction(x) if y is None else Fraction(x, y)


def row(entries) -> dict:
    """Dense rational list -> primitive sparse integer row."""
    return row_from_rationals({j: Fraction(v) for j, v in enumerate(entries) if v})


def test_nullspace_of_known_matrix():
    # rows: x + y + z = 0, x - z = 0  ->  kernel spanned by (1, -2, 1).
    rows = [row([1, 1, 1]), row([1, 0, -1])]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    assert v == {0: F(1), 1: F(-2), 2: F(1)}


def test_nullspace_full_rank_is_empty():
    rows = [row([1, 0]), row([1, 1])]
    assert nullspace(rows, 2) == []


def test_nullspace_stops_at_full_rank():
    """A tall full-rank matrix has kernel {0}; nullspace returns [] as soon
    as every column is a pivot, without reading the remaining rows."""
    rng = random.Random(8)
    ncols = 6
    rows = [row([int(i == j) + rng.randint(0, 1) * (j > i) for j in range(ncols)])
            for i in range(ncols)]
    rows += [row([rng.randint(-3, 3) for _ in range(ncols)]) for _ in range(10)]
    assert nullspace(rows, ncols) == []

    def stream():
        yield from rows[:ncols]
        raise AssertionError("read past full rank")

    assert nullspace(stream(), ncols) == []


def _random_rows(rng, nrows, ncols, rank=None):
    """Random primitive rows with rational entries; rank-deficient when rank
    is given (later rows are combinations of the first rank ones)."""
    rows = []
    for i in range(nrows):
        if rank is not None and i >= rank:
            dense = [F(0)] * ncols
            for base in rows[:rank]:
                c = F(rng.randint(-2, 2), rng.randint(1, 3))
                for j, v in base.items():
                    dense[j] += c * v
        else:
            dense = [F(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < 0.6
                     else F(0) for _ in range(ncols)]
        rows.append(row_from_rationals({j: v for j, v in enumerate(dense) if v}))
    return rows


def test_batch_insertion_matches_one_row_gauss_jordan():
    """Forward-only insertion, after its deferred backward pass, stores the
    same pivots and the same reduced rows as one-row Gauss-Jordan, whatever
    the interleaving of inserts and reads; reduce gives the same result
    before and after the backward pass."""
    rng = random.Random(17)
    for trial in range(60):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 8)
        rank = rng.randint(0, min(nrows, ncols)) if trial % 2 else None
        rows = _random_rows(rng, nrows, ncols, rank)
        probe = _random_rows(rng, 1, ncols)[0]
        expected = gauss_jordan_rows(rows)
        batch = Echelon()
        for r in rows:
            batch.insert(r)
        assert len(batch) == len(expected)
        before = batch.reduce(probe)
        assert batch.pivots == expected
        assert batch.reduce(probe) == before
        mixed = Echelon()
        for i, r in enumerate(rows):
            mixed.insert(r)
            if i % 3 == 1:
                mixed.pivots  # run the backward pass mid-batch
        assert mixed.pivots == expected


def test_nullspace_vectors_annihilate_rows():
    rng = random.Random(3)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = [
            row([rng.randint(-3, 3) for _ in range(ncols)])
            for _ in range(nrows)
        ]
        basis = nullspace(rows, ncols)
        assert len(basis) == ncols - rank_of_rows(rows)
        for v in basis:
            for r in rows:
                dot = sum(F(c) * v.get(j, F(0)) for j, c in r.items())
                assert dot == 0


def test_nullspace_depends_only_on_the_row_space():
    """Shuffled, scaled or duplicated rows give the same kernel basis."""
    rng = random.Random(5)
    for _ in range(20):
        ncols = rng.randint(2, 7)
        rows = [
            row([rng.randint(-3, 3) for _ in range(ncols)])
            for _ in range(rng.randint(1, 5))
        ]
        base = nullspace(rows, ncols)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        scaled = [{c: -3 * v for c, v in r.items()} for r in shuffled]
        duplicated = rows + [dict(r) for r in rows[::2]]
        for variant in (shuffled, scaled, duplicated):
            assert nullspace(variant, ncols) == base


@settings(max_examples=50)
@given(st.integers(0, 10**6))
def test_nullspace_rows_are_primitive_and_depend_only_on_the_row_space(seed):
    """One primitive integer row per free column f, positive at f and zero at
    the other free columns, annihilating every row; shuffled, scaled or
    duplicated rows give the same basis."""
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
    rank = rng.randint(0, min(nrows, ncols)) if seed % 2 else None
    rows = _random_rows(rng, nrows, ncols, rank)
    basis = nullspace(rows, ncols)
    free = [f for f in range(ncols) if f not in gauss_jordan_rows(rows)]
    assert len(basis) == len(free)
    for f, v in zip(free, basis):
        assert gcd(*v.values()) == 1
        assert v[f] > 0
        assert not any(g in v for g in free if g != f)
        for r in rows:
            assert sum(c * v.get(j, 0) for j, c in r.items()) == 0
    shuffled = list(rows)
    rng.shuffle(shuffled)
    scaled = [{c: -3 * v for c, v in r.items()} for r in shuffled]
    duplicated = rows + [dict(r) for r in rows[::2]]
    for variant in (shuffled, scaled, duplicated):
        assert nullspace(variant, ncols) == basis


def _assert_reduced_rows(rows):
    """Primitive rows with a positive pivot, their least column, each pivot
    column cleared from the other rows, sorted by pivot, keys ascending."""
    pivots = [min(r) for r in rows]
    assert pivots == sorted(set(pivots))
    for r in rows:
        assert gcd(*r.values()) == 1
        assert r[min(r)] > 0
        assert list(r) == sorted(r)
        assert not any(p in r for p in pivots if p != min(r))


def test_canonical_rref_is_representation_independent():
    """Shuffling, scaling and mixing the spanning set leaves the output alone."""
    vectors = [
        row_from_rationals({0: F(1), 2: F(2)}),
        row_from_rationals({1: F(3), 2: F(-1)}),
    ]
    base = canonical_rref(vectors)
    mixed = [
        {k: 5 * v for k, v in vectors[1].items()},
        # vectors[0] + vectors[1]
        row_from_rationals({0: F(1), 1: F(3), 2: F(1)}),
    ]
    assert canonical_rref(mixed) == base
    # primitive rows keep their pivot entries: x2 - x3/3 is 3*x2 - x3
    assert base == [{0: 1, 2: 2}, {1: 3, 2: -1}]
    _assert_reduced_rows(base)


@settings(max_examples=50)
@given(st.integers(0, 10**6))
def test_canonical_rref_idempotent_and_invariant_under_shuffle(seed):
    rng = random.Random(seed)
    vecs = []
    for _ in range(rng.randint(1, 5)):
        vec = {j: F(rng.randint(-4, 4), rng.randint(1, 3)) for j in range(rng.randint(1, 5))}
        vec = {j: c for j, c in vec.items() if c}
        if vec:
            vecs.append(row_from_rationals(vec))
    first = canonical_rref(vecs)
    _assert_reduced_rows(first)
    assert canonical_rref(first) == first
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    scaled = [{j: 2 * c for j, c in v.items()} for v in shuffled]
    assert canonical_rref(scaled) == first


def test_kernel_with_the_target_last_matches_tagged_solve():
    """A solve as commutant._solve_by_products makes it: _kernel over the
    rows, row i as the vector d_i at i, and the target last, d at n.  On
    random systems with dependent rows, empty rows, non-primitive rows and
    targets inside and outside the row space, one kernel vector v is
    nonzero at n exactly when tagged_solve solves the system, and its
    coefficients -v[i] / d_i * d / v[n] are tagged_solve's."""
    rng = random.Random(23)
    scales = random.Random(29)  # the dens, drawn apart: the systems stay the same
    outcomes = set()
    for trial in range(300):
        nrows, ncols = rng.randint(0, 8), rng.randint(1, 7)
        rank = rng.randint(0, min(nrows, ncols)) if trial % 2 else None
        rows = _random_rows(rng, nrows, ncols, rank)
        for r in rows:
            if rng.random() < 0.2:
                r.clear()  # an empty row
            elif rng.random() < 0.2:
                for c in r:
                    r[c] *= rng.choice((-6, 2, 3))
        if trial % 3 == 0 or not rows:
            target = _random_rows(rng, 1, ncols)[0]
        else:  # a combination of the rows, so solvable
            target = {}
            for r in rows:
                k = rng.randint(-3, 3)
                for c, v in r.items():
                    target[c] = target.get(c, 0) + k * v
            target = {c: v for c, v in target.items() if v}
        n = len(rows)
        dens = [scales.randint(1, 6) for _ in range(n + 1)]
        pairs = [({i: d}, r) for i, (d, r) in enumerate(zip(dens, rows))]
        kernel = _kernel(pairs + [({n: dens[n]}, target)])
        hits = [v for v in kernel if n in v]
        want = tagged_solve(rows, target)
        outcomes.add(want is None)
        assert len(hits) == (want is not None)
        if want is None:
            continue
        (v,) = hits
        assert all(type(a) is int for a in v.values())
        got = [F(-v.get(i, 0) * dens[n], dens[i] * v[n]) for i in range(n)]
        assert got == want
    assert outcomes == {False, True}


def test_matrix_inverse_matches_tagged_reference():
    """The [A | I] inverse equals the tagged reference on random regular and
    singular matrices, zero rows included."""
    rng = random.Random(29)
    singular = 0
    for trial in range(120):
        n = rng.randint(1, 6)
        rank = rng.randint(0, n - 1) if trial % 3 == 0 else None
        rows = _random_rows(rng, n, n, rank)
        scales = [rng.choice((-1, 1)) * rng.randint(1, 5) for _ in rows]
        m = [{j: s * v for j, v in r.items()} for s, r in zip(scales, rows)]
        expected = tagged_inverse([[r.get(j, 0) for j in range(n)] for r in m])
        if expected is None:
            singular += 1
            with pytest.raises(ValueError):
                matrix_inverse(m)
        else:
            inverse = matrix_inverse(m)
            assert dense_inverse(inverse, n) == expected
            # each row over its own pivot, in lowest terms
            assert all(d > 0 and gcd(d, *row.values()) == 1 for row, d in inverse)
    assert 0 < singular < 120


def test_rank():
    assert rank_of_rows([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    assert rank_of_rows([{0: 1}, {1: 1}]) == 2
    assert rank_of_rows([{}]) == 0
    # the dense rational reference agrees on the same matrices
    assert rank_of_matrix([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank_of_matrix([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rank_of_matrix([[F(0), F(0)]]) == 0


def test_det_exact():
    assert det_exact([{0: 1, 1: 2}, {0: 3, 1: 4}]) == -2
    assert det_exact([{0: 2}]) == 2
    assert det_exact([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 0
    # 3x3 with a zero leading entry, which needs a row swap
    m = [{1: 3, 2: 1}, {0: 1}, {1: 1, 2: 1}]
    assert det_exact(m) == -2
    assert m == [{1: 3, 2: 1}, {0: 1}, {1: 1, 2: 1}]  # the input is not changed
    with pytest.raises(ValueError):
        det_exact([{0: 1, 1: 2}])


@pytest.mark.parametrize(
    "build",
    [pytest.param(lambda n=n: builtin_sl(n), id=f"sl{n}") for n in range(2, 13)]
    + [pytest.param(lambda: direct_sum(builtin_sl(2), builtin_sl(3)), id="sl2+sl3")],
)
def test_det_exact_matches_reference_on_killing_forms(build, fraction_count):
    form = killing_form(build())
    before = fraction_count()
    det = det_exact(form.rows)
    assert fraction_count() == before
    assert F(det, form.den ** len(form.rows)) == reference_det(dense_form(form)) != 0


_INTEGER = st.one_of(st.just(0), st.integers(-5, 5))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(st.lists(_INTEGER, min_size=n, max_size=n),
                           min_size=n, max_size=n)
    ),
    st.sampled_from([None, 0, -3, 2]),
)
def test_det_exact_matches_reference(matrix, dependent):
    """Bareiss elimination against rational elimination; a last row that is
    a multiple of the first makes the matrix singular."""
    singular = dependent is not None and len(matrix) > 1
    if singular:
        matrix[-1] = [dependent * v for v in matrix[0]]
    det = det_exact([{j: v for j, v in enumerate(r) if v} for r in matrix])
    assert det == reference_det(matrix)
    assert not singular or det == 0


def test_matrix_inverse_round_trip():
    m = [{0: 2, 1: 1}, {0: 5, 1: 3}]
    inv = dense_inverse(matrix_inverse(m), 2)
    prod = [
        [sum(m[i].get(k, 0) * inv[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[F(1), F(0)], [F(0), F(1)]]
    # a zero leading entry needs a row swap
    m = [{1: 1, 2: 2}, {0: 3, 2: -1}, {0: 1, 1: 1}]
    inv = dense_inverse(matrix_inverse(m), 3)
    prod = [
        [sum(m[i].get(k, 0) * inv[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    assert prod == [[F(int(i == j)) for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError):
        matrix_inverse([{0: 1, 1: 2}, {0: 2, 1: 4}])
    with pytest.raises(ValueError):
        matrix_inverse([{0: 1, 2: 1}, {1: 1}])


def test_echelon_reduction_clears_pivot_columns():
    ech = Echelon()
    ech.insert(row([1, 2, 0]))
    ech.insert(row([0, 1, 1]))
    red = ech.reduce(row([3, 6, 0]))
    assert not red  # inside the rowspace
    red = ech.reduce(row([0, 0, 7]))
    assert red  # independent remainder survives
    assert min(red) not in ech.pivots
