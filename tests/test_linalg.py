"""Exact sparse linear algebra: elimination, nullspaces, canonical bases."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from poischain.linalg import (
    Echelon,
    canonical_rref,
    det_exact,
    express_in_rowspace,
    matrix_inverse,
    nullspace,
    rank_of_matrix,
    rank_of_rows,
    row_from_rationals,
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


def test_canonical_rref_is_representation_independent():
    """Shuffling, scaling and mixing the spanning set leaves the output alone."""
    vectors = [
        {0: F(1), 2: F(2)},
        {1: F(3), 2: F(-1)},
    ]
    base = canonical_rref(vectors)
    mixed = [
        {k: 5 * v for k, v in vectors[1].items()},
        # vectors[0] + vectors[1]
        {0: F(1), 1: F(3), 2: F(1)},
    ]
    assert canonical_rref(mixed) == base
    # pivots are 1 and pivot columns are cleared elsewhere
    pivots = [min(v) for v in base]
    assert len(set(pivots)) == len(base)
    for v in base:
        assert v[min(v)] == 1
    for v in base:
        for w in base:
            if v is not w:
                assert min(v) not in w


@settings(max_examples=50)
@given(st.integers(0, 10**6))
def test_canonical_rref_idempotent_and_invariant_under_shuffle(seed):
    rng = random.Random(seed)
    vecs = []
    for _ in range(rng.randint(1, 5)):
        vec = {j: F(rng.randint(-4, 4)) for j in range(rng.randint(1, 5))}
        vec = {j: c for j, c in vec.items() if c}
        if vec:
            vecs.append(vec)
    first = canonical_rref(vecs)
    assert canonical_rref(first) == first
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    scaled = [{j: F(2) * c for j, c in v.items()} for v in shuffled]
    assert canonical_rref(scaled) == first


def test_express_in_rowspace_solvable():
    rows = [row([1, 0, 1]), row([0, 1, 1])]
    target = row([2, 3, 5])
    coeffs = express_in_rowspace(rows, target)
    assert coeffs == [F(2), F(3)]


def test_express_in_rowspace_unsolvable():
    rows = [row([1, 0, 0])]
    assert express_in_rowspace(rows, row([0, 1, 0])) is None


def test_express_handles_dependent_rows():
    rows = [
        row([1, 1]),
        row([2, 2]),
        row([0, 1]),
    ]
    target = row([3, 4])
    coeffs = express_in_rowspace(rows, target)
    assert coeffs is not None
    recon = [F(0), F(0)]
    dense = [[1, 1], [2, 2], [0, 1]]
    for c, entries in zip(coeffs, dense):
        recon = [r + c * F(x) for r, x in zip(recon, entries)]
    assert recon == [F(3), F(4)]


def test_rank():
    assert rank_of_matrix([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank_of_matrix([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rank_of_matrix([[F(0), F(0)]]) == 0


def test_det_exact():
    assert det_exact([[F(1), F(2)], [F(3), F(4)]]) == F(-2)
    assert det_exact([[F(2)]]) == F(2)
    assert det_exact([[F(1), F(2)], [F(2), F(4)]]) == 0
    # 3x3 with fractional entries
    m = [
        [F(1, 2), F(0), F(0)],
        [F(0), F(3), F(1)],
        [F(0), F(1), F(1)],
    ]
    assert det_exact(m) == F(1)


def test_matrix_inverse_round_trip():
    m = [[F(2), F(1)], [F(5), F(3)]]
    inv = matrix_inverse(m)
    prod = [
        [sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[F(1), F(0)], [F(0), F(1)]]


def test_echelon_reduction_clears_pivot_columns():
    ech = Echelon()
    ech.insert(row([1, 2, 0]))
    ech.insert(row([0, 1, 1]))
    red = ech.reduce(row([3, 6, 0]))
    assert not red  # inside the rowspace
    red = ech.reduce(row([0, 0, 7]))
    assert red  # independent remainder survives
    assert min(red) not in ech.pivots
