"""Seeded sample points and generic ranks, against dense rational references."""

import random
from fractions import Fraction

import pytest

from poischain import (
    LieAlgebra,
    builtin_sl,
    cartan_subalgebra,
    full_subalgebra,
    generic_jacobian_rank,
    generic_rank,
    orbit_dimension,
    sample_points,
    span_subalgebra,
)

from helpers import commutator_matrix, jacobian_matrix, random_polynomial, rank_of_matrix

F = Fraction
SEEDS = (1, 2, 1729)


def _reference_generic_rank(matrix_at, dim, seed):
    return max(rank_of_matrix(matrix_at(point)) for point in sample_points(dim, seed))


def _random_vector(rng, dim):
    return [
        F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.4 else F(0)
        for _ in range(dim)
    ]


def test_sample_points_are_pinned():
    assert sample_points(3) == [(-7, -4, 2), (-5, -7, -8), (6, -3, -4)]
    assert all(type(x) is int for point in sample_points(5, seed=3) for x in point)


def test_generic_rank_stops_at_the_bound():
    calls = []

    def rows_at(point):
        calls.append(point)
        return [{0: point[0]}, {1: point[1]}]

    assert generic_rank(rows_at, 2, 3, 1729) == 2
    assert calls == sample_points(3, 1729)[:1]

    calls.clear()
    assert generic_rank(rows_at, 3, 3, 1729) == 2
    assert calls == sample_points(3, 1729)


def test_generic_rank_is_the_largest_sampled_rank():
    # rank 2 exactly at the points with a positive coordinate
    def rows_at(point):
        return [{0: 1}, {1: 1} if point[0] > 0 else {0: 2}]

    seen = set()
    for seed in range(12):
        expected = 1 + any(x > 0 for (x,) in sample_points(1, seed))
        seen.add(expected)
        assert generic_rank(rows_at, 2, 1, seed) == expected
    assert seen == {1, 2}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_dimension_matches_dense_reference(n):
    alg = builtin_sl(n)
    rng = random.Random(n)
    subs = [cartan_subalgebra(alg), full_subalgebra(alg)] + [
        span_subalgebra([_random_vector(rng, alg.dim) for _ in range(rng.randint(1, 4))])
        for _ in range(6)
    ]
    for sub, seed in zip(subs, SEEDS * len(subs)):

        def orbit_rows(point):
            a = commutator_matrix(alg, point)
            return [
                [sum(v[i] * a[i][k] for i in range(alg.dim)) for k in range(alg.dim)]
                for v in sub.vectors
            ]

        expected = _reference_generic_rank(orbit_rows, alg.dim, seed)
        assert orbit_dimension(alg, sub, seed=seed) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rank_without_flagged_cartan_matches_dense_reference(n):
    sl = builtin_sl(n)
    alg = LieAlgebra(sl.name, sl.dim, sl.labels, sl.structure, cartan_indices=None)
    for seed in SEEDS:
        commutator_rank = _reference_generic_rank(
            lambda point: commutator_matrix(alg, point), alg.dim, seed
        )
        assert alg.rank(seed) == alg.dim - commutator_rank == n - 1


def test_generic_jacobian_rank_matches_dense_reference():
    rng = random.Random(9)
    for trial in range(40):
        dim = rng.randint(1, 5)
        polys = [
            random_polynomial(rng, dim, max_degree=3, n_terms=rng.randint(1, 4))
            .scale(F(1, rng.randint(1, 6)))
            for _ in range(rng.randint(0, 5))
        ]
        seed = SEEDS[trial % len(SEEDS)]
        expected = _reference_generic_rank(
            lambda point: jacobian_matrix(polys, point), dim, seed
        )
        assert generic_jacobian_rank(polys, dim, seed=seed) == expected
