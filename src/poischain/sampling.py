"""Deterministic sample points for generic-rank certificates.

Generic ranks (orbit dimensions, transcendence degrees, Casimir counts) are
computed as the maximum exact rank over a fixed number of seeded integer
sample points: always a certified lower bound, short of the generic value
only when every point is a zero of a nonzero maximal minor of degree D.  By
Schwartz-Zippel one uniform point of [-10, 10]^n misses with probability at
most D/21, so all SAMPLE_COUNT points miss with probability at most
(D/21)^SAMPLE_COUNT (no bound once D >= 21).  Every caller defaults to the
same seed so repeated runs are byte identical.
"""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 1729
SAMPLE_COUNT = 3
COORDINATE_RANGE = (-10, 10)


def sample_points(
    dim: int,
    count: int = SAMPLE_COUNT,
    seed: int = DEFAULT_SEED,
) -> list[tuple[Fraction, ...]]:
    """Integer-coordinate points in the fixed range, reproducible from the seed."""
    rng = random.Random(seed * 1_000_003 + dim)
    lo, hi = COORDINATE_RANGE
    return [
        tuple(Fraction(rng.randint(lo, hi)) for _ in range(dim))
        for _ in range(count)
    ]


def generic_jacobian_rank(
    polys,
    dim: int,
    seed: int = DEFAULT_SEED,
    count: int = SAMPLE_COUNT,
) -> int:
    """Max Jacobian rank of the polynomial family over the seeded points.

    This is the transcendence degree of the generated subalgebra as a
    certified lower bound (exact rational ranks).  It is short only when
    every point misses: one point misses with probability at most D/21
    (Schwartz-Zippel), where D, the degree of a maximal nonzero minor of the
    Jacobian, is at most the sum of (degree - 1) over its rows.
    """
    from .linalg import rank_of_matrix
    from .poly import gradient_matrix

    polys = list(polys)
    best = 0
    nrows = len(polys)
    for point in sample_points(dim, count=count, seed=seed):
        rank = rank_of_matrix(gradient_matrix(polys, point))
        best = max(best, rank)
        if best == min(nrows, dim):
            break
    return best
