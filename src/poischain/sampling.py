"""Deterministic sample points and the one generic-rank routine.

Every generic rank (orbit dimensions, transcendence degrees, Casimir counts,
the rank of an algebra without a flagged Cartan) comes from generic_rank:
the largest exact rank, by linalg.rank_of_rows, of integer rows evaluated at
SAMPLE_COUNT seeded points of [-10, 10]^n, stopping at the first point that
reaches a known upper bound.  That maximum is always a certified lower bound,
short of the generic value only when every point is a zero of a nonzero
maximal minor of degree D.  By Schwartz-Zippel one uniform point misses with
probability at most D/21, so all SAMPLE_COUNT points miss with probability
at most (D/21)^SAMPLE_COUNT (no bound once D >= 21).  A rank that reaches
the upper bound is exact: in particular a Jacobian rank equal to the number
of polynomials is an exact certificate that they are algebraically
independent, which commutant.relation_basis uses in place of elimination.
Every caller defaults to the same seed so repeated runs are byte identical.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable

from .linalg import Row, rank_of_rows
from .poly import Polynomial, gradient_rows

DEFAULT_SEED = 1729
SAMPLE_COUNT = 3
COORDINATE_RANGE = (-10, 10)

Point = tuple[int, ...]


def sample_points(dim: int, seed: int = DEFAULT_SEED) -> list[Point]:
    """SAMPLE_COUNT integer points in the fixed range, reproducible from the
    seed."""
    rng = random.Random(seed * 1_000_003 + dim)
    lo, hi = COORDINATE_RANGE
    return [
        tuple(rng.randint(lo, hi) for _ in range(dim)) for _ in range(SAMPLE_COUNT)
    ]


def generic_rank(
    rows_at: Callable[[Point], Iterable[Row]], bound: int, dim: int, seed: int
) -> int:
    """The largest rank of rows_at(point) over the seeded points of the
    dim-dimensional space; the points after one whose rank reaches bound, an
    upper bound on every rank, are skipped."""
    best = 0
    for point in sample_points(dim, seed):
        best = max(best, rank_of_rows(rows_at(point)))
        if best >= bound:
            break
    return best


def generic_jacobian_rank(
    polys: Iterable[Polynomial], dim: int, seed: int = DEFAULT_SEED
) -> int:
    """Generic Jacobian rank of the polynomial family.

    This is the transcendence degree of the generated subalgebra as a
    certified lower bound (exact integer ranks).  It is short only when
    every point misses: one point misses with probability at most D/21
    (Schwartz-Zippel), where D, the degree of a maximal nonzero minor of the
    Jacobian, is at most the sum of (degree - 1) over its rows.
    """
    polys = list(polys)
    return generic_rank(
        lambda point: gradient_rows(polys, point), min(len(polys), dim), dim, seed
    )
