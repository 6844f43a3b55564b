"""Cycle monomials: closed-form torus invariants for the special linear family.

A monomial in the off-diagonal coordinates of sl(n) is torus-invariant
exactly when its exponent multigraph is balanced (in-degree equals out-degree
at every vertex), and every balanced monomial factors into directed-cycle
monomials p_{i1..id} = x_{i1 i2} x_{i2 i3} ... x_{id i1}.  This gives an
independent combinatorial route to the same invariant algebra that the
kernel pipeline computes, used as a cross-check oracle, plus the classical
relation families among cycle generators.

Cycle monomials and their identities all have coefficient one, so they are
handled as packed keys (poly): a cycle is the sum of its edges' keys, each
edge read off the basis matrices of algebra.builtin_sl (_coordinate_edges),
and the relation families compare key sums.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from typing import Sequence

from .algebra import (
    ConfigurationError,
    LieAlgebra,
    Record,
    builtin_sl,
    cartan_subalgebra,
    sl_size,
    _sl_matrix_basis,
)
from .commutant import (
    BudgetExceededError,
    Generator,
    GeneratorSet,
    invariant_basis,
)
from .poly import (
    Monomial,
    Polynomial,
    _check_degree,
    _make,
    variable_keys,
)

# cycles in one census: sl(9) has 125,664 and builds in seconds; sl(10) has
# 1,112,073, which take over a minute and about 1 GB
CENSUS_BUDGET = 200_000
# family (i) instances that relation_families_check expands
FAMILY_BUDGET = 5_000


def _coordinate_edges(alg: LieAlgebra) -> tuple[tuple[int, int] | None, ...]:
    """The directed edge (i, j) (1-based) of each coordinate of a built-in
    sl(n), read off its basis matrix: the matrix unit E_ij gives (i, j), a
    Cartan coordinate None."""
    n = sl_size(alg)
    if n is None:
        raise ValueError("cycle combinatorics requires the built-in sl(n) layout")
    return _sl_edges(n)


@lru_cache(maxsize=None)
def _sl_edges(n: int) -> tuple[tuple[int, int] | None, ...]:
    mats, _ = _sl_matrix_basis(n)
    return tuple(
        next(((r + 1, c + 1) for r, c in mat if r != c), None) for mat in mats
    )


@lru_cache(maxsize=None)
def _edge_keys(n: int) -> dict[tuple[int, int], int]:
    """The packed key of the coordinate of each edge (i, j) of sl(n).
    Callers must not mutate it."""
    keys = variable_keys(n * n - 1)
    return {e: keys[v] for v, e in enumerate(_sl_edges(n)) if e is not None}


def _cycle_key(indices: Sequence[int], keys: dict[tuple[int, int], int]) -> int:
    """The key of the cycle through these indices: the sum of its edges' keys."""
    return sum(keys[a, b] for a, b in zip(indices, (*indices[1:], indices[0])))


class CycleMonomial(Record):
    """A directed cycle on distinct indices, rotated so the smallest is first.

    Orientation is preserved: (1,2,3) and (1,3,2) are different monomials.
    """

    _fields = ("indices",)
    __hash__ = Record._hash

    def __init__(self, indices: tuple[int, ...]) -> None:
        if len(indices) < 2:
            raise ValueError("a cycle needs at least two indices")
        if len(set(indices)) != len(indices):
            raise ValueError("cycle indices must be pairwise distinct")
        if any(i < 1 for i in indices):
            raise ValueError("indices are 1-based")
        low = indices.index(min(indices))
        self.indices = indices[low:] + indices[:low]

    @property
    def label(self) -> str:
        if max(self.indices) < 10:
            return "p" + "".join(str(i) for i in self.indices)
        return "p" + "_".join(str(i) for i in self.indices)

    def polynomial(self, n: int) -> Polynomial:
        """The product of the coordinates of the cycle's matrix units: the
        sum of their keys, each edge being distinct."""
        if any(i > n for i in self.indices):
            raise ValueError(f"cycle uses indices beyond n={n}")
        return _make(n * n - 1, {_cycle_key(self.indices, _edge_keys(n)): 1}, 1)


class ExponentGraph(Record):
    """Directed edge multiset extracted from a monomial's exponents."""

    _fields = ("edges",)

    @classmethod
    def from_monomial(cls, mono: Monomial, alg: LieAlgebra) -> "ExponentGraph":
        coordinate_edges = _coordinate_edges(alg)
        edges: dict[tuple[int, int], int] = {}
        for var, exp in mono.exps:
            edge = coordinate_edges[var]
            if edge is not None:
                edges[edge] = edges.get(edge, 0) + exp
        return cls(edges=edges)

    def is_balanced(self) -> bool:
        defect: dict[int, int] = {}
        for (i, j), m in self.edges.items():
            defect[i] = defect.get(i, 0) + m
            defect[j] = defect.get(j, 0) - m
        return all(v == 0 for v in defect.values())


def balance_check(mono: Monomial, alg: LieAlgebra) -> bool:
    """In-degree equals out-degree at every vertex of the exponent graph.

    Diagonal (Cartan) variables carry no edges and never obstruct; the
    condition is equivalent to torus invariance of the monomial.
    """
    return ExponentGraph.from_monomial(mono, alg).is_balanced()


def all_cycles(n: int, length: int) -> list[CycleMonomial]:
    """Every oriented cycle of the given length on n letters, up to rotation,
    in lexicographic order of the canonical index sequence."""
    found = []
    for subset in combinations(range(1, n + 1), length):
        first, rest = subset[0], subset[1:]
        for tail in permutations(rest):
            found.append(CycleMonomial((first,) + tail))
    found.sort(key=lambda c: c.indices)
    return found


def check_census_budget(n: int) -> None:
    """Raise unless the sl(n) cycle census, sum_k perm(n, k)/k cycles of
    length k = 2..n, is within CENSUS_BUDGET: a count, with no cycle built."""
    if n < 2:
        raise ConfigurationError("need n >= 2")
    count = sum(math.perm(n, k) // k for k in range(2, n + 1))
    if count > CENSUS_BUDGET:
        raise BudgetExceededError(
            f"the sl({n}) cycle census has {count} cycles, above {CENSUS_BUDGET}"
        )


def enumerate_cycle_generators(n: int) -> GeneratorSet:
    """The closed-form torus-invariant generators of sl(n): the simple-root
    coordinates plus every cycle monomial of length 2..n, after
    check_census_budget, so an over-budget n fails at once."""
    check_census_budget(n)
    alg = builtin_sl(n)
    gens: list[Generator] = []
    for i in alg.cartan_indices:
        gens.append(
            Generator(
                poly=Polynomial.variable(i, alg.dim),
                degree=1,
                label=alg.labels[i],
            )
        )
    for length in range(2, n + 1):
        for cyc in all_cycles(n, length):
            gens.append(
                Generator(poly=cyc.polynomial(n), degree=length, label=cyc.label)
            )
    return GeneratorSet(
        algebra=alg,
        generators=gens,
        subalgebra=cartan_subalgebra(alg),
        max_degree=n,
    )


# ---------------------------------------------------------------------------
# relation families


def phi_exponent(n: int, k: int) -> int:
    """Number of oriented k-cycles through a fixed directed edge:
    (n-2)!/(n-k)!; the empty product 1 at k = 2."""
    return math.factorial(n - 2) // math.factorial(n - k)


class FamilyResult(Record):
    _fields = ("family", "instances_checked", "failures", "convention", "skipped")
    _defaults = {"skipped": None}

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        out = {
            "family": self.family,
            "instances_checked": self.instances_checked,
            "passed": self.passed,
            "failures": self.failures,
            "convention": self.convention,
        }
        if self.skipped:
            out["skipped"] = self.skipped
        return out


class RelationFamiliesReport(Record):
    _fields = ("n", "results")

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "all_passed": self.all_passed,
            "families": [r.to_json() for r in self.results],
        }


def _check_family_one(n: int) -> FamilyResult:
    """Loop-edge product identity: the product of the two-cycles along a
    closed index tuple equals the cycle times its orientation reversal."""
    keys = _edge_keys(n)
    checked = 0
    failures = []
    for k in range(2, n + 1):
        for tup in permutations(range(1, n + 1), k):
            checked += 1
            lhs = sum(
                keys[a, b] + keys[b, a] for a, b in zip(tup, (*tup[1:], tup[0]))
            )
            rhs = _cycle_key(tup, keys) + _cycle_key((tup[0], *tup[:0:-1]), keys)
            if lhs != rhs:
                failures.append(f"tuple {tup}")
    return FamilyResult(
        family="i",
        instances_checked=checked,
        failures=failures,
        convention=(
            "closing two-cycle (last, first) included on the left; right side "
            "is the oriented cycle times its reversal"
        ),
    )


def _check_family_two(n: int, all_pairs: int) -> FamilyResult:
    """All-pairs product identity: the product of every two-cycle equals the
    full cycle, times its reversal, times the two-cycles on non-adjacent
    pairs."""
    convention = (
        "second factor is the orientation-reversed full cycle; the trailing "
        "product runs over pairs (i, j), j > i + 1, excluding (1, n) — the "
        "pairs not adjacent on the standard loop; degenerate at n = 2"
    )
    if n < 3:
        return FamilyResult(
            family="ii",
            instances_checked=0,
            failures=[],
            convention=convention,
            skipped="degenerate at n = 2 (no non-adjacent pairs; identity has no content)",
        )
    keys = _edge_keys(n)
    full = _cycle_key(range(1, n + 1), keys)
    reversed_full = _cycle_key((1, *range(n, 1, -1)), keys)
    chords = sum(
        _cycle_key((i, j), keys)
        for i in range(1, n + 1)
        for j in range(i + 2, n + 1)
        if not (i == 1 and j == n)
    )
    rhs = full + reversed_full + chords
    failures = [] if all_pairs == rhs else ["all-pairs instance"]
    return FamilyResult(
        family="ii", instances_checked=1, failures=failures, convention=convention
    )


def _check_family_three(n: int, all_pairs: int) -> FamilyResult:
    """Power identity per cycle length: the product of all oriented k-cycles
    equals the product of all two-cycles raised to the count of k-cycles
    through a fixed directed edge."""
    keys = _edge_keys(n)
    checked = 0
    failures = []
    for k in range(2, n + 1):
        cycles = all_cycles(n, k)
        checked += 1
        phi = phi_exponent(n, k)
        _check_degree(max(k * len(cycles), phi * n * (n - 1)))
        lhs = sum(_cycle_key(c.indices, keys) for c in cycles)
        if lhs != phi * all_pairs:
            failures.append(f"k = {k}")
    return FamilyResult(
        family="iii",
        instances_checked=checked,
        failures=failures,
        convention=(
            "left side ranges over oriented cycles distinct up to rotation "
            "(both orientations separate); exponent phi(k) = (n-2)!/(n-k)! "
            "counts k-cycles through a fixed directed edge, phi(2) = 1"
        ),
    )


def relation_families_check(n: int) -> RelationFamiliesReport:
    """Exact expansion check of the three classical relation families among
    cycle generators, with the degenerate-case conventions recorded.

    Family (i) has one instance per closed index tuple of length 2..n; they
    are counted against FAMILY_BUDGET before any is checked, so an
    over-budget call fails first.  Family (iii) expands perm(n, k)/k cycles
    per length k, fewer than those tuples, so the one count bounds it too.
    """
    if n < 2:
        raise ConfigurationError("need n >= 2")
    if sum(math.perm(n, k) for k in range(2, n + 1)) > FAMILY_BUDGET:
        raise BudgetExceededError(f"family (i) exceeded {FAMILY_BUDGET} instances")
    # the product of every two-cycle, the left side of (ii) and base of (iii),
    # is the product of every edge
    all_pairs = sum(_edge_keys(n).values())
    results = [
        _check_family_one(n),
        _check_family_two(n, all_pairs),
        _check_family_three(n, all_pairs),
    ]
    return RelationFamiliesReport(n=n, results=results)


# ---------------------------------------------------------------------------
# oracle cross-check against the kernel pipeline


class OracleDegreeResult(Record):
    _fields = ("degree", "balanced_count", "kernel_dim", "spans_equal")

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "balanced_count": self.balanced_count,
            "kernel_dim": self.kernel_dim,
            "spans_equal": self.spans_equal,
        }


class OracleReport(Record):
    _fields = ("n", "per_degree")

    @property
    def all_equal(self) -> bool:
        return all(r.spans_equal for r in self.per_degree)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "all_equal": self.all_equal,
            "per_degree": [r.to_json() for r in self.per_degree],
        }


def _balanced_keys(alg: LieAlgebra, k_max: int) -> list[list[int]]:
    """The keys of the balanced monomials of each degree 0..k_max: a walk adds
    off-diagonal coordinates in order, keeping each vertex's out- minus
    in-degree.  A branch ends when a vertex with a defect has no edge left,
    or when the positive defects add up to more than the degree left (an
    edge lowers that sum by at most one).  Cartan monomials fill the rest.

    The open prefixes are one explicit stack.  Each balanced monomial of
    degree d the walk lists counts its comb(c + k_max - d, c) fills by the c
    Cartan coordinates against CENSUS_BUDGET, the monomial 1 first, so a
    large k_max fails at once; any k_max within budget is below 900, far
    inside a key's degree field."""
    edges = _coordinate_edges(alg)
    keys = variable_keys(alg.dim)
    cartan = [keys[v] for v, e in enumerate(edges) if e is None]
    walk = [(keys[v], *e) for v, e in enumerate(edges) if e is not None]
    # last[v]: the last walk position with an edge at vertex v
    last = {v: p for p, (_, i, j) in enumerate(walk) for v in (i, j)}
    defect = dict.fromkeys(last, 0)
    off: list[list[int]] = [[] for _ in range(k_max + 1)]
    # open prefixes: [next position, last position, degree, key, positive]
    frames: list[list[int]] = []
    listed = 0

    def push(start: int, degree: int, key: int, positive: int) -> None:
        nonlocal listed
        if not positive:
            listed += math.comb(len(cartan) + k_max - degree, len(cartan))
            if listed > CENSUS_BUDGET:
                raise BudgetExceededError(f"the {alg.name} oracle through degree "
                                          f"{k_max} lists over {CENSUS_BUDGET} monomials")
            off[degree].append(key)
        stop = -1 if degree == k_max else min(
            (last[v] for v, d in defect.items() if d), default=len(walk) - 1)
        frames.append([start, stop, degree, key, positive])

    push(0, 0, 0, 0)
    while frames:
        frame = frames[-1]
        start, stop, degree, key, positive = frame
        for p in range(start, stop + 1):
            x, i, j = walk[p]
            step = (defect[i] >= 0) - (defect[j] > 0)
            if positive + step < k_max - degree:
                break
        else:
            frames.pop()
            if frames:  # undo the edge that opened this prefix
                _, i, j = walk[frames[-1][0] - 1]
                defect[i], defect[j] = defect[i] - 1, defect[j] + 1
            continue
        frame[0] = p + 1
        defect[i], defect[j] = defect[i] + 1, defect[j] - 1
        push(p, degree + 1, key + x, positive + step)

    fill = [list(map(sum, combinations_with_replacement(cartan, d)))
            for d in range(k_max + 1)]
    return [
        [o + c for d in range(k + 1) for o in off[d] for c in fill[k - d]]
        for k in range(k_max + 1)
    ]


def oracle_cross_check(n: int, k_max: int) -> OracleReport:
    """Span equality, degree by degree, of the balanced monomials and the
    kernel-computed invariants (two fully independent computations): the
    kernel comes in canonical form, and the canonical basis of the span of
    distinct monomials is those monomials, graded-lex descending.  The top
    kernel is asked for first, so the zero-weight keys of every degree come
    from one walk at k_max."""
    alg = builtin_sl(n)
    sub = cartan_subalgebra(alg)
    walked = _balanced_keys(alg, k_max)  # first: a census over budget fails at once
    top = invariant_basis(alg, sub, k_max)
    results = []
    for k, balanced in enumerate(walked[1:], start=1):
        kernel = top if k == k_max else invariant_basis(alg, sub, k)
        equal = kernel == [
            _make(alg.dim, {key: 1}, 1) for key in sorted(set(balanced), reverse=True)
        ]
        results.append(
            OracleDegreeResult(
                degree=k,
                balanced_count=len(balanced),
                kernel_dim=len(kernel),
                spans_equal=equal,
            )
        )
    return OracleReport(n=n, per_degree=results)
