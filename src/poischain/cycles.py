"""Cycle monomials: closed-form torus invariants for the special linear family.

A monomial in the off-diagonal coordinates of sl(n) is torus-invariant
exactly when its exponent multigraph is balanced (in-degree equals out-degree
at every vertex), and every balanced monomial factors into directed-cycle
monomials p_{i1..id} = x_{i1 i2} x_{i2 i3} ... x_{id i1}.  This gives an
independent combinatorial route to the same invariant algebra that the
kernel pipeline computes, used as a cross-check oracle, plus the classical
relation families among cycle generators.

Where each h_i and x_ij sits among the coordinates is read off the basis
matrices of algebra.builtin_sl (_sl_matrix_basis, _sl_matrix_coords): the
edge of a coordinate, the monomial of a cycle and the image of a coordinate
under an index permutation all come from those matrices.

Cycle monomials and their identities all have coefficient one, so they are
handled as packed keys (poly): a cycle is the sum of its edges' keys and the
relation families compare key sums.  The oracle lists the balanced monomials
by its own depth-first walk over the off-diagonal coordinates (_balanced_keys).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, combinations_with_replacement, permutations
from typing import Sequence

from .algebra import (
    LieAlgebra,
    builtin_sl,
    cartan_subalgebra,
    sl_size,
    _sl_matrix_basis,
    _sl_matrix_coords,
)
from .commutant import (
    BudgetExceededError,
    Generator,
    GeneratorSet,
    _canonical_polys,
    _formal_counts,
    _generator_products,
    invariant_basis,
)
from .poly import Monomial, Polynomial, _check_degree, _make, variable_keys

# cycles in one census: sl(9) has 125,664 and builds in seconds; sl(10) has
# 1,112,073, which take over a minute and about 1 GB
CENSUS_BUDGET = 200_000


def _coordinate_edges(alg: LieAlgebra) -> tuple[tuple[int, int] | None, ...]:
    """The directed edge (i, j) (1-based) of each coordinate of a built-in
    sl(n), read off its basis matrix: the matrix unit E_ij gives (i, j), a
    Cartan coordinate None.  Built once per algebra."""
    return alg.derived("cycle edges", partial(_build_coordinate_edges, alg))


def _build_coordinate_edges(alg: LieAlgebra) -> tuple[tuple[int, int] | None, ...]:
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


@dataclass(frozen=True)
class CycleMonomial:
    """A directed cycle on distinct indices, rotated so the smallest is first.

    Orientation is preserved: (1,2,3) and (1,3,2) are different monomials.
    """

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = self.indices
        if len(idx) < 2:
            raise ValueError("a cycle needs at least two indices")
        if len(set(idx)) != len(idx):
            raise ValueError("cycle indices must be pairwise distinct")
        if any(i < 1 for i in idx):
            raise ValueError("indices are 1-based")
        low = idx.index(min(idx))
        object.__setattr__(self, "indices", idx[low:] + idx[:low])

    @property
    def length(self) -> int:
        return len(self.indices)

    @property
    def label(self) -> str:
        if max(self.indices) < 10:
            return "p" + "".join(str(i) for i in self.indices)
        return "p" + "_".join(str(i) for i in self.indices)

    def edges(self) -> list[tuple[int, int]]:
        idx = self.indices
        return [(idx[u], idx[(u + 1) % len(idx)]) for u in range(len(idx))]

    def polynomial(self, n: int) -> Polynomial:
        """The product of the coordinates of the cycle's matrix units: the
        sum of their keys, each edge being distinct."""
        if any(i > n for i in self.indices):
            raise ValueError(f"cycle uses indices beyond n={n}")
        return _make(n * n - 1, {_cycle_key(self.indices, _edge_keys(n)): 1}, 1)


@dataclass
class ExponentGraph:
    """Directed edge multiset extracted from a monomial's exponents."""

    edges: dict[tuple[int, int], int]

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

    def total(self) -> int:
        return sum(self.edges.values())


def balance_check(mono: Monomial, alg: LieAlgebra) -> bool:
    """In-degree equals out-degree at every vertex of the exponent graph.

    Diagonal (Cartan) variables carry no edges and never obstruct; the
    condition is equivalent to torus invariance of the monomial.
    """
    return ExponentGraph.from_monomial(mono, alg).is_balanced()


def cycle_decompose(graph: ExponentGraph) -> list[CycleMonomial]:
    """Factor a balanced edge multiset into directed cycles.

    Deterministic greedy walk: start from the smallest vertex with an unused
    out-edge, always step to the smallest available successor, and extract a
    cycle as soon as a vertex repeats.  The product of the returned cycle
    monomials equals the original off-diagonal monomial.
    """
    if not graph.is_balanced():
        raise ValueError("cannot decompose an unbalanced exponent graph")
    remaining = {e: m for e, m in graph.edges.items() if m > 0}
    out: list[CycleMonomial] = []

    def consume(i: int, j: int) -> None:
        remaining[(i, j)] -= 1
        if not remaining[(i, j)]:
            del remaining[(i, j)]

    while remaining:
        start = min(i for i, _ in remaining)
        path = [start]
        seen = {start: 0}
        while True:
            cur = path[-1]
            succ = min((j for (i, j) in remaining if i == cur), default=None)
            if succ is None:
                raise AssertionError("walk stuck on a balanced graph")
            if succ in seen:
                cycle = path[seen[succ]:]
                for u in range(len(cycle)):
                    consume(cycle[u], cycle[(u + 1) % len(cycle)])
                out.append(CycleMonomial(tuple(cycle)))
                break
            seen[succ] = len(path)
            path.append(succ)
    return out


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


def enumerate_cycle_generators(n: int) -> GeneratorSet:
    """The closed-form torus-invariant generators of sl(n): the simple-root
    coordinates plus every cycle monomial of length 2..n.  The cycles are
    counted, sum_k perm(n, k)/k, before any is built, so an over-budget n
    fails at once."""
    if n < 2:
        raise ValueError("need n >= 2")
    count = sum(math.perm(n, k) // k for k in range(2, n + 1))
    if count > CENSUS_BUDGET:
        raise BudgetExceededError(
            f"the sl({n}) cycle census has {count} cycles, above {CENSUS_BUDGET}"
        )
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


@dataclass
class FamilyResult:
    family: str
    instances_checked: int
    failures: list[str]
    convention: str
    skipped: str | None = None

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


@dataclass
class RelationFamiliesReport:
    n: int
    results: list[FamilyResult]

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


def _check_family_three(n: int, all_pairs: int, budget: int) -> FamilyResult:
    """Power identity per cycle length: the product of all oriented k-cycles
    equals the product of all two-cycles raised to the count of k-cycles
    through a fixed directed edge."""
    keys = _edge_keys(n)
    checked = 0
    failures = []
    for k in range(2, n + 1):
        cycles = all_cycles(n, k)
        checked += 1
        if len(cycles) > budget:
            raise BudgetExceededError(f"family (iii) at k={k}: {len(cycles)} cycles")
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


def relation_families_check(n: int, budget: int = 5000) -> RelationFamiliesReport:
    """Exact expansion check of the three classical relation families among
    cycle generators, with the degenerate-case conventions recorded.

    Family (i) has one instance per closed index tuple of length 2..n; they
    are counted before any is checked, so an over-budget call fails first.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if sum(math.perm(n, k) for k in range(2, n + 1)) > budget:
        raise BudgetExceededError(f"family (i) exceeded {budget} instances")
    # the product of every two-cycle, the left side of (ii) and base of (iii),
    # is the product of every edge
    all_pairs = sum(_edge_keys(n).values())
    results = [
        _check_family_one(n),
        _check_family_two(n, all_pairs),
        _check_family_three(n, all_pairs, budget),
    ]
    return RelationFamiliesReport(n=n, results=results)


# ---------------------------------------------------------------------------
# oracle cross-check against the kernel pipeline


@dataclass
class OracleDegreeResult:
    degree: int
    balanced_count: int
    kernel_dim: int
    spans_equal: bool

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "balanced_count": self.balanced_count,
            "kernel_dim": self.kernel_dim,
            "spans_equal": self.spans_equal,
        }


@dataclass
class OracleReport:
    n: int
    per_degree: list[OracleDegreeResult]

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
    edge lowers that sum by at most one).  Cartan monomials fill the rest."""
    _check_degree(k_max)
    edges = _coordinate_edges(alg)
    keys = variable_keys(alg.dim)
    walk = [(keys[v], *e) for v, e in enumerate(edges) if e is not None]
    # last[v]: the last walk position with an edge at vertex v
    last = {v: p for p, (_, i, j) in enumerate(walk) for v in (i, j)}
    defect = dict.fromkeys(last, 0)
    off: list[list[int]] = [[] for _ in range(k_max + 1)]

    def visit(start: int, degree: int, key: int, positive: int) -> None:
        if not positive:
            off[degree].append(key)
        if degree == k_max:
            return
        stop = min((last[v] for v, d in defect.items() if d), default=len(walk) - 1)
        for p in range(start, stop + 1):
            x, i, j = walk[p]
            a, b = defect[i], defect[j]
            step = (a >= 0) - (b > 0)
            if positive + step > k_max - degree - 1:
                continue
            defect[i], defect[j] = a + 1, b - 1
            visit(p, degree + 1, key + x, positive + step)
            defect[i], defect[j] = a, b

    visit(0, 0, 0, 0)
    cartan = [keys[v] for v, e in enumerate(edges) if e is None]
    fill = [list(map(sum, combinations_with_replacement(cartan, d)))
            for d in range(k_max + 1)]
    return [
        [o + c for d in range(k + 1) for o in off[d] for c in fill[k - d]]
        for k in range(k_max + 1)
    ]


def oracle_cross_check(n: int, k_max: int) -> OracleReport:
    """Span equality, degree by degree, of the balanced monomials and the
    kernel-computed invariants (two fully independent computations)."""
    alg = builtin_sl(n)
    sub = cartan_subalgebra(alg)
    results = []
    for k, balanced in enumerate(_balanced_keys(alg, k_max)[1:], start=1):
        kernel = invariant_basis(alg, sub, k)
        balanced_polys = [_make(alg.dim, {key: 1}, 1) for key in balanced]
        equal = _canonical_polys(balanced_polys, alg.dim) == _canonical_polys(
            kernel, alg.dim
        )
        results.append(
            OracleDegreeResult(
                degree=k,
                balanced_count=len(balanced),
                kernel_dim=len(kernel),
                spans_equal=equal,
            )
        )
    return OracleReport(n=n, per_degree=results)


# ---------------------------------------------------------------------------
# symmetric-group action and averaging


def sl_weyl_images(alg: LieAlgebra, sigma: Sequence[int]) -> list[Polynomial]:
    """Coordinate images under the index permutation sigma (0-based tuple:
    matrix index i+1 goes to sigma[i]+1), as substitution targets.

    The permutation acts on matrices by simultaneous row/column permutation;
    each basis matrix is permuted and re-expanded in the basis, giving a
    linear image per coordinate.
    """
    n = sl_size(alg)
    if n is None:
        raise ValueError("the permutation action needs the built-in sl(n) layout")
    if sorted(sigma) != list(range(n)):
        raise ValueError("sigma must be a permutation of 0..n-1")
    keys = variable_keys(alg.dim)
    images: list[Polynomial] = []
    for mat in _sl_matrix_basis(n)[0]:
        moved = {(sigma[r], sigma[c]): v for (r, c), v in mat.items()}
        coords = _sl_matrix_coords(moved, n)
        images.append(_make(alg.dim, {keys[v]: c for v, c in coords.items()}, 1))
    return images


def weyl_permute(alg: LieAlgebra, p: Polynomial, sigma: Sequence[int]) -> Polynomial:
    return p.substitute_linear(sl_weyl_images(alg, sigma))


def reynolds_average(alg: LieAlgebra, p: Polynomial) -> Polynomial:
    """Average of the polynomial over all index permutations."""
    n = sl_size(alg)
    if n is None:
        raise ValueError("averaging needs the built-in sl(n) layout")
    total = Polynomial.zero(alg.dim)
    count = 0
    for sigma in permutations(range(n)):
        total = total + weyl_permute(alg, p, sigma)
        count += 1
    return _make(alg.dim, total.num, total.den * count)


def reynolds_sl(
    alg: LieAlgebra,
    gens: GeneratorSet,
    max_degree: int,
    product_budget: int = 20000,
) -> GeneratorSet:
    """Permutation-averaged spans of generator products, degree by degree.

    Averages every product of the given generators up to the degree cap and
    returns a reduced echelon basis per degree.  Applied to torus generators
    this produces the invariants of the torus normalizer.  The products are
    counted by the table that prunes their walk (commutant._formal_counts)
    before any is formed, so an over-budget call fails at once.
    """
    if sum(_formal_counts(gens.degrees(), max_degree)[0][1:]) > product_budget:
        raise BudgetExceededError(
            f"more than {product_budget} generator products below degree {max_degree}"
        )
    averaged: dict[int, list[Polynomial]] = {}
    for d in range(1, max_degree + 1):
        for _, prod in _generator_products(gens.generators, d):
            avg = reynolds_average(alg, prod)
            if avg.is_zero():
                continue
            deg = avg.degree or 0
            averaged.setdefault(deg, []).append(avg)
    out: list[Generator] = []
    for deg in sorted(averaged):
        basis = _canonical_polys(averaged[deg], alg.dim)
        for i, poly in enumerate(basis, start=1):
            label = f"w{deg}_{i}" if len(basis) > 1 else f"w{deg}"
            out.append(
                Generator(poly=poly, degree=deg, label=label, indecomposable=False)
            )
    return GeneratorSet(algebra=alg, generators=out, max_degree=max_degree)
