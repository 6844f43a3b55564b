"""Shared helpers for the test suite and CI: a Fraction counter, random
polynomials, span fingerprints, and slow reference routes for the kernel,
bracket and product computations, the pairwise bracket checks, the Jacobi
scan, the Killing and linear forms, the general relation, membership and
new-generator routes (over their own walk of the formal monomials, and
membership one homogeneous component at a time), the flow integrator and
its trajectory CSV, the sl(n) cycle coordinates, the cycle relation families
and balanced monomials, the trace-then-transport Casimirs and the
field-by-field invariance test.
Oracles the package itself does not need live here too: the sl(n) trace
form, the Killing-invariance witness, the inverse dual transport, the JSON
terms of a polynomial and the Eulerian cycle decomposition of a balanced
monomial.  The per-polynomial invariant chain and a count of zero-weight
monomials check the weight-space kernels, and the Poisson center by
polynomial images checks poisson_center_basis, on the Levi subalgebras
built here too.  The polynomial-image kernel and canonical basis those
references were written against are kept here as their own code, and so
are the single-term new-generator and membership readers that listed one
entry per formal monomial (_term_levels), against the product-key levels."""

from __future__ import annotations

import csv
import math
import random
from collections import Counter, deque
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations
from math import lcm

from poischain import (
    Generator,
    Monomial,
    Polynomial,
    VectorField,
    builtin_sl,
    cartan_subalgebra,
    dual_transport,
    generate,
    invariant_basis,
    is_invariant,
    killing_form,
    leaf_dimension,
    lie_poisson_bracket,
    monomial_basis,
    render_polynomial,
    span_subalgebra,
)
from poischain.algebra import BilinearForm, _linear_forms, _sl_matrix_basis
from poischain.cycles import (
    CycleMonomial,
    ExponentGraph,
    FamilyResult,
    RelationFamiliesReport,
    all_cycles,
    phi_exponent,
    relation_families_check,
)
from poischain.casimir_mf import CommutativityReport
from poischain.chains import (
    CentralityReport,
    JMapReport,
    j_map_components,
)
from poischain.commutant import (
    ClosureEntry,
    ClosureReport,
    GeneratorSet,
    MembershipResult,
    Relation,
    RelationSet,
    _invariance_operators,
    _single_terms,
    _term_levels,
    _zero_weight_levels,
    default_degree_cap,
)
from poischain.flow import FlowDivergenceError, FlowResult
from poischain.linalg import (
    Echelon,
    _eliminate,
    make_primitive,
    canonical_rref,
    nullspace,
    row_from_rationals,
)
from poischain.poly import W, _make, hamiltonian_field, linear_combination, pack, unpack


@contextmanager
def counting_fractions():
    """Count the Fraction instances made inside the block: Fraction.__new__
    is wrapped, and so is Fraction._from_coprime_ints where it exists, which
    builds arithmetic results without __new__.  Yields a function that
    returns the count so far; both are restored when the block ends."""
    made = [0]
    saved = {
        name: Fraction.__dict__[name]
        for name in ("__new__", "_from_coprime_ints")
        if name in Fraction.__dict__
    }
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    Fraction.__new__ = counted_new
    if "_from_coprime_ints" in saved:
        coprime = Fraction._from_coprime_ints.__func__

        def counted_coprime(cls, numerator, denominator):
            made[0] += 1
            return coprime(cls, numerator, denominator)

        Fraction._from_coprime_ints = classmethod(counted_coprime)
    try:
        yield lambda: made[0]
    finally:
        for name, value in saved.items():
            setattr(Fraction, name, value)


def random_polynomial(
    rng: random.Random,
    dim: int,
    max_degree: int = 2,
    n_terms: int = 3,
) -> Polynomial:
    """Small random polynomial with integer coefficients in [-4, 4]."""
    p = Polynomial(dim)
    for _ in range(n_terms):
        deg = rng.randint(0, max_degree)
        exps: dict[int, int] = {}
        for _ in range(deg):
            var = rng.randrange(dim)
            exps[var] = exps.get(var, 0) + 1
        coeff = Fraction(rng.randint(-4, 4))
        p = p + Polynomial(dim, {Monomial(exps.items()): coeff})
    return p


def span_fingerprint(polys) -> list[tuple]:
    """Canonical fingerprint of the rational span of a family of polynomials.

    Columns are keyed by the monomials themselves (not insertion order), so
    fingerprints computed in separate calls are comparable: two families have
    equal fingerprints iff they span the same coefficient subspace.
    """
    polys = [p for p in polys if not p.is_zero()]
    dim = max((p.dim for p in polys), default=1)
    monos = sorted(
        {m for p in polys for m in p.terms}, key=lambda m: (sum(m.dense(dim)), m.dense(dim))
    )
    index = {m: i for i, m in enumerate(monos)}
    vectors = []
    for p in polys:
        vectors.append(row_from_rationals({index[m]: c for m, c in p.terms.items()}))
    basis = canonical_rref(vectors)
    return sorted(
        tuple(sorted((monos[i].exps, Fraction(c, v[min(v)])) for i, c in v.items()))
        for v in basis
    )


def same_span(polys_a, polys_b) -> bool:
    return span_fingerprint(polys_a) == span_fingerprint(polys_b)


def rendered_set(gens, labels) -> set[str]:
    """Render every generator polynomial against coordinate labels."""
    return {g.poly.render(labels) for g in gens.generators}


def full_basis_invariants(alg, sub, k: int) -> list[Polynomial]:
    """Reference route for invariant_basis: start from every degree-k
    monomial and intersect the kernels of the subalgebra's operators one at a
    time, then take the reduced echelon basis with graded-lex pivots.  The
    operator of H is p -> {l_H, p}, by the double-sum bracket below."""
    if k == 0:
        return [Polynomial.one(alg.dim)]
    basis = [Polynomial(alg.dim, {m: 1}) for m in monomial_basis(alg.dim, k)]
    for vec in sub.vectors:
        l_h = alg.linear_form(vec)
        rows: dict[Monomial, dict[int, Fraction]] = {}
        for col, p in enumerate(basis):
            image = double_sum_bracket(l_h, p, alg)
            for m, c in image.terms.items():
                rows.setdefault(m, {})[col] = c
        kernel = nullspace(
            [row_from_rationals(r) for r in rows.values()], len(basis)
        )
        basis = [
            sum((basis[col].scale(c) for col, c in v.items()), Polynomial(alg.dim))
            for v in kernel
        ]
    monos = monomial_basis(alg.dim, k)  # graded-lex descending: column order
    index = {m: i for i, m in enumerate(monos)}
    reduced = canonical_rref(
        row_from_rationals({index[m]: c for m, c in p.terms.items()}) for p in basis
    )
    return [
        Polynomial(alg.dim, {monos[i]: Fraction(c, v[min(v)]) for i, c in v.items()})
        for v in reduced
    ]


def gauss_jordan_rows(rows) -> dict[int, dict[int, int]]:
    """Reference one-row Gauss-Jordan: each row is reduced against the
    stored rows, made primitive, stored under its least column, and at once
    cleared from every other stored row, so the stored rows are mutually
    reduced after every insertion.  Returns pivot -> row."""
    stored: dict[int, dict[int, int]] = {}
    for row in rows:
        r = dict(row)
        for col in sorted(c for c in r if c in stored):
            _eliminate(r, stored[col], col)
        if not r:
            continue
        piv = min(r)
        make_primitive(r)
        for prow in stored.values():
            if piv in prow:
                _eliminate(prow, r, piv)
        stored[piv] = r
    return stored


def tagged_solve(rows, target) -> list[Fraction] | None:
    """Coefficients c with sum(c_i * rows_i) == target, or None, by tag
    columns, the solve reference_membership makes: row i carries a unit tag
    at column -2 - i and the target one at -1, below every column of the
    rows, and every nonnegative column is eliminated by one-row
    Gauss-Jordan.  A dependent row reduces to tags alone and is dropped, so
    later dependent rows get coefficient zero; the target reduced to tags
    alone records its expression."""
    stored: dict[int, dict[int, int]] = {}

    def reduce(r):
        for col in sorted(c for c in r if c in stored):
            _eliminate(r, stored[col], col)

    for i, row in enumerate(rows):
        r = dict(row)
        r[-2 - i] = 1
        reduce(r)
        real = [c for c in r if c >= 0]
        if not real:
            continue
        piv = min(real)
        make_primitive(r)
        for prow in stored.values():
            if piv in prow:
                _eliminate(prow, r, piv)
        stored[piv] = r
    goal = dict(target)
    goal[-1] = 1
    reduce(goal)
    if any(c >= 0 for c in goal):
        return None
    return [Fraction(-goal.get(-2 - i, 0), goal[-1]) for i in range(len(rows))]


def tagged_inverse(matrix) -> list[list[Fraction]] | None:
    """Reference inverse, or None when singular: row j of the inverse is
    the c with c . matrix = e_j, solved by tagged_solve on the rows scaled
    to integers."""
    scales = [lcm(*(Fraction(v).denominator for v in dense)) for dense in matrix]
    rows = [
        {c: int(v * s) for c, v in enumerate(dense) if v}
        for dense, s in zip(matrix, scales)
    ]
    out = []
    for j in range(len(matrix)):
        coeffs = tagged_solve(rows, {j: 1})
        if coeffs is None:
            return None
        out.append([c * s for c, s in zip(coeffs, scales)])
    return out


def double_sum_bracket(p: Polynomial, q: Polynomial, alg) -> Polynomial:
    """Reference Lie-Poisson bracket: the sum over coordinate pairs of
    d_i(p) * d_j(q) * {x_i, x_j}."""
    out = Polynomial(alg.dim)
    for i in sorted(p.variables()):
        dpi = p.partial_derivative(i)
        for j in sorted(q.variables()):
            cb = Polynomial(
                alg.dim,
                {Monomial([(k, 1)]): c for k, c in alg.bracket_coeffs(i, j).items()},
            )
            if not cb.is_zero():
                out = out + dpi * q.partial_derivative(j) * cb
    return out


def reference_killing_form(alg) -> list[tuple[Fraction, ...]]:
    """Reference Killing matrix: for every (i, j), the double sum over the
    nonzero C_iab of C_iab * C_jba, looked up in the bracket rows."""
    rows, den = alg.bracket_rows()
    matrix = []
    for i in range(alg.dim):
        row = []
        for j in range(alg.dim):
            total = 0
            for a, outs in rows[i].items():
                for b, c in outs.items():
                    c2 = rows[j].get(b, {}).get(a)
                    if c2:
                        total += c * c2
            row.append(Fraction(total, den * den))
        matrix.append(tuple(row))
    return matrix


def dense_form(form) -> list[tuple[Fraction, ...]]:
    """A BilinearForm's integer rows over its denominator as a dense
    Fraction matrix, in the layout of reference_killing_form."""
    return [
        tuple(Fraction(row.get(j, 0), form.den) for j in range(len(form.rows)))
        for row in form.rows
    ]


def dense_inverse(inverse, n: int) -> list[list[Fraction]]:
    """matrix_inverse's (integer row, denominator) pairs as a dense
    Fraction matrix."""
    return [[Fraction(row.get(i, 0), d) for i in range(n)] for row, d in inverse]


def trace_form_sl(n: int) -> BilinearForm:
    """The defining-representation trace form of sl(n)."""
    mats, _ = _sl_matrix_basis(n)
    rows = tuple(
        {j: t for j, mb in enumerate(mats)
         if (t := sum(v * mb.get((c, r), 0) for (r, c), v in ma.items()))}
        for ma in mats
    )
    return BilinearForm(rows)


def form_invariance_witness(alg, form: BilinearForm) -> tuple[str, str, str] | None:
    """First basis triple violating B([z,x],y) + B(x,[z,y]) = 0, if any."""
    rows, _ = alg.bracket_rows()
    m = form.rows
    for z in range(alg.dim):
        for x in range(alg.dim):
            zx = rows[z].get(x, {})
            for y in range(alg.dim):
                zy = rows[z].get(y, {})
                if sum(c * m[k].get(y, 0) for k, c in zx.items()) + sum(
                    c * m[x].get(k, 0) for k, c in zy.items()
                ):
                    return (alg.labels[z], alg.labels[x], alg.labels[y])
    return None


def dual_transport_inverse(alg, form: BilinearForm, p: Polynomial) -> Polynomial:
    """Inverse of dual_transport (substitute x_i -> sum_j B_ij coordinate_j)."""
    return p.substitute_linear(_linear_forms(alg.dim, [(r, form.den) for r in form.rows]))


def reference_jacobi_witness(alg) -> tuple[str, str, str, str] | None:
    """Reference Jacobi scan: every triple i < j < k whose three brackets
    are not all zero, summed term by term; the labels of the first failing
    triple and of its smallest nonzero coordinate, or None."""
    rows, _ = alg.bracket_rows()
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            ij = rows[i].get(j)
            for k in range(j + 1, alg.dim):
                jk, ki = rows[j].get(k), rows[k].get(i)
                if not (ij or jk or ki):
                    continue
                total: dict[int, int] = {}
                for a, inner in ((i, jk), (j, ki), (k, ij)):
                    for m, x in (inner or {}).items():
                        for l, y in rows[a].get(m, {}).items():
                            total[l] = total.get(l, 0) + x * y
                bad = min((l for l, v in total.items() if v), default=None)
                if bad is not None:
                    labels = alg.labels
                    return (labels[i], labels[j], labels[k], labels[bad])
    return None


def reference_linear_form(alg, vec) -> Polynomial:
    """Reference linear form: one Monomial per coordinate."""
    return Polynomial(alg.dim, {Monomial([(i, 1)]): v for i, v in enumerate(vec)})


def rank_of_matrix(matrix) -> int:
    """Reference rank of a dense rational matrix, by Gaussian elimination
    over Fractions (the library ranks only integer rows)."""
    m = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            factor = m[r][col] / m[rank][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def reference_det(matrix) -> Fraction:
    """Reference determinant by Gaussian elimination over Fractions with row
    swaps (the library's det_exact is fraction free)."""
    n = len(matrix)
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


def rescaled_sl_json(n: int, factor: int = 2) -> dict:
    """The JSON of builtin_sl(n) in the basis h_i, factor * e_ij: the same
    labels on the constants C_ijk * s_i * s_j / s_k, with s = 1 on each h_i
    and s = factor on each e_ij.  Isomorphic to sl(n), but not its built-in
    structure constants."""
    data = builtin_sl(n).to_json()
    scale = [1 if label.startswith("h") else factor for label in data["labels"]]
    for entry in data["structure"]:
        i, j, k = entry["i"], entry["j"], entry["k"]
        entry["c"] = str(Fraction(entry["c"]) * scale[i] * scale[j] / scale[k])
    return data


def commutator_matrix(alg, point) -> list[list[Fraction]]:
    """Reference A_ij(x) = sum_k C_ijk x_k, dense, from the rational
    structure constants."""
    return [
        [
            sum((c * point[k] for k, c in alg.bracket_coeffs(i, j).items()), Fraction(0))
            for j in range(alg.dim)
        ]
        for i in range(alg.dim)
    ]


def jacobian_matrix(polys, point) -> list[list[Fraction]]:
    """Reference Jacobian: each partial derivative evaluated at the point."""
    return [
        [p.partial_derivative(v).evaluate(point) for v in range(p.dim)] for p in polys
    ]


def expand_formal(gens, pairs) -> Polynomial:
    """Reference expansion of a formal generator monomial, given by its
    (generator index, exponent) pairs as poly.unpack returns them: the
    product of the generator powers, each formed afresh by repeated
    multiplication."""
    acc = Polynomial.one(gens.algebra.dim)
    for i, e in pairs:
        acc = acc * gens.generators[i].poly.power(e)
    return acc


# ---------------------------------------------------------------------------
# reference arithmetic: plain {dense exponent tuple: Fraction} dicts, with
# none of the packed-key machinery of poischain.poly


def polynomial_to_json(p: Polynomial) -> list[dict]:
    """JSON form: a list of {coeff, exps} objects with 0-based variable keys."""
    return [
        {"coeff": str(Fraction(p.num[key], p.den)),
         "exps": {str(v): e for v, e in unpack(key, p.dim)}}
        for key in sorted(p.num, reverse=True)
    ]


def random_reference(rng: random.Random, dim: int, n_terms: int = 4, max_degree: int = 3):
    """A random reference polynomial with small rational coefficients."""
    out: dict[tuple[int, ...], Fraction] = {}
    for _ in range(n_terms):
        exps = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(dim)] += 1
        coeff = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 12)))
        if coeff:
            out[tuple(exps)] = coeff
    return out


def from_reference(ref, dim: int) -> Polynomial:
    return Polynomial(
        dim, {Monomial((v, e) for v, e in enumerate(exps)): c for exps, c in ref.items()}
    )


def to_reference(p: Polynomial) -> dict[tuple[int, ...], Fraction]:
    return {m.dense(p.dim): c for m, c in p.terms.items()}


def ref_add(a, b):
    out = dict(a)
    for exps, c in b.items():
        out[exps] = out.get(exps, 0) + c
    return {exps: c for exps, c in out.items() if c}


def ref_mul(a, b):
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            out[exps] = out.get(exps, 0) + ca * cb
    return {exps: c for exps, c in out.items() if c}


def ref_partial(a, var: int):
    out = {}
    for exps, c in a.items():
        if exps[var]:
            out[exps[:var] + (exps[var] - 1,) + exps[var + 1:]] = c * exps[var]
    return out


def ref_substitute(a, images, target_dim: int):
    """Substitute variable i by the reference polynomial images[i]."""
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, c in a.items():
        piece = {(0,) * target_dim: c}
        for var, e in enumerate(exps):
            for _ in range(e):
                piece = ref_mul(piece, images[var])
        out = ref_add(out, piece)
    return out


def ref_graded_lex(a) -> list[tuple[int, ...]]:
    """The exponent tuples in graded-lex descending order: higher total
    degree first, then lexicographic with x1 > x2 > ... > xn."""
    return sorted(a, key=lambda exps: (sum(exps), exps), reverse=True)


def _compile_terms(p: Polynomial) -> list[tuple[float, tuple[tuple[int, int], ...]]]:
    return [(p.num[k] / p.den, unpack(k, p.dim)) for k in sorted(p.num, reverse=True)]


def _eval_terms(terms, x) -> float:
    total = 0.0
    for coeff, exps in terms:
        v = coeff
        for var, e in exps:
            v *= x[var] ** e
        total += v
    return total


def _rk4_step(f, x: list[float], dt: float) -> list[float]:
    k1 = f(x)
    k2 = f([xi + 0.5 * dt * ki for xi, ki in zip(x, k1)])
    k3 = f([xi + 0.5 * dt * ki for xi, ki in zip(x, k2)])
    k4 = f([xi + dt * ki for xi, ki in zip(x, k3)])
    return [
        xi + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    ]


def reference_integrate(problem):
    """Fixed-step RK4 with term-list evaluation: every polynomial is a list of
    (float coefficient, exponents) walked term by term.  Reference for
    `flow.integrate`, which must return exactly the same floats."""
    field = [_compile_terms(c) for c in
             hamiltonian_field(problem.hamiltonian, problem.algebra)]

    def f(x):
        return [_eval_terms(c, x) for c in field]

    monitors = [("H", problem.hamiltonian)] + list(problem.monitors)
    labels = [name for name, _ in monitors]
    compiled = [_compile_terms(p) for _, p in monitors]
    steps = max(1, round(problem.t_final / problem.dt))
    sample_stride = max(1, steps // 1000)
    x = [float(v) for v in problem.x0]
    initial = [_eval_terms(c, x) for c in compiled]
    drifts = [0.0] * len(monitors)
    times, states, values = [0.0], [list(x)], [list(initial)]
    for i in range(1, steps + 1):
        t = i * problem.dt
        try:
            x = _rk4_step(f, x, problem.dt)
        except OverflowError:
            raise FlowDivergenceError(t)
        if not all(math.isfinite(v) for v in x):
            raise FlowDivergenceError(t)
        try:
            current = [_eval_terms(c, x) for c in compiled]
        except OverflowError:
            raise FlowDivergenceError(t)
        if not all(math.isfinite(v) for v in current):
            raise FlowDivergenceError(t)
        for j, (v, v0) in enumerate(zip(current, initial)):
            drifts[j] = max(drifts[j], abs(v - v0))
        if i % sample_stride == 0 or i == steps:
            times.append(t)
            states.append(list(x))
            values.append(current)
    return FlowResult(
        times=times,
        states=states,
        monitor_labels=labels,
        monitor_values=values,
        drifts=dict(zip(labels, drifts)),
        steps=steps,
        dt=problem.dt,
    )


def reference_write_trajectory_csv(path, alg, result) -> None:
    """The trajectory CSV through csv.writer, one row at a time.  Reference
    for `cli._write_trajectory_csv`, which must write the same bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *alg.labels, *result.monitor_labels])
        for t, state, values in zip(result.times, result.states, result.monitor_values):
            writer.writerow([repr(t), *map(repr, state), *map(repr, values)])


# ---------------------------------------------------------------------------
# pairwise bracket checks, one lie_poisson_bracket call per pair


def reference_base_center_check(spec) -> CentralityReport:
    alg = spec.algebra
    failures = []
    count = 0
    for b in spec.base.generators:
        for a in spec.intermediate.generators:
            count += 1
            br = lie_poisson_bracket(b.poly, a.poly, alg)
            if not br.is_zero():
                failures.append(
                    {
                        "base": b.label,
                        "intermediate": a.label,
                        "bracket": render_polynomial(br, alg.labels),
                    }
                )
    return CentralityReport(pair_count=count, failures=failures)


def reference_j_map_casimir_check(alg) -> JMapReport:
    cap = default_degree_cap(alg)
    torus = generate(alg, cartan_subalgebra(alg), cap)
    components = j_map_components(alg, max_degree=cap)
    failures = []
    zero_count = 0
    for name, comp in components:
        for g in torus.generators:
            br = lie_poisson_bracket(comp, g.poly, alg)
            if br.is_zero():
                zero_count += 1
            else:
                failures.append(
                    {
                        "component": name,
                        "generator": g.label,
                        "bracket": render_polynomial(br, alg.labels),
                    }
                )
    return JMapReport(
        components=[name for name, _ in components],
        generator_labels=torus.labels(),
        zero_bracket_count=zero_count,
        failures=failures,
        leaf_dim=leaf_dimension(alg),
    )


def reference_mf_commutativity_check(mf) -> CommutativityReport:
    bad = []
    count = 0
    gens = mf.generators
    for i, gi in enumerate(gens):
        for gj in gens[i + 1 :]:
            count += 1
            if not lie_poisson_bracket(gi.poly, gj.poly, mf.algebra).is_zero():
                bad.append((gi.label, gj.label))
    return CommutativityReport(pair_count=count, nonzero_pairs=bad)


def reference_bracket_closure_check(gens) -> ClosureReport:
    alg = gens.algebra
    entries = []
    for i, gi in enumerate(gens.generators):
        for gj in gens.generators[i:]:
            br = lie_poisson_bracket(gi.poly, gj.poly, alg)
            if br.is_zero():
                entries.append(ClosureEntry(gi.label, gj.label, True, True, None, None))
                continue
            result = reference_membership(br, gens, gi.degree + gj.degree - 1)
            entries.append(
                ClosureEntry(
                    gi.label,
                    gj.label,
                    False,
                    result.found,
                    render_polynomial(result.expression, gens.labels())
                    if result.found
                    else None,
                    result.status,
                )
            )
    return ClosureReport(entries)


# ---------------------------------------------------------------------------
# relations, membership and new generators by products and elimination, for
# every generator set: the general route, with no single-term shortcut


def formal_products(weights, d: int, polys=None) -> list[tuple[int, Polynomial | None]]:
    """(formal key, product) for each multiset of generator indices of
    weight sum d, by a plain recursive walk over the indices in increasing
    order with no count pruning, graded-lex descending by key; the product
    is None without polys or for the empty multiset."""
    keys = [pack(((i, 1),), len(weights)) for i in range(len(weights))]
    out = []

    def walk(start, left, key, prod):
        if not left:
            out.append((key, prod))
            return
        for i in range(start, len(weights)):
            if weights[i] <= left:
                factor = None if polys is None else polys[i]
                longer = factor if prod is None else prod * factor
                walk(i, left - weights[i], key + keys[i], longer)

    walk(0, d, 0, None)
    return sorted(out, key=lambda pair: pair[0], reverse=True)


def formal_keys(weights, d: int) -> list[int]:
    """The keys of formal_products, with no product."""
    return [key for key, _ in formal_products(weights, d)]


def homogeneous_components(p: Polynomial) -> dict[int, Polynomial]:
    """The homogeneous components of p by increasing degree, each over p's
    denominator reduced."""
    shift = W * p.dim
    buckets: dict[int, dict[int, int]] = {}
    for k, v in p.num.items():
        buckets.setdefault(k >> shift, {})[k] = v
    return {d: _make(p.dim, t, p.den) for d, t in sorted(buckets.items())}


def reference_relation_basis(gens, max_total_degree: int) -> RelationSet:
    """relation_basis with no Jacobian certificate and no budget: at each
    weighted degree, the kernel of the expanded products by elimination,
    less the multiples of lower relations, in canonical form."""
    weights = gens.degrees()
    nformal = len(gens.generators)
    found = RelationSet(gens.labels(), weights, max_total_degree, [])
    for d in range(1, max_total_degree + 1):
        products = formal_products(weights, d, gens.polys())
        cols = [key for key, _ in products]
        col_index = {key: i for i, key in enumerate(cols)}
        images = [(col_index[key], prod) for key, prod in products]
        kernel = kernel_of_images(images, len(cols))
        if not kernel:
            continue
        old = Echelon()
        for rel in found.relations:
            for mult in formal_keys(weights, d - rel.weighted_degree):
                old.insert({col_index[key + mult]: v for key, v in rel.formal.num.items()})
        fresh = []
        for vec in kernel:
            red = old.reduce(vec)
            if red:
                old.insert(dict(red))
                fresh.append(_keyed_poly(cols, red, nformal))
        for formal in canonical_polys(fresh, nformal):
            found.relations.append(Relation(weighted_degree=d, formal=formal))
    return found


def levi_subalgebra(alg, blocks):
    """The block-diagonal Levi subalgebra s(gl_n1 + gl_n2 + ...) of the
    built-in sl(n), n = sum(blocks) at most 9, spanned by the Cartan and the
    matrix units e_ij with i != j in one block."""
    n, start, labels = sum(blocks), 1, []
    for size in blocks:
        block = range(start, start + size)
        labels += [f"e{i}{j}" for i in block for j in block if i != j]
        start += size
    labels = [f"h{i}" for i in range(1, n)] + labels
    return span_subalgebra([
        [Fraction(int(j == alg.labels.index(label))) for j in range(alg.dim)]
        for label in labels
    ])


def summed_torus_set(n: int) -> GeneratorSet:
    """The sl(n) torus generators through degree n with the first degree-2
    generator replaced by its sum with the second: a graded change of
    generators, so the relations per weighted degree keep their number, and
    a two-term member, so relation_basis takes the general route."""
    alg = builtin_sl(n)
    gens = list(generate(alg, cartan_subalgebra(alg), n).generators)
    a, b = [i for i, g in enumerate(gens) if g.degree == 2][:2]
    gens[a] = Generator(gens[a].poly + gens[b].poly, 2, gens[a].label)
    return GeneratorSet(algebra=alg, generators=gens)


def _keyed_poly(cols, row, dim: int) -> Polynomial:
    """The polynomial with coefficient v on the monomial key cols[c] for
    each (c, v) of the row."""
    return linear_combination(
        dim,
        ((v, Polynomial(dim, {Monomial(unpack(cols[c], dim)): 1})) for c, v in row.items()),
    )


def reference_membership(p: Polynomial, gens, max_total_degree: int) -> MembershipResult:
    """membership by one tagged_solve per homogeneous component over every
    generator product of its degree, in column order: a product dependent on
    the products before it gets coefficient zero."""
    deg = p.degree
    if deg is not None and deg > max_total_degree:
        return MembershipResult("not_found_up_to_budget")
    if gens.subalgebra is not None and not is_invariant(gens.algebra, gens.subalgebra, p):
        return MembershipResult("not_invariant")
    nformal = len(gens.generators)
    expression = Polynomial(nformal)
    for d, component in homogeneous_components(p).items():
        if d == 0:
            constant = Fraction(component.num[0], component.den)
            expression = expression + Polynomial.constant(constant, nformal)
            continue
        products = formal_products(gens.degrees(), d, gens.polys())
        coeffs = tagged_solve([prod.num for _, prod in products], component.num)
        if coeffs is None:
            return MembershipResult("not_found_up_to_budget")
        for (key, prod), c in zip(products, coeffs):
            coeff = c * prod.den / component.den
            term = Polynomial(nformal, {Monomial(unpack(key, nformal)): coeff})
            expression = expression + term
    return MembershipResult("found", expression)


def reference_indecomposables(alg, k: int, previous, invariant) -> list[Polynomial]:
    """indecomposables by elimination: the invariants, in order, that are
    independent of the products of the earlier generators and of the
    invariants kept before them, each reduced and made monic.  Columns are
    the invariants' monomials graded-lex descending, then any other product
    monomial as it comes."""
    inv = list(invariant)
    keys = sorted({key for b in inv for key in b.num}, reverse=True)
    index = {key: i for i, key in enumerate(keys)}
    lower = sorted((g for g in previous if g.degree < k), key=lambda g: (g.degree, g.label))

    def row(poly):
        for key in poly.num:
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
        return {index[key]: v for key, v in poly.num.items()}

    ech = Echelon()
    for _, prod in formal_products([g.degree for g in lower], k, [g.poly for g in lower]):
        ech.insert(row(prod))
    out = []
    for b in inv:
        red = ech.reduce(row(b))
        if not red:
            continue
        ech.insert(dict(red))
        out.append(_keyed_poly(keys, red, alg.dim).monic())
    return out


def term_level_indecomposables(alg, k: int, previous, invariant) -> list[Polynomial]:
    """indecomposables on single-term sets as it read the top level of
    _term_levels, one entry per formal monomial: the invariant monomials, in
    order, whose keys are no product's key and no earlier kept key's."""
    lower = sorted((g for g in previous if g.degree < k), key=lambda g: (g.degree, g.label))
    terms = _single_terms(lower)
    levels = _term_levels([g.degree for g in lower], terms, k)
    (_, level), = deque(levels, maxlen=1)
    made = {entry[1] for entry in level}
    out = []
    for b in invariant:
        (key,) = b.num
        if key not in made:
            made.add(key)
            out.append(b.monic())
    return out


def term_level_solve_by_factors(weights, terms, p: Polynomial) -> Polynomial | None:
    """_solve_by_factors as it read the top level of _term_levels, one
    homogeneous component at a time (_term_level_component), the constant
    term as it is, and the parts summed; None when some component has no
    solution."""
    nformal = len(weights)
    parts = []
    for d, component in homogeneous_components(p).items():
        if d == 0:
            part = _make(nformal, component.num, component.den)  # key 0 in any dimension
        else:
            part = _term_level_component(weights, terms, d, component)
        if part is None:
            return None
        parts.append((1, part))
    return linear_combination(nformal, parts)


def _term_level_component(weights, terms, degree: int, component) -> Polynomial | None:
    """One homogeneous component as the top level of _term_levels reads it:
    each term goes to the entry of greatest formal key among those of its
    monomial; None when some term has none."""
    best = {}
    (_, level), = deque(_term_levels(weights, terms, degree), maxlen=1)
    for entry in level:
        if entry[1] in component.num and entry > best.get(entry[1], (0,)):
            best[entry[1]] = entry
    if len(best) < len(component.num):
        return None
    scale = lcm(*(num for _, _, num, _, _ in best.values()))
    return _make(len(weights), {
        formal: component.num[key] * den * (scale // num)
        for formal, key, num, den, _ in best.values()
    }, component.den * scale)


def reference_generate(alg, sub, max_degree: int):
    """generate with reference_indecomposables for the new generators."""
    gens = []
    for k in range(1, max_degree + 1):
        fresh = reference_indecomposables(alg, k, gens, invariant_basis(alg, sub, k))
        for idx, poly in enumerate(fresh, start=1):
            label = f"q{k}_{idx}" if len(fresh) > 1 else f"q{k}"
            gens.append(Generator(poly=poly, degree=k, label=label))
    return gens


# ---------------------------------------------------------------------------
# cycle combinatorics from the sl(n) index arithmetic, without the basis
# matrices


def reference_edge_index(n: int) -> dict[tuple[int, int], int]:
    """Coordinate index of x_{ij} in the built-in sl(n) basis (1-based i, j):
    the n - 1 Cartan coordinates, then the matrix units row by row."""
    out = {}
    idx = n - 1
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                out[(i, j)] = idx
                idx += 1
    return out


def reference_cycle_polynomial(cycle, n: int) -> Polynomial:
    """The product of the coordinates of the cycle's edges (i, j), from each
    index to the next, by reference_edge_index."""
    index = reference_edge_index(n)
    counts: dict[int, int] = {}
    idx = cycle.indices
    for e in zip(idx, idx[1:] + idx[:1]):
        v = index[e]
        counts[v] = counts.get(v, 0) + 1
    return Polynomial(n * n - 1, {Monomial(counts.items()): 1})


def reference_balanced_keys(alg, k: int) -> list[int]:
    """Reference route for the oracle's balanced monomials: every monomial of
    degree k, kept when its exponent graph is balanced; keys ascending."""
    return sorted(
        pack(m.exps, alg.dim)
        for m in monomial_basis(alg.dim, k)
        if ExponentGraph.from_monomial(m, alg).is_balanced()
    )


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


def reference_relation_families(n: int) -> RelationFamiliesReport:
    """Reference route for relation_families_check: the three families on
    expanded Polynomial products of the cycle monomials."""
    dim = n * n - 1
    one = Polynomial.one(dim)

    def cycle(*indices) -> Polynomial:
        return CycleMonomial(tuple(indices)).polynomial(n)

    failures_i, checked_i = [], 0
    for k in range(2, n + 1):
        for tup in permutations(range(1, n + 1), k):
            checked_i += 1
            lhs = math.prod(
                (cycle(a, b) for a, b in zip(tup, tup[1:] + tup[:1])), start=one
            )
            rhs = cycle(*tup) * cycle(tup[0], *reversed(tup[1:]))
            if lhs != rhs:
                failures_i.append(f"tuple {tup}")
    all_pairs = math.prod(
        (cycle(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)), start=one
    )
    conventions = {
        r.family: (r.convention, r.skipped)
        for r in relation_families_check(n).results
    }
    results = [FamilyResult("i", checked_i, failures_i, conventions["i"][0])]
    if n < 3:
        results.append(FamilyResult("ii", 0, [], *conventions["ii"]))
    else:
        chords = [
            cycle(i, j)
            for i in range(1, n + 1)
            for j in range(i + 2, n + 1)
            if not (i == 1 and j == n)
        ]
        rhs = math.prod(chords, start=cycle(*range(1, n + 1)) * cycle(1, *range(n, 1, -1)))
        failures = [] if all_pairs == rhs else ["all-pairs instance"]
        results.append(FamilyResult("ii", 1, failures, conventions["ii"][0]))
    failures_iii = []
    for k in range(2, n + 1):
        lhs = math.prod((c.polynomial(n) for c in all_cycles(n, k)), start=one)
        if lhs != all_pairs.power(phi_exponent(n, k)):
            failures_iii.append(f"k = {k}")
    results.append(FamilyResult("iii", n - 1, failures_iii, conventions["iii"][0]))
    return RelationFamiliesReport(n=n, results=results)


def reference_trace_casimirs(n: int, max_k: int) -> list[Polynomial]:
    """Reference route for trace_casimirs_sln: the generic traceless matrix
    in bare coordinates, each power by one more full matrix product, and
    each finished trace moved to dual coordinates by dual_transport, then
    made monic."""
    alg = builtin_sl(n)
    form = killing_form(alg)
    zero = Polynomial(alg.dim)
    matrix = [[zero] * n for _ in range(n)]
    for i, mat in enumerate(_sl_matrix_basis(n)[0]):
        for (r, c), v in mat.items():
            matrix[r][c] = matrix[r][c] + Polynomial.variable(i, alg.dim).scale(v)
    out = []
    power = matrix
    for _ in range(2, max_k + 1):
        power = [
            [sum((power[r][t] * matrix[t][c] for t in range(n)), zero) for c in range(n)]
            for r in range(n)
        ]
        trace = sum((power[r][r] for r in range(n)), zero)
        out.append(dual_transport(alg, form, trace).monic())
    return out


def reference_is_invariant(alg, sub, p: Polynomial) -> bool:
    """Reference route for is_invariant: apply the Hamiltonian field of every
    spanning vector of the subalgebra to p, with no diagonal or raising
    classification."""
    return all(
        VectorField(hamiltonian_field(alg.linear_form(vec), alg))(p).is_zero()
        for vec in sub.vectors
    )


def zero_weight_counts(weights, kmax: int) -> list[int]:
    """counts[k], k = 0..kmax: the number of degree-k monomials of weight
    zero, sum_v e_v * weights[v] = 0, from a tally of the (degree, weight)
    states of the monomials in the first coordinates, one coordinate at a
    time, with no monomial listed."""
    zero = tuple(0 for _ in weights[0]) if weights else ()
    states = Counter({(0, zero): 1})
    for wt in weights:
        grown: Counter = Counter()
        for (d, w), count in states.items():
            for e in range(kmax - d + 1):
                grown[d + e, tuple(a + e * b for a, b in zip(w, wt))] += count
        states = grown
    return [states[k, zero] for k in range(kmax + 1)]


def reference_invariant_basis(alg, sub, k: int) -> list[Polynomial]:
    """Reference route for the chain of invariant_basis, the one it took
    before it ran on integer vectors: the zero-weight monomials as
    polynomials, cut by one kernel_of_map per non-diagonal field, each
    image a polynomial, then normalized by canonical_polys."""
    if k == 0:
        return [Polynomial.one(alg.dim)]
    ops = _invariance_operators(alg, sub)
    basis = [
        Polynomial(alg.dim, {Monomial(unpack(key, alg.dim)): 1})
        for key in _zero_weight_levels(ops.weights, k)[k]
    ]
    if not ops.others:
        return basis
    for _, field in ops.others:
        if not basis:
            break
        basis = kernel_of_map(basis, field)
    return canonical_polys(basis, alg.dim)


def reference_poisson_center_basis(alg, sub, gens, k: int) -> list[Polynomial]:
    """Reference route for poisson_center_basis, the polynomial route it took
    before it ran on integer rows: reference_invariant_basis, cut by one
    kernel_of_map per Hamiltonian field of a generator, then normalized by
    canonical_polys."""
    basis = reference_invariant_basis(alg, sub, k)
    for g in gens.generators:
        if not basis:
            break
        basis = kernel_of_map(basis, VectorField(hamiltonian_field(g.poly, alg)))
    return canonical_polys(basis, alg.dim)


# ---------------------------------------------------------------------------
# the polynomial-image kernel and canonical basis the reference routes were
# written against, kept here as their own code


def kernel_of_images(images, ncols: int) -> list[dict[int, int]]:
    """Kernel of the linear map sending column i to its image polynomial,
    given as (i, image) pairs in any order.  The rows hold the images'
    integer numerators, so column i is image i times its denominator d_i; a
    kernel vector x of that matrix gives the kernel vector (d_i * x_i) of
    the map, to be normalized by the caller."""
    rows: dict[int, dict[int, int]] = {}
    dens: dict[int, int] = {}
    for col, img in images:
        dens[col] = img.den
        for key, v in img.num.items():
            rows.setdefault(key, {})[col] = v
    return [
        {c: v * dens.get(c, 1) for c, v in vec.items()}
        for vec in nullspace(rows.values(), ncols)
    ]


def kernel_of_map(basis, image_of) -> list[Polynomial]:
    """Basis of the kernel of a linear map given by the images of a
    nonempty basis of polynomials."""
    images = [image_of(p) for p in basis]
    if all(img.is_zero() for img in images):
        return list(basis)
    dim = basis[0].dim
    return [
        linear_combination(dim, ((c, basis[col]) for col, c in vec.items()))
        for vec in kernel_of_images(enumerate(images), len(basis))
    ]


def canonical_polys(polys, dim: int) -> list[Polynomial]:
    """The reduced echelon basis of the span of the polynomials, with
    graded-lex pivots: equal spans give equal lists."""
    keys = sorted({k for p in polys for k in p.num}, reverse=True)
    index = {k: i for i, k in enumerate(keys)}
    # a row holds the numerators of one polynomial, which spans the same line
    reduced = canonical_rref({index[k]: v for k, v in p.num.items()} for p in polys)
    return [_make(dim, {keys[c]: v for c, v in row.items()}, row[min(row)]) for row in reduced]
