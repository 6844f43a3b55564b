"""Acceptance gate: one test per numbered criterion.

Each test prints exactly one `[criterion NN] label: PASS|FAIL` line (visible
with `pytest -s`; under plain pytest the per-test PASSED/FAILED line carries
the same information) and then asserts, so a red criterion names every
sub-check that missed.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from poischain import (
    DEFAULT_SEED,
    FlowProblem,
    Polynomial,
    balance_check,
    builtin_sl,
    cartan_subalgebra,
    casimirs_by_kernel,
    enumerate_cycle_generators,
    integrate,
    is_invariant,
    j_map_casimir_check,
    killing_form,
    leaf_dimension,
    lie_poisson_bracket,
    mf_chain,
    mf_commutativity_check,
    mf_generators,
    mf_inclusion_check,
    mf_rank_check,
    moment_map_base,
    observed_order,
    parse_polynomial,
    relation_basis,
    span_subalgebra,
    torus_chain,
    trace_casimirs_sln,
)
from poischain.cli import EXIT_OK, main
from poischain.poly import Monomial

from helpers import form_invariance_witness, random_polynomial, same_span

F = Fraction


def _verdict(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {label}: {status}")
    assert not failures, f"criterion {num:02d} ({label}): " + "; ".join(failures)


def test_criterion_01_torus_chain_ranks_sl2_sl3_sl4():
    bad = []
    for n in (2, 3, 4):
        t0 = time.monotonic()
        rep = torus_chain(builtin_sl(n))
        elapsed = time.monotonic() - t0
        if rep.trdeg_intermediate != n * (n - 1):
            bad.append(f"sl({n}) trdeg intermediate {rep.trdeg_intermediate}")
        if rep.trdeg_base != n - 1:
            bad.append(f"sl({n}) trdeg base {rep.trdeg_base}")
        if rep.trdeg_intermediate + rep.trdeg_base != n * n - 1:
            bad.append(f"sl({n}) sum != {n * n - 1}")
        if rep.verdict != "superintegrable":
            bad.append(f"sl({n}) verdict {rep.verdict}")
        if n == 4 and elapsed >= 120.0:
            bad.append(f"sl(4) took {elapsed:.1f}s (budget 120s)")
    _verdict(1, "torus chain ranks n(n-1) + (n-1) = n^2 - 1", bad)


def test_criterion_02_sl3_generator_census_and_relation(sl3, sl3_torus):
    bad = []
    if sorted(g.degree for g in sl3_torus.generators) != [1, 1, 2, 2, 2, 3, 3]:
        bad.append(f"kernel census degrees {sorted(g.degree for g in sl3_torus.generators)}")
    cycles = enumerate_cycle_generators(3)
    by_len = {1: 0, 2: 0, 3: 0}
    for g in cycles.generators:
        by_len[g.degree] += 1
    if (by_len[1], by_len[2], by_len[3]) != (2, 3, 2):
        bad.append(f"cycle census composition {by_len}")
    for d in (1, 2, 3):
        ours = [g.poly for g in sl3_torus.generators if g.degree == d]
        theirs = [g.poly for g in cycles.generators if g.degree == d]
        if not same_span(ours, theirs):
            bad.append(f"kernel/cycle spans differ in degree {d}")
    rel = relation_basis(cycles, 6)
    if len(rel.relations) != 1:
        bad.append(f"{len(rel.relations)} relations (expected 1)")
    else:
        r = rel.relations[0]
        if r.weighted_degree != 6:
            bad.append(f"relation weighted degree {r.weighted_degree}")
        rendered = r.formal.render(cycles.labels())
        if rendered not in ("p12*p13*p23 - p123*p132", "p123*p132 - p12*p13*p23"):
            bad.append(f"unexpected relation {rendered}")
        total = Polynomial(sl3.dim)
        for mono, coeff in r.formal.terms.items():
            prod = Polynomial.constant(coeff, sl3.dim)
            for var, exp in mono.exps:
                prod = prod * cycles.polys()[var].power(exp)
            total = total + prod
        if not total.is_zero():
            bad.append("relation does not vanish on substitution")
    _verdict(2, "sl(3) census (2+3+2 generators) and degree-6 relation", bad)


def test_criterion_03_balance_oracle_exhaustive():
    bad = []
    for n in (2, 3):
        alg = builtin_sl(n)
        cart = cartan_subalgebra(alg)
        checked = mismatches = 0
        for deg in (1, 2, 3, 4):
            for combo in combinations_with_replacement(range(alg.dim), deg):
                exps = {}
                for v in combo:
                    exps[v] = exps.get(v, 0) + 1
                m = Monomial(exps.items())
                p = Polynomial(alg.dim, {m: F(1)})
                checked += 1
                if balance_check(m, alg) != is_invariant(alg, cart, p):
                    mismatches += 1
        if mismatches:
            bad.append(f"sl({n}): {mismatches} mismatches out of {checked}")
    _verdict(3, "balance equation == kernel invariance, degree <= 4", bad)


def test_criterion_04_casimir_cross_construction():
    bad = []
    for n in (2, 3):
        alg = builtin_sl(n)
        kernel = casimirs_by_kernel(alg, n)
        trace = trace_casimirs_sln(n)
        for d in range(2, n + 1):
            ours = [g.poly for g in kernel.generators if g.degree == d]
            theirs = [g.poly for g in trace.generators if g.degree == d]
            if not same_span(ours, theirs):
                bad.append(f"sl({n}) degree-{d} spans differ")
        coords = [Polynomial.variable(i, alg.dim) for i in range(alg.dim)]
        for cas in kernel.polys() + trace.polys():
            zero = sum(
                1 for x in coords if lie_poisson_bracket(cas, x, alg).is_zero()
            )
            if zero != alg.dim:
                bad.append(f"sl({n}) Casimir fails centrality ({zero}/{alg.dim})")
    _verdict(4, "kernel vs trace-transport Casimirs, central per coordinate", bad)


def test_criterion_05_argument_shift_counts_and_rank(sl2_casimirs, sl3_casimirs):
    bad = []
    mf2 = mf_generators(sl2_casimirs, [F(1), F(0), F(0)])
    if len(mf2.generators) != 2:
        bad.append(f"sl(2) family size {len(mf2.generators)}")
    comm2 = mf_commutativity_check(mf2)
    if comm2.nonzero_pairs:
        bad.append(f"sl(2) nonzero brackets {comm2.nonzero_pairs}")
    rank2 = mf_rank_check(mf2)
    if not (rank2.jacobian_rank == rank2.expected == 2):
        bad.append(f"sl(2) rank {rank2.jacobian_rank} expected {rank2.expected}")
    mf3 = mf_generators(sl3_casimirs, [F(1), F(2)] + [F(0)] * 6)
    if len(mf3.generators) != 5:
        bad.append(f"sl(3) family size {len(mf3.generators)}")
    comm3 = mf_commutativity_check(mf3)
    if comm3.pair_count != 10 or comm3.nonzero_pairs:
        bad.append(
            f"sl(3) brackets {comm3.pair_count} pairs, bad {comm3.nonzero_pairs}"
        )
    rank3 = mf_rank_check(mf3)
    if not (rank3.jacobian_rank == rank3.expected == 5):
        bad.append(f"sl(3) rank {rank3.jacobian_rank} expected {rank3.expected}")
    _verdict(5, "argument-shift family: sizes, zero brackets, rank (dim+rank)/2", bad)


def test_criterion_06_shift_invariance_both_directions(sl3_casimirs):
    bad = []
    cart = cartan_subalgebra(builtin_sl(3))
    inside = mf_inclusion_check(
        mf_generators(sl3_casimirs, [F(1), F(2)] + [F(0)] * 6), cart
    )
    if not (inside.centralizer_route and inside.operator_route):
        bad.append("Cartan shift not recognized as invariant")
    if inside.witness is not None:
        bad.append(f"unexpected witness {inside.witness}")
    if not inside.agree:
        bad.append("routes disagree on the Cartan shift")
    outside = mf_inclusion_check(
        mf_generators(sl3_casimirs, [F(1), F(2), F(1)] + [F(0)] * 5), cart
    )
    if outside.centralizer_route:
        bad.append("root-component shift passed the centralizer test")
    if outside.operator_route or outside.witness is None:
        bad.append("no generator failed invariance for the root-component shift")
    if not outside.agree:
        bad.append("routes disagree on the root-component shift")
    _verdict(6, "shift in/out of Cartan vs invariance, routes agree", bad)


def test_criterion_07_shift_family_is_not_a_torus_base(sl3):
    rep = mf_chain(sl3, cartan_subalgebra(sl3), [F(1), F(2)] + [F(0)] * 6)
    bad = []
    if rep.verdict != "not_superintegrable":
        bad.append(f"verdict {rep.verdict}")
    if rep.trdeg_base != 5:
        bad.append(f"trdeg base {rep.trdeg_base}")
    if rep.d_a != 2:
        bad.append(f"d_A {rep.d_a}")
    if rep.trdeg_base == rep.d_a:
        bad.append("trdeg base unexpectedly equals d_A")
    _verdict(7, "shift family over torus invariants rejected (5 != d_A 2)", bad)


def test_criterion_08_abelian_moment_map_chain(sl3):
    sub = span_subalgebra([[F(1), F(2)] + [F(0)] * 6], abelian=True)
    rep = moment_map_base(sl3, sub)
    bad = []
    if rep.verdict != "superintegrable":
        bad.append(f"verdict {rep.verdict}")
    if (rep.trdeg_intermediate, rep.trdeg_base) != (7, 1):
        bad.append(f"trdegs ({rep.trdeg_intermediate}, {rep.trdeg_base})")
    if rep.centrality.pair_count != 8 or rep.centrality.failures:
        bad.append(
            f"centrality {rep.centrality.pair_count} pairs, "
            f"failures {rep.centrality.failures}"
        )
    _verdict(8, "one-dim torus moment-map chain (7, 1), base central", bad)


def test_criterion_09_level_map_centrality_and_leaf_dims(sl3):
    rep = j_map_casimir_check(sl3)
    bad = []
    if rep.components != ["mu1", "mu2", "C2", "C3"]:
        bad.append(f"components {rep.components}")
    if len(rep.generator_labels) != 7:
        bad.append(f"{len(rep.generator_labels)} torus generators")
    if rep.zero_bracket_count != 28 or not rep.all_central:
        bad.append(
            f"{rep.zero_bracket_count} zero brackets, failures {rep.failures}"
        )
    for n, expected in ((2, 0), (3, 2), (4, 6)):
        got = leaf_dimension(builtin_sl(n))
        if got != expected:
            bad.append(f"sl({n}) leaf dimension {got} != {expected}")
    _verdict(9, "level map central (28 brackets), leaf dims 0/2/6", bad)


def test_criterion_10_flow_conservation_and_order(sl2, sl3, sl2_casimirs, sl3_torus):
    bad = []
    ef = parse_polynomial("e12*e21", 3, sl2.labels)
    cas = sl2_casimirs.polys()[0]
    res2 = integrate(
        FlowProblem(
            algebra=sl2,
            hamiltonian=Polynomial.variable(0, 3),
            x0=[1.0, 1.0, 1.0],
            t_final=10.0,
            dt=1e-3,
            monitors=[("ef", ef), ("C2", cas)],
        )
    )
    if res2.drifts["ef"] > 1e-8 or res2.drifts["C2"] > 1e-8:
        bad.append(f"sl(2) drifts ef={res2.drifts['ef']:.2e} C2={res2.drifts['C2']:.2e}")
    order = observed_order(
        FlowProblem(
            algebra=sl2,
            hamiltonian=Polynomial.variable(0, 3),
            x0=[1.0, 1.0, 1.0],
            t_final=2.0,
            dt=0.02,
            monitors=[("ef", ef)],
        ),
        monitor="ef",
    )
    if order < 3.5:
        bad.append(f"observed order {order:.2f} < 3.5")
    res3 = integrate(
        FlowProblem(
            algebra=sl3,
            hamiltonian=Polynomial.variable(0, 8),
            x0=[1.0, -0.5, 0.8, -0.3, 0.6, 1.1, -0.9, 0.4],
            t_final=5.0,
            dt=1e-3,
            monitors=[(g.label, g.poly) for g in sl3_torus.generators],
        )
    )
    for label, drift in res3.drifts.items():
        if drift > 1e-7:
            bad.append(f"sl(3) {label} drift {drift:.2e}")
    _verdict(10, "RK4 drift <= 1e-8 / 1e-7, convergence order >= 3.5", bad)


def test_criterion_11_bracket_axioms_killing_determinism(tmp_path, sl2, sl3):
    bad = []
    for alg in (sl2, sl3):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(200):
            p, q, r = (random_polynomial(rng, alg.dim) for _ in range(3))
            br = lambda a, b: lie_poisson_bracket(a, b, alg)
            if not (br(p, q) + br(q, p)).is_zero():
                bad.append(f"{alg.name} antisymmetry fails")
                break
            if not (br(p, q * r) - br(p, q) * r - q * br(p, r)).is_zero():
                bad.append(f"{alg.name} Leibniz fails")
                break
            jac = br(p, br(q, r)) + br(q, br(r, p)) + br(r, br(p, q))
            if not jac.is_zero():
                bad.append(f"{alg.name} Jacobi fails")
                break
        witness = form_invariance_witness(alg, killing_form(alg))
        if witness is not None:
            bad.append(f"{alg.name} Killing invariance fails at {witness}")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = [
        "chain", "verify", "--algebra", "sl3", "--subalgebra", "cartan",
        "--base", "casimirs", "--seed", str(DEFAULT_SEED),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv + ["--out", str(a)]) != EXIT_OK:
            bad.append("first seeded run failed")
        if main(argv + ["--out", str(b)]) != EXIT_OK:
            bad.append("second seeded run failed")
    if a.read_bytes() != b.read_bytes():
        bad.append("same-seed reports differ")
    else:
        json.loads(a.read_text())  # the shared report must still be valid JSON
    _verdict(11, "bracket axioms x200, Killing invariance, seeded determinism", bad)
