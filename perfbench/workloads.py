"""Seeded inputs, job lists and reference answers of the three workloads.

Every job is a ``(name, run, check)`` triple.  ``run(P, ctx, inputs)`` is the
timed call into the public poischain API or CLI (``P`` is the package, ``ctx``
what the workload's set-up built); ``check(ctx, inputs, out)`` returns a list
of mismatches against a reference and is never timed or traced.  References are
written by hand from the paper's formulas or computed here without poischain
(zero-weight monomial counts, relation substitution).  The one value with no
independent reference, the sl(4) torus relation count, is the value the
package gave when this benchmark was written and is labelled as a regression
reference.

The seed draws only generated inputs; every reference holds for any seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import traceback
from fractions import Fraction
from math import comb
from pathlib import Path

WHY = {
    "chain-verify": "kernel pipeline and verdicts on torus and full-algebra "
                    "operators; invariant_basis plus linalg dominate",
    "relations": "products and wide elimination for relation certificates; "
                 "Polynomial.__mul__ dominates, kernel operators are minor",
    "cli-readme": "README commands in-process, algebra construction and "
                  "validation, flow and report rendering, plus error paths",
}

# Left out of the timed passes; the change that makes them cheap adds them.
NOT_RUN = [
    {"job": "builtin_sl(7..12)",
     "reason": "3.7 s at n = 7 and ~60 s at n = 11; sl(11) and sl(12) also "
               "fail with 'duplicate basis labels'"},
    {"job": "torus_chain(sl5) at the default cap",
     "reason": "85 s, longer than a whole run"},
    {"job": "torus_chain(sl6) at the default cap",
     "reason": "does not finish (3.8 M degree-6 monomials)"},
]

# Self-time shares quoted from an earlier profile of these workloads (the
# prototype), printed next to the traced ones.
PROTOTYPE_SHARES = {
    "chain-verify": ({"commutant", "linalg"}, 77.0),
    "relations": ({"poly.mul"}, 55.0),
    "cli-readme": ({"algebra"}, 67.0),
}

SL4_TORUS_RELATIONS = 55  # regression reference: value at the commit that added this benchmark

# Torus directions (h1, h2) on which the degree-3 cap already reaches the
# invariant that lifts trdeg S(sl3)^T1 to 7: some nonzero torus weight of an
# off-diagonal monomial of degree <= 3 vanishes on them.  Other directions are
# inconclusive at that cap, so they have no fixed reference.
TORUS_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1))


# ---------------------------------------------------------------------------
# seeded inputs


# Eigenvalues without additive coincidences: no shift coefficient vanishes
# by accident, so every ordering gives the same amount of work (within 2%).
# Symmetric sets such as (-3, -1, 1, 3) drop terms and cut the sl4 family's
# product work by up to a fifth.
GENERIC_EIGENVALUES = {3: (0, 1, 3), 4: (0, 1, 3, 7)}


def _regular_cartan_shift(rng: random.Random, n: int) -> list[int]:
    """Cartan coordinates of a regular shift of sl(n).

    The commutator matrix at a Cartan point pairs e_ab with e_ba through
    h_a + ... + h_(b-1), so the point is regular exactly when the prefix sums
    ("eigenvalues") are distinct; draw their order and take differences.
    """
    eig = rng.sample(GENERIC_EIGENVALUES[n], n)
    return [eig[i + 1] - eig[i] for i in range(n - 1)]


def make_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    p, q = rng.choice(TORUS_DIRECTIONS)
    scale = rng.choice((-2, -1, 1, 2))
    return {
        "seed": seed,
        "rank_seed": rng.randrange(1, 1 << 30),
        "shift3": _regular_cartan_shift(rng, 3),
        "shift4": _regular_cartan_shift(rng, 4),
        "torus_dir": [scale * p, scale * q],
        "x0_sl2": [rng.choice((-1, 1)) * rng.randint(2, 12) / 10 for _ in range(3)],
        "x0_sl3": [rng.choice((-1, 1)) * rng.randint(2, 12) / 10 for _ in range(8)],
    }


def _shift_vector(h: list[int], dim: int) -> list[Fraction]:
    return [Fraction(v) for v in h] + [Fraction(0)] * (dim - len(h))


# ---------------------------------------------------------------------------
# independent references


def zero_weight_counts(n: int, kmax: int) -> dict[int, int]:
    """Degree-k monomials of S(sl_n) of torus weight 0, for k = 1..kmax.

    weight(h_i) = 0 and weight(e_ij) = eps_i - eps_j; the torus invariants of
    degree k are exactly these monomials, so the counts are the kernel
    dimensions of the Cartan operators.
    """
    weights = [(0,) * n] * (n - 1)
    for i in range(n):
        for j in range(n):
            if i != j:
                w = [0] * n
                w[i], w[j] = 1, -1
                weights.append(tuple(w))
    # states: (degree, weight) -> number of monomials
    states = {(0, (0,) * n): 1}
    for w in weights:
        grown = dict(states)
        for (deg, wt), cnt in states.items():
            acc = wt
            for e in range(1, kmax - deg + 1):
                acc = tuple(a + b for a, b in zip(acc, w))
                key = (deg + e, acc)
                grown[key] = grown.get(key, 0) + cnt
        states = grown
    zero = (0,) * n
    return {k: states.get((k, zero), 0) for k in range(1, kmax + 1)}


def _dense_poly(poly, dim):
    return {m.dense(dim): Fraction(c) for m, c in poly.terms.items()}


def _mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(key, 0) + ca * cb
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def relations_vanish(gens, relations) -> list[str]:
    """Substitute the generators into each formal relation with plain dict
    arithmetic; every relation must expand to zero."""
    dim = gens.algebra.dim
    nformal = len(gens.generators)
    polys = [_dense_poly(g.poly, dim) for g in gens.generators]
    one = {(0,) * dim: Fraction(1)}
    memo = {(0,) * nformal: one}

    def expand(exps):
        if exps not in memo:
            i = max(k for k, e in enumerate(exps) if e)
            lower = list(exps)
            lower[i] -= 1
            memo[exps] = _mul(expand(tuple(lower)), polys[i])
        return memo[exps]

    bad = []
    for idx, rel in enumerate(relations.relations):
        total = {}
        for mono, c in rel.formal.terms.items():
            for key, v in expand(mono.dense(nformal)).items():
                s = total.get(key, 0) + c * v
                if s:
                    total[key] = s
                else:
                    total.pop(key, None)
        if total:
            bad.append(f"relation {idx} does not vanish on substitution")
    return bad


def _expect(bad: list, label: str, got, want) -> None:
    if got != want:
        bad.append(f"{label}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# chain-verify


def setup_chain_verify(P, inputs: dict, workdir: Path) -> dict:
    algs = {n: P.builtin_sl(n) for n in (3, 4, 5)}
    return {
        "alg": algs,
        "cartan": {n: P.cartan_subalgebra(a) for n, a in algs.items()},
        "torus1": P.span_subalgebra(
            [_shift_vector(inputs["torus_dir"], 8)], abelian=True, name="torus1"),
        "shift3": _shift_vector(inputs["shift3"], 8),
    }


def _torus_chain_job(n):
    def run(P, ctx, inputs):
        return P.torus_chain(ctx["alg"][n], seed=inputs["rank_seed"])

    def check(ctx, inputs, rep):
        bad = []
        _expect(bad, "verdict", rep.verdict, "superintegrable")
        _expect(bad, "trdeg", (rep.trdeg_intermediate, rep.trdeg_base),
                (n * (n - 1), n - 1))
        _expect(bad, "centrality", rep.centrality.passed, True)
        return bad

    return (f"torus_chain(sl{n})", run, check)


def _moment_map_run(P, ctx, inputs):
    return P.moment_map_base(ctx["alg"][3], ctx["torus1"], seed=inputs["rank_seed"])


def _moment_map_check(ctx, inputs, rep):
    bad = []
    _expect(bad, "verdict", rep.verdict, "superintegrable")
    _expect(bad, "trdeg", (rep.trdeg_intermediate, rep.trdeg_base), (7, 1))
    return bad


def _mf_chain_run(P, ctx, inputs):
    return P.mf_chain(ctx["alg"][3], ctx["cartan"][3], ctx["shift3"],
                      seed=inputs["rank_seed"])


def _mf_chain_check(ctx, inputs, rep):
    bad = []
    _expect(bad, "verdict", rep.verdict, "not_superintegrable")
    _expect(bad, "trdeg_base", rep.trdeg_base, (8 + 2) // 2)
    _expect(bad, "d_A", rep.d_a, 2)
    return bad


def _jmap_run(P, ctx, inputs):
    return P.j_map_casimir_check(ctx["alg"][3], seed=inputs["rank_seed"])


def _jmap_check(ctx, inputs, rep):
    bad = []
    # (2 Cartan coordinates + 2 Casimirs) x 7 torus generators
    _expect(bad, "zero brackets", rep.zero_bracket_count, 28)
    _expect(bad, "all central", rep.all_central, True)
    return bad


def _generate_sl5_run(P, ctx, inputs):
    gens = P.generate(ctx["alg"][5], ctx["cartan"][5], 4)
    return gens, P.trdeg(gens, seed=inputs["rank_seed"])


def _generate_sl5_check(ctx, inputs, out):
    gens, trdeg = out
    bad = []
    _expect(bad, "kernel dims", dict(gens.kernel_dims), zero_weight_counts(5, 4))
    _expect(bad, "trdeg", trdeg, 5 * 4)
    return bad


def _casimirs_sl5_run(P, ctx, inputs):
    return P.casimirs_by_kernel(ctx["alg"][5], 4)


def _casimirs_sl5_check(ctx, inputs, cas):
    bad = []
    _expect(bad, "degrees", cas.gens.degrees(), [2, 3, 4])
    return bad


CHAIN_VERIFY_JOBS = [
    _torus_chain_job(3),
    _torus_chain_job(4),
    ("moment_map_base(sl3, seeded torus)", _moment_map_run, _moment_map_check),
    ("mf_chain(sl3, seeded shift)", _mf_chain_run, _mf_chain_check),
    ("j_map_casimir_check(sl3)", _jmap_run, _jmap_check),
    ("generate(sl5, cartan, 4) + trdeg", _generate_sl5_run, _generate_sl5_check),
    ("casimirs_by_kernel(sl5, 4)", _casimirs_sl5_run, _casimirs_sl5_check),
]


# ---------------------------------------------------------------------------
# relations


def setup_relations(P, inputs: dict, workdir: Path) -> dict:
    algs = {n: P.builtin_sl(n) for n in (3, 4)}
    return {
        "alg": algs,
        "cartan": {n: P.cartan_subalgebra(a) for n, a in algs.items()},
        "shift3": _shift_vector(inputs["shift3"], 8),
        "shift4": _shift_vector(inputs["shift4"], 15),
    }


def _torus_relations_job(n, budget):
    def run(P, ctx, inputs):
        gens = P.generate(ctx["alg"][n], ctx["cartan"][n], n)
        return gens, P.relation_basis(gens, budget)

    def check(ctx, inputs, out):
        gens, rels = out
        bad = relations_vanish(gens, rels)
        _expect(bad, "kernel dims", dict(gens.kernel_dims), zero_weight_counts(n, n))
        if n == 3:
            census = {d: gens.degrees().count(d) for d in sorted(set(gens.degrees()))}
            _expect(bad, "census", census, {1: 2, 2: 3, 3: 2})
            _expect(bad, "relation degrees",
                    [r.weighted_degree for r in rels.relations], [6])
        else:
            _expect(bad, "relation count (regression reference)",
                    len(rels.relations), SL4_TORUS_RELATIONS)
        return bad

    return (f"generate + relation_basis(sl{n} torus, {budget})", run, check)


def _casimir_routes_run(P, ctx, inputs):
    kernel = P.casimirs_by_kernel(ctx["alg"][4], 4)
    trace = P.trace_casimirs_sln(4)
    agree = all(P.membership(g.poly, kernel.gens, g.degree).found
                for g in trace.generators)
    agree = agree and all(P.membership(g.poly, trace.gens, g.degree).found
                          for g in kernel.generators)
    return kernel, trace, agree


def _casimir_routes_check(ctx, inputs, out):
    kernel, trace, agree = out
    bad = []
    _expect(bad, "kernel degrees", kernel.gens.degrees(), [2, 3, 4])
    _expect(bad, "trace degrees", trace.gens.degrees(), [2, 3, 4])
    _expect(bad, "spans agree", agree, True)
    return bad


def _trace_sl5_run(P, ctx, inputs):
    return P.trace_casimirs_sln(5)


def _trace_sl5_check(ctx, inputs, cas):
    bad = []
    _expect(bad, "degrees", cas.gens.degrees(), [2, 3, 4, 5])
    return bad


def _shift3_run(P, ctx, inputs):
    cas = P.casimirs_by_kernel(ctx["alg"][3], 3)
    mf = P.mf_generators(cas, ctx["shift3"])
    return mf, P.mf_commutativity_check(mf), P.mf_rank_check(mf, seed=inputs["rank_seed"])


def _shift3_check(ctx, inputs, out):
    mf, comm, rank = out
    bad = []
    b = (8 + 2) // 2
    _expect(bad, "generators", len(mf.generators), b)
    _expect(bad, "zero brackets", (comm.pair_count, comm.commutative), (comb(b, 2), True))
    _expect(bad, "jacobian rank", (rank.jacobian_rank, rank.expected), (b, b))
    _expect(bad, "relations", len(rank.relations.relations), 0)
    return bad


def _shift4_run(P, ctx, inputs):
    cas = P.casimirs_by_kernel(ctx["alg"][4], 4)
    mf = P.mf_generators(cas, ctx["shift4"])
    comm = P.mf_commutativity_check(mf)
    return mf, comm, P.relation_basis(mf.as_generator_set(), 6)


def _shift4_check(ctx, inputs, out):
    mf, comm, rels = out
    bad = []
    b = (15 + 3) // 2
    _expect(bad, "generators", len(mf.generators), b)
    _expect(bad, "zero brackets", (comm.pair_count, comm.commutative), (comb(b, 2), True))
    # the family is free at a regular shift
    _expect(bad, "relations", len(rels.relations), 0)
    return bad


def _families_run(P, ctx, inputs):
    return P.relation_families_check(5)


def _families_check(ctx, inputs, rep):
    bad = []
    _expect(bad, "all passed", rep.all_passed, True)
    return bad


RELATIONS_JOBS = [
    _torus_relations_job(3, 6),
    _torus_relations_job(4, 8),
    ("sl4 Casimirs, kernel vs trace", _casimir_routes_run, _casimir_routes_check),
    ("trace_casimirs_sln(5)", _trace_sl5_run, _trace_sl5_check),
    ("sl3 shift family", _shift3_run, _shift3_check),
    ("sl4 shift family + relation_basis(6)", _shift4_run, _shift4_check),
    ("relation_families_check(5)", _families_run, _families_check),
]


# ---------------------------------------------------------------------------
# cli-readme


def setup_cli(P, inputs: dict, workdir: Path) -> dict:
    import poischain.cli  # noqa: F401

    sub = workdir / "sub.json"
    sub.write_text(json.dumps({
        "name": "torus1",
        "vectors": [[str(v) for v in _shift_vector(inputs["torus_dir"], 8)]],
        "abelian": True,
    }))
    bad = workdir / "bad_algebra.json"
    bad.write_text('{"dim": 3, "labels": [')
    return {"workdir": workdir}


def _fmt_floats(values) -> str:
    return ",".join(repr(v) for v in values)


def _run_cli(P, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = P.cli.main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
        except Exception:  # an escaped exception is a traceback to the user
            traceback.print_exc(file=err)
            code = None
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cli_job(name, argv_of, check_report=None, outputs=("report.json",),
             expect_code=0):
    """A CLI job; ``argv_of(ctx, inputs, paths)`` builds the argument list and
    ``paths`` are the output files it may write, hashed after the run."""
    slug = "".join(ch if ch.isalnum() else "_" for ch in name)

    def paths(ctx):
        return [ctx["workdir"] / f"{slug}.{o}" for o in outputs]

    def run(P, ctx, inputs):
        for path in paths(ctx):
            path.unlink(missing_ok=True)
        return _run_cli(P, argv_of(ctx, inputs, paths(ctx)))

    def check(ctx, inputs, res):
        bad = []
        _expect(bad, "exit code", res["code"], expect_code)
        if "Traceback" in res["stderr"]:
            bad.append("traceback on stderr")
        lines = res["stderr"].splitlines()
        if expect_code == 3:
            _expect(bad, "stderr lines", len(lines), 1)
            return bad
        _expect(bad, "stderr lines", len(lines), 0)
        digests = {}
        for path in paths(ctx):
            if not path.exists():
                bad.append(f"{path.name} was not written")
                continue
            data = path.read_bytes()
            digests[path.name] = hashlib.sha256(data).hexdigest()
            if path.suffix == ".json":
                res["report_bytes"] = res.get("report_bytes", 0) + len(data)
        res["digests"] = digests
        if check_report is not None and not bad:
            report = json.loads(paths(ctx)[0].read_text())
            check_report(bad, report, paths(ctx), inputs)
        return bad

    return (name, run, check)


def _validation_ok(bad, report, paths, inputs):
    _expect(bad, "validation passed", report["validation"]["passed"], True)


def _torus_report(n, relations):
    def check(bad, report, paths, inputs):
        want = {str(k): v for k, v in zero_weight_counts(n, n).items()}
        _expect(bad, "kernel dims", report["kernel_dims"], want)
        _expect(bad, "relations", len(report["relations"]["relations"]), relations)
    return check


def _casimirs_report(bad, report, paths, inputs):
    _expect(bad, "routes agree", report["routes_agree"], True)
    _expect(bad, "count matches", report["count_check"]["matches"], True)
    _expect(bad, "kernel degrees",
            [g["degree"] for g in report["kernel"]["generators"]], [2, 3])
    _expect(bad, "trace degrees",
            [g["degree"] for g in report["trace"]["generators"]], [2, 3])


def _mf_report(bad, report, paths, inputs):
    _expect(bad, "generators", len(report["family"]["generators"]), 5)
    _expect(bad, "regular", report["family"]["shift_regular"], True)
    _expect(bad, "commutative", report["commutativity"]["commutative"], True)
    _expect(bad, "rank", (report["rank_check"]["jacobian_rank"],
                          report["rank_check"]["expected"]), (5, 5))
    _expect(bad, "included", (report["inclusion"]["included"],
                              report["inclusion"]["agree"]), (True, True))


def _chain_report(trdegs):
    def check(bad, report, paths, inputs):
        _expect(bad, "verdict", report["verdict"], "superintegrable")
        _expect(bad, "trdeg", (report["trdeg_intermediate"], report["trdeg_base"]),
                trdegs)
    return check


def _cycles_report(bad, report, paths, inputs):
    # sl(4): 3 Cartan + 6 two-cycles + 8 three-cycles + 6 four-cycles
    _expect(bad, "generators", len(report["generators"]["generators"]), 23)
    _expect(bad, "relation families", report["relations"]["all_passed"], True)
    _expect(bad, "oracle", report["oracle"]["all_equal"], True)


def _flow_report(steps, limit, header=None):
    def check(bad, report, paths, inputs):
        flow = report["flow"]
        _expect(bad, "steps", flow["steps"], steps)
        worst = max(flow["drifts"].values())
        if not worst <= limit:
            bad.append(f"drift {worst:.3e} above {limit:.0e}")
        if header is not None:
            _expect(bad, "csv header", paths[1].read_text().splitlines()[0], header)
    return check


def _seed_args(inputs):
    return ["--seed", str(inputs["rank_seed"])]


CLI_JOBS = [
    _cli_job("algebra check sl3",
             lambda c, i, p: ["algebra", "check", "--algebra", "sl3", "--out", str(p[0])],
             _validation_ok),
    _cli_job("commutant sl3",
             lambda c, i, p: ["commutant", "--algebra", "sl3", "--subalgebra", "cartan",
                              "--out", str(p[0])],
             _torus_report(3, 1)),
    _cli_job("casimirs sl3 both",
             lambda c, i, p: ["casimirs", "--algebra", "sl3", "--method", "both",
                              *_seed_args(i), "--out", str(p[0])],
             _casimirs_report),
    _cli_job("mf sl3 seeded shift",
             lambda c, i, p: ["mf", "--algebra", "sl3",
                              "--shift", "h:" + ",".join(map(str, i["shift3"])),
                              "--subalgebra", "cartan", *_seed_args(i), "--out", str(p[0])],
             _mf_report),
    _cli_job("chain verify sl3 casimirs",
             lambda c, i, p: ["chain", "verify", "--algebra", "sl3", "--subalgebra",
                              "cartan", "--base", "casimirs", *_seed_args(i),
                              "--out", str(p[0])],
             _chain_report((6, 2))),
    _cli_job("chain verify sl3 moment-map file",
             lambda c, i, p: ["chain", "verify", "--algebra", "sl3", "--subalgebra",
                              str(c["workdir"] / "sub.json"), "--base", "moment-map",
                              *_seed_args(i), "--out", str(p[0])],
             _chain_report((7, 1))),
    _cli_job("commutant sl4",
             lambda c, i, p: ["commutant", "--algebra", "sl4", "--subalgebra", "cartan",
                              "--out", str(p[0])],
             _torus_report(4, SL4_TORUS_RELATIONS)),
    _cli_job("cycles n4 all",
             lambda c, i, p: ["cycles", "--n", "4", "--check", "all", "--out", str(p[0])],
             _cycles_report),
    _cli_job("flow sl2",
             lambda c, i, p: ["flow", "--algebra", "sl2", "--hamiltonian", "h1",
                              "--x0=" + _fmt_floats(i["x0_sl2"]), "--t", "10", "--dt", "0.001",
                              "--monitor", "auto:casimirs", "--csv", str(p[1]),
                              "--out", str(p[0])],
             _flow_report(10000, 1e-8, "t,h1,e12,e21,H,C2"),
             outputs=("report.json", "trajectory.csv")),
    _cli_job("flow sl3",
             lambda c, i, p: ["flow", "--algebra", "sl3", "--hamiltonian", "h1",
                              "--x0=" + _fmt_floats(i["x0_sl3"]), "--t", "5", "--dt", "0.001",
                              "--monitor", "auto:torus", "--out", str(p[0])],
             _flow_report(5000, 1e-7)),
    *[
        _cli_job(f"algebra check sl{n}",
                 lambda c, i, p, n=n: ["algebra", "check", "--algebra", f"sl{n}",
                                       "--out", str(p[0])],
                 _validation_ok)
        for n in (4, 5, 6)
    ],
    _cli_job("error: unparsable algebra JSON",
             lambda c, i, p: ["algebra", "check", "--algebra",
                              str(c["workdir"] / "bad_algebra.json")],
             outputs=(), expect_code=3),
    _cli_job("error: --algebra sl13",
             lambda c, i, p: ["algebra", "check", "--algebra", "sl13"],
             outputs=(), expect_code=3),
    _cli_job("error: short --shift on sl3",
             lambda c, i, p: ["mf", "--algebra", "sl3", "--shift", "h:1"],
             outputs=(), expect_code=3),
    _cli_job("error: unwritable --out",
             lambda c, i, p: ["algebra", "check", "--algebra", "sl3", "--out",
                              str(c["workdir"] / "missing_dir" / "report.json")],
             outputs=(), expect_code=3),
    _cli_job("error: unknown Hamiltonian label",
             lambda c, i, p: ["flow", "--algebra", "sl2", "--hamiltonian", "h1*zz",
                              "--x0", "1,1,1", "--t", "1", "--dt", "0.1"],
             outputs=(), expect_code=3),
]


WORKLOADS = {
    "chain-verify": (setup_chain_verify, CHAIN_VERIFY_JOBS),
    "relations": (setup_relations, RELATIONS_JOBS),
    "cli-readme": (setup_cli, CLI_JOBS),
}
