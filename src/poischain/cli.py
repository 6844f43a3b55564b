"""Command-line interface: subcommands over the algebra/chain/flow pipeline.

Exit codes: 0 success (for `chain verify`: superintegrable), 1 negative
result (not superintegrable / failed check), 2 inconclusive, 3 invalid
input, 141 standard output closed by its reader (128 + SIGPIPE).  Reports
are deterministic JSON (sorted keys, canonical polynomial text); a short
human summary always goes to standard output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import chains, cycles
from .algebra import (
    ConfigurationError,
    LieAlgebra,
    SubalgebraSpec,
    builtin_sl,
    cartan_subalgebra,
    full_subalgebra,
    sl_size,
    validate_algebra,
    validate_subalgebra,
)
from .casimir_mf import (
    casimir_count_check,
    casimirs_by_kernel,
    mf_commutativity_check,
    mf_generators,
    mf_rank_check,
    sandwich_check,
    trace_casimirs,
)
from .commutant import (
    BudgetExceededError,
    GeneratorSet,
    bracket_closure_check,
    generate,
    membership,
    relation_basis,
)
from .flow import FlowDivergenceError, FlowProblem, integrate
from .poly import as_fraction, dump_json, parse_polynomial
from .sampling import DEFAULT_SEED

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `| head`

_SL_PATTERN = re.compile(r"^sl(\d+)$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # No option starts with "-<digit>", so such an argument is a value:
        # a number or a vector like "-0.5,0.1,0.2" for --x0 and --shift.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_INPUT)


_CAP_HELP = "degree cap (default rank + 1, which is n for sl(n))"


def build_parser() -> _Parser:
    parser = _Parser(prog="poischain", description=__doc__)
    # --seed only where a generic rank is sampled
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for generic sample points")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None,
                        help="write the JSON report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="algebra-level operations")
    alg_sub = p_alg.add_subparsers(dest="algebra_command", required=True)
    p_check = alg_sub.add_parser("check", parents=[common],
                                 help="validate structure constants")
    p_check.add_argument("--algebra", required=True)
    p_check.set_defaults(handler=cmd_algebra_check)

    p_comm = sub.add_parser("commutant", parents=[seeded, common],
                            help="invariant generators of a subalgebra")
    p_comm.add_argument("--algebra", required=True)
    p_comm.add_argument("--subalgebra", required=True)
    p_comm.add_argument("--max-degree", type=int, default=None, help=_CAP_HELP)
    p_comm.add_argument("--relations-degree", type=int, default=None,
                        help="weighted-degree budget (default 2x cap)")
    p_comm.add_argument("--skip-relations", action="store_true")
    p_comm.add_argument("--closure", action="store_true",
                        help="also check bracket closure (can be slow)")
    p_comm.set_defaults(handler=cmd_commutant)

    p_cas = sub.add_parser("casimirs", parents=[seeded, common],
                           help="central generators by kernel (and traces)")
    p_cas.add_argument("--algebra", required=True)
    p_cas.add_argument("--max-degree", type=int, default=None, help=_CAP_HELP)
    p_cas.add_argument("--method", choices=["kernel", "trace", "both"],
                       default="kernel")
    p_cas.set_defaults(handler=cmd_casimirs)

    p_mf = sub.add_parser("mf", parents=[seeded, common],
                          help="argument-shift family of the Casimirs")
    p_mf.add_argument("--algebra", required=True)
    p_mf.add_argument("--shift", required=True,
                      help='full vector "1,0,0" or Cartan coordinates "h:1,2"')
    p_mf.add_argument("--max-degree", type=int, default=None, help=_CAP_HELP)
    p_mf.add_argument("--subalgebra", default=None,
                      help="also test inclusion into this subalgebra's invariants")
    p_mf.set_defaults(handler=cmd_mf)

    p_chain = sub.add_parser("chain", help="inclusion-chain operations")
    chain_sub = p_chain.add_subparsers(dest="chain_command", required=True)
    p_verify = chain_sub.add_parser("verify", parents=[seeded, common],
                                    help="decide superintegrability")
    p_verify.add_argument("--algebra", required=True)
    p_verify.add_argument("--subalgebra", required=True)
    p_verify.add_argument("--base", required=True,
                          help="casimirs | moment-map | mf:<shift> | file:<gens.json>")
    p_verify.add_argument("--max-degree", type=int, default=None, help=_CAP_HELP)
    p_verify.set_defaults(handler=cmd_chain_verify)

    p_cyc = sub.add_parser("cycles", parents=[common],
                           help="cycle-monomial census and identities for sl(n)")
    p_cyc.add_argument("--n", type=int, required=True)
    p_cyc.add_argument("--max-degree", type=int, default=4,
                       help="degree cap for the oracle cross-check")
    p_cyc.add_argument("--check", choices=["relations", "oracle", "all"],
                       default="all")
    p_cyc.set_defaults(handler=cmd_cycles)

    p_flow = sub.add_parser("flow", parents=[seeded, common],
                            help="integrate a Hamiltonian flow and report drifts")
    p_flow.add_argument("--algebra", required=True)
    p_flow.add_argument("--hamiltonian", required=True)
    p_flow.add_argument("--x0", required=True, help="comma-separated floats")
    p_flow.add_argument("--t", type=float, required=True)
    p_flow.add_argument("--dt", type=float, required=True)
    p_flow.add_argument("--monitor", default=None,
                        help="auto:torus | auto:casimirs | gens.json")
    p_flow.add_argument("--csv", default=None,
                        help="write the sampled trajectory to this CSV path")
    p_flow.set_defaults(handler=cmd_flow)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The process's one parser, built by the first `parse_cli` call, not at
    import, and reused by every later call.  It holds nothing that depends on
    the arguments: each `parse_args` returns a new Namespace, errors and help
    look up sys.stderr and sys.stdout when they are written, and the help
    width is taken when the help is formatted.  The handlers are the `cmd_*`
    functions bound at that first build, so a `cmd_*` replaced on the module
    afterwards is not called; nothing in the package, its tests or the
    benchmark's tracer replaces one."""
    return build_parser()


def parse_cli(argv: list[str]) -> argparse.Namespace:
    """The parsed options; `handler` is the subcommand's function."""
    parser = _parser()
    ns = parser.parse_args(argv)
    for attr in ("max_degree", "relations_degree"):
        value = getattr(ns, attr, None)
        if value is not None and value < 1:
            parser.error(f"--{attr.replace('_', '-')} must be at least 1")
    return ns


# ---------------------------------------------------------------------------
# input resolution


def _read_json_file(path: str, what: str, parse):
    """parse(data) for the JSON object in the file; a file that cannot be
    read, or content of the wrong shape or type, is invalid input."""
    try:
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got a {type(data).__name__}")
        return parse(data)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} {path!r}: {exc.strerror}")
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"cannot parse {what} {path!r}: {exc}")


def _check_sl_size(n: int) -> None:
    if n > 12:
        raise ConfigurationError(
            "built-in sl(n) is capped at n = 12 on the command line; "
            "larger algebras can be supplied as structure-constant files"
        )


def load_algebra(spec: str) -> LieAlgebra:
    match = _SL_PATTERN.match(spec)
    if match:
        n = int(match.group(1))
        _check_sl_size(n)
        return builtin_sl(n)
    if not Path(spec).exists():
        raise ConfigurationError(f"algebra {spec!r} is neither slN nor an existing file")
    return _read_json_file(spec, "algebra file", LieAlgebra.from_json)


def load_subalgebra(spec: str, alg: LieAlgebra) -> SubalgebraSpec:
    if spec == "cartan":
        return cartan_subalgebra(alg)
    if spec == "full":
        return full_subalgebra(alg)
    if not Path(spec).exists():
        raise ConfigurationError(
            f"subalgebra {spec!r} is not cartan/full or an existing file"
        )

    def parse(data):
        sub = SubalgebraSpec.from_json(data)
        return sub, validate_subalgebra(alg, sub)  # checks the dimension first

    sub, report = _read_json_file(spec, "subalgebra file", parse)
    if not report.passed:
        bad = "; ".join(c.name for c in report.checks if not c.passed)
        raise ConfigurationError(f"subalgebra file {spec!r} failed validation: {bad}")
    return sub


def parse_shift(text: str, alg: LieAlgebra) -> tuple[Fraction, ...]:
    """Shift vectors: either a full coordinate vector or "h:" plus the
    coordinates along the flagged Cartan basis."""
    cartan = text.startswith("h:")
    try:
        values = [as_fraction(v) for v in text.removeprefix("h:").split(",")]
    except ValueError:
        raise ConfigurationError(f"cannot parse shift {text!r}")
    if cartan:
        if not alg.cartan_indices:
            raise ConfigurationError("algebra has no flagged Cartan basis")
        if len(values) != len(alg.cartan_indices):
            raise ConfigurationError(f"expected {len(alg.cartan_indices)} Cartan coordinates")
        vec = [Fraction(0)] * alg.dim
        for idx, v in zip(alg.cartan_indices, values):
            vec[idx] = v
        return tuple(vec)
    if len(values) != alg.dim:
        raise ConfigurationError(f"shift needs {alg.dim} coordinates, got {len(values)}")
    return tuple(values)


def _load_generator_file(path: str, alg: LieAlgebra) -> GeneratorSet:
    return _read_json_file(
        path, "generator file", lambda data: GeneratorSet.from_json(data, alg)
    )


def _check_writable(path: str | None, what: str) -> None:
    """Refuse an output path that cannot be written before any work runs:
    its parent must be an existing, writable directory and the path must not
    be a directory.  A write can still fail later; that is handled where
    the file is written."""
    if path is None:
        return
    target = Path(path)
    parent = target.parent
    if target.is_dir():
        problem = "it is a directory"
    elif not parent.is_dir():
        problem = f"no directory {str(parent)!r}"
    elif not os.access(parent, os.W_OK):
        problem = f"directory {str(parent)!r} is not writable"
    else:
        return
    raise ConfigurationError(f"cannot write {what} to {path!r}: {problem}")


def emit_report(report: dict, path: str | None) -> None:
    text = dump_json(report)
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise ConfigurationError(f"cannot write report to {path!r}: {exc}")


def _say(*lines: str) -> None:
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_algebra_check(ns: argparse.Namespace) -> int:
    alg = load_algebra(ns.algebra)
    report = validate_algebra(alg)
    payload = {"algebra": alg.name, "dim": alg.dim, "validation": report.to_json()}
    for check in report.checks:
        _say(f"{check.name}: {'pass' if check.passed else 'FAIL'}"
             + (f" ({check.detail})" if check.detail and not check.passed else ""))
    emit_report(payload, ns.out)
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def cmd_commutant(ns: argparse.Namespace) -> int:
    alg = load_algebra(ns.algebra)
    sub = load_subalgebra(ns.subalgebra, alg)
    gens = generate(alg, sub, ns.max_degree)
    cap = gens.max_degree
    payload = gens.to_json()
    payload["subalgebra"] = sub.name
    _say(f"{len(gens)} generators up to degree {cap} "
         f"(kernel dims {gens.kernel_dims})")
    if not ns.skip_relations:
        budget = ns.relations_degree or 2 * cap
        try:
            relations = relation_basis(gens, budget)
        except BudgetExceededError as exc:
            # every degree below exc.degree fits, and no budget may fall
            # below the largest generator degree
            fits = exc.degree - 1
            hint = f"--relations-degree {fits} or " if fits >= max(gens.degrees()) else ""
            raise ConfigurationError(f"{exc}; rerun with {hint}--skip-relations") from None
        payload["relations"] = relations.to_json()
        _say(f"{len(relations.relations)} relation(s) up to weighted degree {budget}")
    if ns.closure:
        closure = bracket_closure_check(gens)
        payload["closure"] = closure.to_json()
        _say("bracket closure: " + ("pass" if closure.all_closed else "FAIL"))
    emit_report(payload, ns.out)
    return EXIT_OK


def cmd_casimirs(ns: argparse.Namespace) -> int:
    alg = load_algebra(ns.algebra)
    n = None
    if ns.method in ("trace", "both"):
        n = sl_size(alg)
        if n is None:
            raise ConfigurationError("the trace route requires a built-in sl(n) algebra")
        if ns.max_degree == 1:
            raise ConfigurationError("the trace route needs --max-degree at least 2")
    payload: dict = {"algebra": alg.name}
    code = EXIT_OK
    if ns.method in ("kernel", "both"):
        kernel_set = casimirs_by_kernel(alg, ns.max_degree)
        count = casimir_count_check(kernel_set, ns.seed)
        payload["kernel"] = kernel_set.to_json()
        payload["count_check"] = count.to_json()
        _say(f"kernel route: {len(kernel_set)} generators, independent count "
             f"{count.independent_count} (expected {count.expected})")
        # a count short of the corank may be the cap cutting off Casimirs
        if count.independent_count < count.expected:
            code = EXIT_INCONCLUSIVE
        elif not count.matches:
            code = EXIT_NEGATIVE
    if n is not None:
        # the default cap of a built-in sl(n) is n
        trace_set = trace_casimirs(alg, min(ns.max_degree or n, n))
        payload["trace"] = trace_set.to_json()
        _say(f"trace route: {len(trace_set)} generators")
        if ns.method == "both":
            agree = all(
                membership(g.poly, other.gens, g.degree).found
                for gens, other in ((trace_set, kernel_set), (kernel_set, trace_set))
                for g in gens.generators
            )
            payload["routes_agree"] = agree
            _say("route agreement: " + ("pass" if agree else "FAIL"))
            if not agree:
                code = EXIT_NEGATIVE
    emit_report(payload, ns.out)
    return code


def cmd_mf(ns: argparse.Namespace) -> int:
    alg = load_algebra(ns.algebra)
    mu = parse_shift(ns.shift, alg)
    mf = mf_generators(casimirs_by_kernel(alg, ns.max_degree), mu)
    commutativity = mf_commutativity_check(mf)
    rank = mf_rank_check(mf, seed=ns.seed)
    payload = {
        "family": mf.to_json(),
        "commutativity": commutativity.to_json(),
        "rank_check": rank.to_json(),
    }
    _say(f"{len(mf.generators)} generators, shift "
         + ("regular" if mf.shift_regular else "NOT regular"),
         f"commutativity: {'pass' if commutativity.commutative else 'FAIL'}",
         f"independent count {rank.jacobian_rank} (target {rank.expected})")
    code = EXIT_OK if commutativity.commutative else EXIT_NEGATIVE
    # a regular shift below its target count: the degree cap may have cut
    # off Casimirs, so the count is inconclusive rather than negative
    if code == EXIT_OK and mf.shift_regular and rank.jacobian_rank < rank.expected:
        code = EXIT_INCONCLUSIVE
    if ns.subalgebra:
        sub = load_subalgebra(ns.subalgebra, alg)
        sandwich = sandwich_check(mf, sub, seed=ns.seed)
        inclusion = sandwich.inclusion
        payload["inclusion"] = inclusion.to_json()
        payload["sandwich"] = sandwich.to_json()
        _say(f"inclusion into invariants: "
             f"{'yes' if inclusion.included else 'no'} "
             f"(routes agree: {inclusion.agree})")
        if not inclusion.agree:
            code = EXIT_NEGATIVE
    emit_report(payload, ns.out)
    return code


def cmd_chain_verify(ns: argparse.Namespace) -> int:
    alg = load_algebra(ns.algebra)
    sub = load_subalgebra(ns.subalgebra, alg)
    base_spec = ns.base
    if base_spec == "casimirs":
        base = casimirs_by_kernel(alg, ns.max_degree).gens
        report = chains.chain_over(sub, base, "casimirs", base.max_degree, ns.seed)
    elif base_spec.startswith("file:"):
        base = _load_generator_file(base_spec[5:], alg)
        report = chains.chain_over(sub, base, "explicit", ns.max_degree, ns.seed)
    elif base_spec == "moment-map":
        report = chains.moment_map_base(alg, sub, ns.max_degree, seed=ns.seed)
    elif base_spec.startswith("mf:"):
        mu = parse_shift(base_spec[3:], alg)
        report = chains.mf_chain(alg, sub, mu, ns.max_degree, seed=ns.seed)
    else:
        raise ConfigurationError(
            f"unknown base {base_spec!r}; use casimirs, moment-map, "
            "mf:<shift>, or file:<path>"
        )
    _say(f"verdict: {report.verdict}",
         f"trdeg intermediate {report.trdeg_intermediate} + base "
         f"{report.trdeg_base} vs dim {report.dim} "
         f"(identity {'holds' if report.dim_identity else 'fails'})",
         f"centrality: {'pass' if report.centrality.passed else 'FAIL'}; "
         f"d_A = {report.d_a}, rank = {report.rank}")
    emit_report(report.to_json(), ns.out)
    return {
        "superintegrable": EXIT_OK,
        "not_superintegrable": EXIT_NEGATIVE,
        "inconclusive": EXIT_INCONCLUSIVE,
    }[report.verdict]


def cmd_cycles(ns: argparse.Namespace) -> int:
    _check_sl_size(ns.n)
    # over-budget input fails before any output: the relation check and the
    # census count their instances first, and the oracle runs before the census
    families = (cycles.relation_families_check(ns.n)
                if ns.check in ("relations", "all") else None)
    cycles.check_census_budget(ns.n)
    oracle = (cycles.oracle_cross_check(ns.n, ns.max_degree)
              if ns.check in ("oracle", "all") else None)
    census = cycles.enumerate_cycle_generators(ns.n)
    payload: dict = {"n": ns.n, "generators": census.to_json()}
    _say(f"{len(census)} generators for sl({ns.n})")
    code = EXIT_OK
    if families is not None:
        payload["relations"] = families.to_json()
        _say("relation families: "
             + ("pass" if families.all_passed else "FAIL"))
        if not families.all_passed:
            code = EXIT_NEGATIVE
    if oracle is not None:
        payload["oracle"] = oracle.to_json()
        _say("kernel-vs-balance oracle: "
             + ("pass" if oracle.all_equal else "FAIL"))
        if not oracle.all_equal:
            code = EXIT_NEGATIVE
    emit_report(payload, ns.out)
    return code


def _resolve_monitors(spec: str | None, alg: LieAlgebra):
    if spec is None:
        return []
    if spec == "auto:torus":
        gens = generate(alg, cartan_subalgebra(alg))
    elif spec == "auto:casimirs":
        gens = casimirs_by_kernel(alg).gens
    else:
        gens = _load_generator_file(spec, alg)
    return [(g.label, g.poly) for g in gens.generators]


def cmd_flow(ns: argparse.Namespace) -> int:
    alg = load_algebra(ns.algebra)
    try:
        ham = parse_polynomial(ns.hamiltonian, alg.dim, alg.labels)
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse Hamiltonian: {exc}")
    try:
        x0 = [float(v) for v in ns.x0.split(",")]
    except ValueError:
        raise ConfigurationError(f"cannot parse initial point {ns.x0!r}")
    # the problem checks --t, --dt and --x0 before any monitor is generated
    problem = FlowProblem(algebra=alg, hamiltonian=ham, x0=x0, t_final=ns.t, dt=ns.dt)
    problem.monitors = _resolve_monitors(ns.monitor, alg)
    result = integrate(problem)
    if ns.csv:
        _write_trajectory_csv(ns.csv, alg, result)
    payload = {"algebra": alg.name, "flow": result.to_json()}
    worst = max(result.drifts, key=lambda k: result.drifts[k])
    _say(f"integrated {result.steps} steps of size {result.dt}",
         f"max drift {result.drifts[worst]:.3e} ({worst})")
    emit_report(payload, ns.out)
    return EXIT_OK


def _write_trajectory_csv(path: str, alg: LieAlgebra, result) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", *alg.labels, *result.monitor_labels])
            for t, state, values in zip(
                result.times, result.states, result.monitor_values
            ):
                writer.writerow([repr(t), *map(repr, state), *map(repr, values)])
    except OSError as exc:
        raise ConfigurationError(f"cannot write trajectory to {path!r}: {exc}")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = parse_cli(list(argv))
        _check_writable(ns.out, "report")
        _check_writable(getattr(ns, "csv", None), "trajectory")
        code = ns.handler(ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return EXIT_BROKEN_PIPE
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FlowDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a state that is not finite at t = 0 is input out of range
        return EXIT_NEGATIVE if exc.time else EXIT_INPUT


def _stdout_to_devnull() -> None:
    """Point standard output at the null device after its reader went away,
    so that the flush at interpreter exit cannot raise BrokenPipeError again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        # no file descriptor behind sys.stdout: replace the object; it stays
        # open for the rest of the process, as standard output would
        sys.stdout = open(os.devnull, "w")
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
