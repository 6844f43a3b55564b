"""Command-line surface: parsing, exit codes, report files, determinism."""

import errno
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

from poischain import Polynomial, builtin_sl, cli, commutant, cycles, dump_json, flow
from poischain.algebra import ConfigurationError
from poischain.chains import ChainFormationError
from poischain.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_NEGATIVE,
    EXIT_OK,
    main,
    parse_cli,
)
from poischain.commutant import BudgetExceededError

from helpers import levi_subalgebra, reference_write_trajectory_csv, rescaled_sl_json


def run(argv):
    # argparse failures raise SystemExit; the process exit code is the same
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_parse_cli_defaults():
    ns = parse_cli(
        ["chain", "verify", "--algebra", "sl3", "--subalgebra", "cartan", "--base", "casimirs"]
    )
    assert ns.handler is cli.cmd_chain_verify
    assert ns.seed == 1729
    assert ns.out is None


def test_parse_cli_returns_a_new_namespace_each_call():
    argv = ["cycles", "--n", "3"]
    first = parse_cli(argv)
    first.n, first.extra = 7, "kept"
    second = parse_cli(argv)
    assert second is not first
    assert second.n == 3 and not hasattr(second, "extra")


def test_import_builds_no_parser():
    code = ("import poischain.cli as cli; "
            "print(cli._parser.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out == "0\n"


def _readme_round(directory, capsys):
    """Exit code, standard output and error, and the written report and CSV
    bytes of each README command, run in this process."""
    directory.mkdir()
    commands = [
        ["algebra", "check", "--algebra", "sl3"],
        ["commutant", "--algebra", "sl3", "--subalgebra", "cartan"],
        ["casimirs", "--algebra", "sl3", "--method", "both"],
        ["mf", "--algebra", "sl3", "--shift", "h:1,2", "--subalgebra", "cartan"],
        ["chain", "verify", "--algebra", "sl3", "--subalgebra", "cartan",
         "--base", "casimirs"],
        ["cycles", "--n", "3", "--check", "all"],
        ["flow", "--algebra", "sl2", "--hamiltonian", "h1", "--x0", "1,1,1",
         "--t", "1", "--dt", "0.01", "--monitor", "auto:casimirs",
         "--csv", str(directory / "trajectory.csv")],
    ]
    results = []
    for i, argv in enumerate(commands):
        code = run(argv + ["--out", str(directory / f"report{i}.json")])
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    return results, files


def test_repeated_in_process_calls_are_independent(tmp_path, capsys, monkeypatch):
    first = _readme_round(tmp_path / "first", capsys)
    assert [code for code, _, _ in first[0]] == [EXIT_OK] * 7
    assert len(first[1]) == 8
    # an argparse error and an input error between the two rounds
    assert run(["commutant", "--algebra", "sl3", "--subalgebra", "cartan",
                "--max-degree", "0"]) == EXIT_INPUT
    assert run(["algebra", "check", "--algebra", "sl13"]) == EXIT_INPUT
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2

    def rebuilt():
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    assert _readme_round(tmp_path / "second", capsys) == first
    helps = []
    for _ in range(2):
        assert run(["--help"]) == EXIT_OK
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1]
    assert helps[0].out.startswith("usage: poischain") and helps[0].err == ""


def test_algebra_check(capsys):
    assert run(["algebra", "check", "--algebra", "sl3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "pass" in out


def test_algebra_check_from_file(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(dump_json(builtin_sl(2).to_json()))
    assert run(["algebra", "check", "--algebra", str(path)]) == EXIT_OK


def test_commutant_report(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        [
            "commutant",
            "--algebra",
            "sl3",
            "--subalgebra",
            "cartan",
            "--max-degree",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    labels = [g["label"] for g in data["generators"]]
    assert len(labels) == 7
    assert data["kernel_dims"] == {"1": 2, "2": 6, "3": 12}
    assert len(data["relations"]["relations"]) == 1
    assert data["relations"]["relations"][0]["relation"].startswith("q2_1*q2_2*q2_3")


def test_commutant_closure_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["commutant", "--algebra", "sl3", "--subalgebra", "cartan",
            "--skip-relations", "--closure", "--out", str(out)]
    assert run(argv) == EXIT_OK
    assert "bracket closure: pass" in capsys.readouterr().out.splitlines()
    data = json.loads(out.read_text())
    assert "relations" not in data
    # 7 generators: 28 pairs with repetition, each bracket zero or found
    pairs = data["closure"]["pairs"]
    assert data["closure"]["all_closed"] is True and len(pairs) == 28
    assert all(p["bracket_is_zero"] or p["expression"] for p in pairs)


def test_commutant_closure_line_tells_a_cap_miss_from_a_failure(tmp_path, capsys, monkeypatch):
    """Brackets not found up to their weighted degree are counted, not
    called a failure; FAIL is kept for a bracket that is not invariant.
    Either way all_closed is false and the exit code 0."""
    alg = builtin_sl(4)
    sub = tmp_path / "levi22.json"
    sub.write_text(dump_json(levi_subalgebra(alg, (2, 2)).to_json()))
    out = tmp_path / "report.json"
    argv = ["commutant", "--algebra", "sl4", "--subalgebra", str(sub),
            "--skip-relations", "--closure", "--out", str(out)]
    assert run(argv) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "bracket closure: 4 pair(s) not found up to their weighted degree" in lines
    closure = json.loads(out.read_text())["closure"]
    assert closure["all_closed"] is False
    assert [p["status"] for p in closure["pairs"]].count("not_found_up_to_budget") == 4

    generate = cli.generate

    def with_e12(alg, sub, cap):  # e12 is not torus-invariant
        gens = generate(alg, sub, cap)
        e12 = commutant.Generator(Polynomial.variable(alg.labels.index("e12"), alg.dim), 1, "e12")
        return commutant.GeneratorSet(alg, gens.generators + [e12], gens.subalgebra,
                                      gens.max_degree, gens.kernel_dims)

    monkeypatch.setattr(cli, "generate", with_e12)
    argv = ["commutant", "--algebra", "sl3", "--subalgebra", "cartan",
            "--skip-relations", "--closure", "--out", str(out)]
    assert run(argv) == EXIT_OK
    assert "bracket closure: FAIL" in capsys.readouterr().out.splitlines()
    statuses = {p["status"] for p in json.loads(out.read_text())["closure"]["pairs"]}
    assert "not_invariant" in statuses


def test_chain_verify_superintegrable(capsys):
    code = run(
        ["chain", "verify", "--algebra", "sl3", "--subalgebra", "cartan", "--base", "casimirs"]
    )
    assert code == EXIT_OK
    assert "superintegrable" in capsys.readouterr().out


def test_chain_verify_negative_via_mf_base(capsys):
    code = run(
        [
            "chain",
            "verify",
            "--algebra",
            "sl3",
            "--subalgebra",
            "cartan",
            "--base",
            "mf:h:1,2",
        ]
    )
    assert code == EXIT_NEGATIVE
    assert "not_superintegrable" in capsys.readouterr().out


def test_chain_verify_inconclusive_under_cap(capsys):
    code = run(
        [
            "chain",
            "verify",
            "--algebra",
            "sl3",
            "--subalgebra",
            "cartan",
            "--base",
            "casimirs",
            "--max-degree",
            "2",
        ]
    )
    assert code == EXIT_INCONCLUSIVE


@pytest.mark.parametrize("n, cap", [(4, 3), (5, 4)])
def test_chain_verify_casimir_base_short_under_cap_is_inconclusive(n, cap, tmp_path):
    """The cap drops the top Casimir, so the base rank falls one short of
    the rank while the intermediate algebra reaches its orbit-complement
    bound: no witness of a negative result, exit 2 with the cap named."""
    out = tmp_path / "chain.json"
    code = run(["chain", "verify", "--algebra", f"sl{n}", "--subalgebra", "cartan",
                "--base", "casimirs", "--max-degree", str(cap), "--out", str(out)])
    rep = json.loads(out.read_text())
    assert code == EXIT_INCONCLUSIVE
    assert rep["verdict"] == "inconclusive" and rep["centrality"]["passed"]
    assert (rep["trdeg_intermediate"], rep["trdeg_base"], rep["rank"]) == (
        n * n - 1 - (n - 1), n - 2, n - 1
    )
    assert rep["notes"] == [
        f"base rank {n - 2} is below the rank {n - 1} of the algebra; "
        f"the degree cap {cap} may truncate the Casimirs"
    ]


def test_chain_verify_moment_map(capsys):
    code = run(
        ["chain", "verify", "--algebra", "sl3", "--subalgebra", "cartan", "--base", "moment-map"]
    )
    assert code == EXIT_OK


def test_chain_verify_explicit_base_file(tmp_path):
    sl3 = builtin_sl(3)
    base = {
        "generators": [
            {"label": "b1", "degree": 2, "poly": "e12*e21", "indecomposable": True}
        ]
    }
    path = tmp_path / "base.json"
    path.write_text(dump_json(base))
    code = run(
        [
            "chain",
            "verify",
            "--algebra",
            "sl3",
            "--subalgebra",
            "cartan",
            "--base",
            f"file:{path}",
        ]
    )
    assert code == EXIT_NEGATIVE  # p12 is not central in the torus commutant


def test_chain_verify_noncentral_base_under_cap_is_negative(tmp_path):
    """A nonzero bracket is an exact witness at any cap: the base e12*e21 is
    not central in the torus commutant, although the cap also leaves the
    intermediate rank short of its orbit-complement bound."""
    base = tmp_path / "base.json"
    base.write_text(dump_json({"generators": [{"label": "b1", "poly": "e12*e21"}]}))
    out = tmp_path / "chain.json"
    code = run(["chain", "verify", "--algebra", "sl3", "--subalgebra", "cartan",
                "--base", f"file:{base}", "--max-degree", "2", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert code == EXIT_NEGATIVE
    assert rep["verdict"] == "not_superintegrable"
    assert (rep["trdeg_intermediate"], rep["d_A"]) == (5, 2)  # short of 8 - 2
    assert rep["centrality"]["failures"] == [
        {"base": "b1", "bracket": "e12*e23*e31 - e13*e21*e32", "intermediate": "q2_2"},
        {"base": "b1", "bracket": "-e12*e23*e31 + e13*e21*e32", "intermediate": "q2_3"},
    ]


def test_casimirs_both_routes(capsys, tmp_path):
    out = tmp_path / "cas.json"
    code = run(
        ["casimirs", "--algebra", "sl3", "--method", "both", "--out", str(out)]
    )
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["count_check"]["matches"] is True
    assert data["routes_agree"] is True


@pytest.mark.parametrize("cap, code", [(["--max-degree", "3"], EXIT_INCONCLUSIVE), ([], EXIT_OK)])
def test_casimir_count_short_of_the_corank_is_inconclusive(capsys, cap, code):
    """A cap of 3 drops C4 of sl(4): the count 2 against 3 cannot show that
    Casimirs are missing, so it exits 2 like chain verify and mf."""
    assert run(["casimirs", "--algebra", "sl4", "--method", "kernel", *cap]) == code
    count = "2 (expected 3)" if cap else "3 (expected 3)"
    assert f"independent count {count}" in capsys.readouterr().out


def test_casimirs_both_routes_on_a_dumped_builtin_file(tmp_path):
    path = tmp_path / "sl4.json"
    path.write_text(dump_json(builtin_sl(4).to_json()))
    out = tmp_path / "cas.json"
    code = run(["casimirs", "--algebra", str(path), "--method", "both", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["routes_agree"] is True


def test_trace_route_renders_on_the_loaded_algebra(tmp_path):
    """On an sl(3) file with its own name and e1_2 labels, the trace route
    reports the file's name and labels, as the kernel route does."""
    data = builtin_sl(3).to_json()
    data["name"] = "my-sl3"
    data["labels"] = [lab if lab[0] == "h" else f"{lab[:2]}_{lab[2:]}"
                      for lab in data["labels"]]
    path = tmp_path / "sl3.json"
    path.write_text(dump_json(data))
    out = tmp_path / "cas.json"
    code = run(["casimirs", "--algebra", str(path), "--method", "both", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["routes_agree"] is True
    for route in ("kernel", "trace"):
        assert report[route]["algebra"] == "my-sl3"
        assert report[route]["labels"] == data["labels"]
    assert "e1_2*e2_1" in report["trace"]["generators"][0]["poly"]


def test_mf_command_with_subalgebra(capsys):
    code = run(
        ["mf", "--algebra", "sl3", "--shift", "h:1,2", "--subalgebra", "cartan"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "5 generators" in out
    assert "regular" in out


def test_mf_regular_shift_below_target_count_is_inconclusive(capsys):
    # the cap of 2 drops C3: a regular shift with 2 of 5 independent generators
    code = run(["mf", "--algebra", "sl3", "--shift", "h:1,2", "--max-degree", "2"])
    assert code == EXIT_INCONCLUSIVE
    assert "independent count 2 (target 5)" in capsys.readouterr().out


def test_mf_singular_shift_below_target_count_exits_zero(capsys):
    code = run(["mf", "--algebra", "sl3", "--shift", "h:1,-1"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "NOT regular" in out
    assert "independent count 4 (target 5)" in out


def test_sampled_rank_is_kept_per_seed(tmp_path, monkeypatch):
    from fractions import Fraction as F

    from poischain import algebra, span_subalgebra

    data = builtin_sl(3).to_json()
    del data["cartan_indices"]
    alg_path, sub_path = tmp_path / "alg.json", tmp_path / "sub.json"
    alg_path.write_text(dump_json(data))
    h = [[F(int(i == r)) for i in range(8)] for r in (0, 1)]
    sub_path.write_text(dump_json(span_subalgebra(h, abelian=True).to_json()))
    seeds = []

    def counted(rows_at, n_rows, n_cols, seed):
        if n_rows == 8:  # the commutator rows of LieAlgebra.rank, not an orbit
            seeds.append(seed)
        return generic_rank(rows_at, n_rows, n_cols, seed)

    generic_rank = algebra.generic_rank
    monkeypatch.setattr(algebra, "generic_rank", counted)
    argv = ["chain", "verify", "--algebra", str(alg_path), "--subalgebra",
            str(sub_path), "--base", "mf:1,2,0,0,0,0,0,0"]
    assert run(argv) == EXIT_NEGATIVE
    assert seeds == [1729]
    seeds.clear()
    # the default degree cap samples at the default seed, the checks at 7
    assert run([*argv, "--seed", "7"]) == EXIT_NEGATIVE
    assert sorted(seeds) == [7, 1729]


def test_cycles_all_checks(capsys):
    assert run(["cycles", "--n", "3", "--check", "all"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "7" in out


def test_cycles_census_over_budget_exits_three_at_once(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the census or the oracle was started")

    monkeypatch.setattr(cycles, "all_cycles", refuse)
    monkeypatch.setattr(cycles, "oracle_cross_check", refuse)
    assert run(["cycles", "--n", "10", "--check", "oracle"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the sl(10) cycle census has 1112073 cycles, above 200000\n"


def test_cycles_oracle_over_budget_exits_three_before_the_census(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the census was started")

    monkeypatch.setattr(cycles, "enumerate_cycle_generators", refuse)
    argv = ["cycles", "--n", "7", "--check", "oracle", "--max-degree", "1000"]
    assert run(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the sl7 oracle through degree 1000 lists over 200000 monomials\n"
    )


def test_flow_with_auto_monitors_and_csv(tmp_path):
    csv_path = tmp_path / "traj.csv"
    out = tmp_path / "flow.json"
    code = run(
        [
            "flow",
            "--algebra",
            "sl2",
            "--hamiltonian",
            "h1",
            "--x0",
            "1,1,1",
            "--t",
            "1.0",
            "--dt",
            "0.001",
            "--monitor",
            "auto:casimirs",
            "--csv",
            str(csv_path),
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,h1,e12,e21,H,C2"
    data = json.loads(out.read_text())
    assert data["flow"]["drifts"]["C2"] <= 1e-9


SL2_ODD_LABELS = {
    "name": "sl2 with labels that need quoting",
    "dim": 3,
    "labels": ["h", "a,b", 'x"y'],
    "structure": [
        {"i": 0, "j": 1, "k": 1, "c": "2"},
        {"i": 0, "j": 2, "k": 2, "c": "-2"},
        {"i": 1, "j": 2, "k": 0, "c": "1"},
    ],
    "cartan_indices": [0],
}


@pytest.mark.parametrize("algebra, header", [
    pytest.param("sl2", "t,h1,e12,e21,H,C2", id="readme-sl2"),
    pytest.param(SL2_ODD_LABELS, 't,h,"a,b","x""y",H,C2', id="quoted-labels"),
])
def test_trajectory_csv_bytes_match_csv_writer(tmp_path, monkeypatch, algebra, header):
    if isinstance(algebra, dict):
        (tmp_path / "odd.json").write_text(json.dumps(algebra))
        algebra = str(tmp_path / "odd.json")
    original, results = cli.integrate, []

    def keep(problem):
        results.append(original(problem))
        return results[-1]

    monkeypatch.setattr(cli, "integrate", keep)
    # the README sl(2) flow; x1 is the positional spelling of the first label
    csv_path = tmp_path / "trajectory.csv"
    code = run(["flow", "--algebra", algebra, "--hamiltonian", "x1", "--x0", "1,1,1",
                "--t", "10", "--dt", "0.001", "--monitor", "auto:casimirs",
                "--csv", str(csv_path), "--out", str(tmp_path / "flow.json")])
    assert code == EXIT_OK
    (result,) = results
    reference_write_trajectory_csv(tmp_path / "reference.csv", cli.load_algebra(algebra), result)
    written = csv_path.read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.startswith(header.encode() + b"\r\n") and written.count(b"\r\n") == 1002


def test_flow_divergence_exit_code(tmp_path):
    code = run(
        [
            "flow",
            "--algebra",
            "sl2",
            "--hamiltonian",
            "h1*e12",
            "--x0",
            "0,1,0",
            "--t",
            "1.0",
            "--dt",
            "0.001",
        ]
    )
    assert code == EXIT_NEGATIVE


def test_input_errors_exit_three(tmp_path, capsys):
    assert run(["algebra", "check", "--algebra", "sl1"]) == EXIT_INPUT
    assert run(["algebra", "check", "--algebra", "nonexistent.json"]) == EXIT_INPUT
    assert run(["algebra", "check", "--algebra", "sl40"]) == EXIT_INPUT
    assert (
        run(
            [
                "commutant",
                "--algebra",
                "sl2",
                "--subalgebra",
                "cartan",
                "--max-degree",
                "0",
            ]
        )
        == EXIT_INPUT
    )
    assert (
        run(
            [
                "chain",
                "verify",
                "--algebra",
                "sl2",
                "--subalgebra",
                "cartan",
                "--base",
                "bogus",
            ]
        )
        == EXIT_INPUT
    )


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["flow", "--algebra", "sl2", "--hamiltonian", "h1", "--t", "0.1",
          "--dt", "0.01"], "--x0", "-0.5,0.1,0.2"),
        (["mf", "--algebra", "sl2"], "--shift", "-1,0,0"),
    ],
)
def test_vector_flag_with_negative_leading_coordinate(tmp_path, argv, flag, value):
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    assert run(argv + [flag, value, "--out", str(spaced)]) == EXIT_OK
    assert run(argv + [f"{flag}={value}", "--out", str(joined)]) == EXIT_OK
    assert spaced.read_bytes() == joined.read_bytes()


def test_zero_denominator_in_generator_file_is_named(tmp_path, capsys):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"generators": [{"poly": "1/0*h1"}]}))
    argv = _FLOW + ["--x0", "1,1,1", "--t", "1", "--dt", "0.1", "--monitor", str(path)]
    assert run(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: cannot parse generator file {str(path)!r}: zero denominator in '1/0'\n"


@pytest.mark.parametrize(
    "data, argv",
    [
        pytest.param({"dim": 3, "labels": ["h", "e", "f"],
                      "structure": [{"i": 0, "j": 1, "k": 1, "c": "2/0"}]},
                     ["algebra", "check", "--algebra", "@"], id="algebra"),
        pytest.param({"vectors": [["1/0", "0", "0"]]},
                     ["commutant", "--algebra", "sl2", "--subalgebra", "@"],
                     id="subalgebra"),
        pytest.param({"generators": [{"poly": [{"coeff": "1/0", "exps": {"0": 1}}]}]},
                     ["flow", "--algebra", "sl2", "--hamiltonian", "h1", "--x0", "1,1,1",
                      "--t", "1", "--dt", "0.1", "--monitor", "@"], id="generator"),
    ],
)
def test_zero_denominator_in_json_value_is_named(tmp_path, capsys, data, argv):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert run([str(path) if a == "@" else a for a in argv]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert re.search(r"zero denominator in '\d+/0'$", err.strip())


def test_argparse_error_is_one_stderr_line(capsys):
    argv = ["commutant", "--algebra", "sl3", "--subalgebra", "cartan", "--max-degree", "0"]
    assert run(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "error:" in err and "Traceback" not in err


def test_argparse_errors_mapped_to_input_code():
    with pytest.raises(SystemExit) as exc:
        parse_cli(["commutant", "--algebra", "sl2"])  # missing --subalgebra
    assert exc.value.code == EXIT_INPUT


def test_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = [
        "chain",
        "verify",
        "--algebra",
        "sl3",
        "--subalgebra",
        "cartan",
        "--base",
        "casimirs",
    ]
    assert run(argv + ["--out", str(a)]) == EXIT_OK
    assert run(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_subalgebra_file_round_trip(tmp_path):
    from poischain import span_subalgebra
    from fractions import Fraction as F

    spec = span_subalgebra([[F(1), F(2), F(0), F(0), F(0), F(0), F(0), F(0)]], abelian=True)
    path = tmp_path / "sub.json"
    path.write_text(dump_json(spec.to_json()))
    code = run(
        ["chain", "verify", "--algebra", "sl3", "--subalgebra", str(path), "--base", "moment-map"]
    )
    assert code == EXIT_OK


def test_full_subalgebra_by_name(tmp_path):
    out = tmp_path / "full.json"
    argv = ["commutant", "--algebra", "sl2", "--subalgebra", "full", "--out", str(out)]
    assert run(argv) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["subalgebra"] == "full"
    assert [g["poly"] for g in report["generators"]] == ["h1^2 + 4*e12*e21"]


def test_directory_as_algebra_cannot_be_read(tmp_path, capsys):
    assert run(["algebra", "check", "--algebra", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read algebra file {str(tmp_path)!r}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("base", ["casimirs", "moment-map"])
def test_rescaled_cartan_file_gives_the_cartan_report(tmp_path, base):
    """A subalgebra is its span: rational, sheared and negated multiples of
    the sl(4) Cartan vectors, named cartan, give the same report bytes as
    the built-in Cartan subalgebra."""
    rest = ["0"] * 12
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"name": "cartan", "abelian": True, "vectors": [
        ["1/2", "0", "0"] + rest,
        ["2/3", "-3/4", "0"] + rest,
        ["-1", "1/5", "-5/7"] + rest,
    ]}))
    reports = []
    for sub in ("cartan", str(path)):
        out = tmp_path / f"{len(reports)}.json"
        argv = ["chain", "verify", "--algebra", "sl4", "--subalgebra", sub,
                "--base", base, "--out", str(out)]
        assert run(argv) == EXIT_OK
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


class _ClosedPipe(io.TextIOBase):
    """A standard output whose reader has gone away."""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_closed_stdout_exits_141_with_nothing_on_stderr(monkeypatch):
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    monkeypatch.setattr(sys, "stderr", err)
    code = main(["mf", "--algebra", "sl3", "--shift", "-1,2,0,0,0,0,0,0"])
    redirected = sys.stdout
    assert code == EXIT_BROKEN_PIPE == 141
    assert err.getvalue() == ""
    assert redirected.name == os.devnull
    redirected.close()


_SL2_JSON = builtin_sl(2).to_json()

# "@name" in an argument stands for the file of that name in a scratch directory
_MALFORMED_FILES = {
    "float_c.json": {"dim": 2, "labels": ["a", "b"],
                     "structure": [{"i": 0, "j": 1, "k": 1, "c": 1.5}]},
    "list.json": [1, 2, 3],
    "short_sub.json": {"vectors": [["1", "0"]]},
    "zero_sub.json": {"vectors": [["1/0", "0", "0"]]},
    "float_gen.json": {"generators": [{"poly": [{"coeff": 1.5, "exps": {"0": 1}}]}]},
    "float_dim.json": {"dim": 2.5, "labels": ["a", "b"], "structure": []},
    "float_index.json": {"dim": 3, "labels": ["h", "e", "f"],
                         "structure": [{"i": 0, "j": 1.9, "k": 1, "c": "2"}]},
    "bool_c.json": {"dim": 2, "labels": ["a", "b"],
                    "structure": [{"i": 0, "j": 1, "k": 1, "c": True}]},
    "int_labels.json": _SL2_JSON | {"labels": [1, 2, 3]},
    "dup_cartan.json": _SL2_JSON | {"cartan_indices": [0, 0]},
    "string_abelian_sub.json": {"vectors": [["1", "0", "0"]], "abelian": "no"},
    "bool_index.json": {"dim": 3, "labels": ["h", "e", "f"],
                        "structure": [{"i": False, "j": 1, "k": 1, "c": "2"}]},
    "bool_cartan.json": {"dim": 3, "labels": ["h", "e", "f"],
                         "structure": [{"i": 0, "j": 1, "k": 1, "c": "2"},
                                       {"i": 0, "j": 2, "k": 2, "c": "-2"},
                                       {"i": 1, "j": 2, "k": 0, "c": "1"}],
                         "cartan_indices": [True]},
    "float_cartan.json": {"dim": 3, "labels": ["h", "e", "f"],
                          "structure": [{"i": 0, "j": 1, "k": 1, "c": "2"},
                                        {"i": 0, "j": 2, "k": 2, "c": "-2"},
                                        {"i": 1, "j": 2, "k": 0, "c": "1"}],
                          "cartan_indices": [0.5]},
    # a string is written as it stands: here, a JSON document cut short
    "bad_json.json": '{"dim": 3, "labels": ["h", "e"',
    "wrong_dim.json": {"dim": 3, "labels": ["h", "e"], "structure": []},
    # generator files whose integer or boolean fields have the wrong JSON type
    "float_degree_gen.json": {"generators": [{"poly": "h1", "degree": 2.7}]},
    "bool_degree_gen.json": {"generators": [{"poly": "h1", "degree": True}]},
    "string_cap_gen.json": {"generators": [{"poly": "h1"}], "max_degree": "zz"},
    "float_kernel_dim_gen.json": {"generators": [{"poly": "h1"}],
                                  "kernel_dims": {"1": 1.5}},
    "string_indecomposable_gen.json": {"generators": [{"poly": "h1",
                                                       "indecomposable": "no"}]},
    # generator degrees below 1, given or read off a constant or zero poly
    "zero_degree_gen.json": {"generators": [{"poly": "h1", "degree": 0}]},
    "negative_degree_gen.json": {"generators": [{"poly": "h1", "degree": -1}]},
    "constant_gen.json": {"generators": [{"poly": "3"}]},
    "zero_poly_gen.json": {"generators": [{"poly": "0"}]},
    # the sl(3) labels on structure constants other than builtin_sl(3)'s
    "rescaled_sl3.json": rescaled_sl_json(3),
    "no_cartan.json": {k: v for k, v in _SL2_JSON.items() if k != "cartan_indices"},
    "zero_vector_sub.json": {"vectors": [["0", "0", "0"]]},
    # exponents in term lists that are not JSON integers in an object
    "float_exponent_gen.json": {"generators": [{"poly": [{"coeff": "1",
                                                          "exps": {"0": 1.5}}]}]},
    "bool_exponent_gen.json": {"generators": [{"poly": [{"coeff": "1",
                                                         "exps": {"0": True}}]}]},
    "list_exps_gen.json": {"generators": [{"poly": [{"coeff": "1", "exps": [1]}]}]},
    # a declared degree that is not the degree of the poly
    "degree_mismatch_gen.json": {"generators": [{"poly": "h1^2", "degree": 1},
                                                {"poly": "h1"}]},
    # a label used twice (on central generators, a valid base otherwise), and
    # a label that is not a string (JSON null)
    "repeated_label_gen.json": {"generators": [{"poly": "h1^2 + 4*e12*e21", "label": "C"},
                                               {"poly": "2*h1^2 + 8*e12*e21", "label": "C"}]},
    "null_label_gen.json": {"generators": [{"poly": "h1", "label": None}]},
    # monitors labelled as flow labels the Hamiltonian: e12, which grows as
    # exp(2t) along the flow of h1, and the Casimir
    "h_labels.json": {"generators": [{"poly": "e12", "label": "H"},
                                     {"poly": "h1^2 + 4*e12*e21", "label": "H"}]},
    "h_label.json": {"generators": [{"poly": "e12", "label": "H"}]},
    # containers of the wrong JSON type: kernel_dims not an object, a
    # generator list, vectors, structure or Cartan indices given as an object
    # or a string, none of them to be read key by key or digit by digit
    **{f"{kind}_kernel_dims_gen.json": {"generators": [{"poly": "h1"}], "kernel_dims": value}
       for kind, value in (("list", [1]), ("string", "12"), ("number", 3),
                           ("bool", True), ("null", None))},
    "object_generators_gen.json": {"generators": {}},
    "string_vector_sub.json": {"vectors": ["10000000"]},
    "object_vectors_sub.json": {"vectors": {"10000000": 1}},
    "object_structure.json": _SL2_JSON | {"structure": {}},
    "object_cartan.json": _SL2_JSON | {"cartan_indices": {}},
}

# every subcommand that takes --algebra, with the other arguments it needs
_ALGEBRA_COMMANDS = {
    "algebra-check": ["algebra", "check"],
    "commutant": ["commutant", "--subalgebra", "cartan"],
    "casimirs": ["casimirs"],
    "mf": ["mf", "--shift", "h:1"],
    "chain-verify": ["chain", "verify", "--subalgebra", "cartan", "--base", "casimirs"],
    "flow": ["flow", "--hamiltonian", "h1", "--x0", "1,1,1", "--t", "1", "--dt", "0.1"],
}
_BAD_ALGEBRA_INPUTS = {
    "bad-json": ["--algebra", "@bad_json.json"],
    "wrong-dim": ["--algebra", "@wrong_dim.json"],
    "unknown-label": ["--algebra", "so3"],
    "sl13": ["--algebra", "sl13"],
    "unwritable-out": ["--algebra", "sl2", "--out", "@missing_dir/report.json"],
}
_ALGEBRA_CONTRACT = [
    pytest.param(command + argv, id=f"{name}-{case}")
    for name, command in _ALGEBRA_COMMANDS.items()
    for case, argv in _BAD_ALGEBRA_INPUTS.items()
]

_FLOW = ["flow", "--algebra", "sl2", "--hamiltonian", "h1"]
# each malformed generator file, as a chain base and as flow monitors
_GENERATOR_CONTRACT = [
    pytest.param(argv + [f"{prefix}@{name}_gen.json"], id=f"{name}-generator-{use}")
    for name in ("float_degree", "bool_degree", "string_cap", "float_kernel_dim",
                 "string_indecomposable", "zero_degree", "negative_degree", "constant",
                 "zero_poly", "float_exponent", "bool_exponent", "list_exps",
                 "degree_mismatch", "repeated_label", "null_label", "list_kernel_dims",
                 "string_kernel_dims", "number_kernel_dims", "bool_kernel_dims",
                 "null_kernel_dims", "object_generators")
    for use, argv, prefix in (
        ("base", ["chain", "verify", "--algebra", "sl2", "--subalgebra", "cartan",
                  "--base"], "file:"),
        ("monitor", _FLOW + ["--x0", "1,1,1", "--t", "1", "--dt", "0.1", "--monitor"], ""),
    )
]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["algebra", "check", "--algebra", "@float_c.json"],
                     id="float-structure-constant"),
        pytest.param(["algebra", "check", "--algebra", "@list.json"],
                     id="algebra-file-is-a-list"),
        pytest.param(["commutant", "--algebra", "sl2", "--subalgebra", "@list.json"],
                     id="subalgebra-file-is-a-list"),
        pytest.param(["chain", "verify", "--algebra", "sl2", "--subalgebra", "cartan",
                      "--base", "file:@list.json"], id="generator-file-is-a-list"),
        pytest.param(["algebra", "check", "--algebra", "@"], id="algebra-is-a-directory"),
        pytest.param(["commutant", "--algebra", "sl2", "--subalgebra",
                      "@zero_vector_sub.json"], id="subalgebra-fails-validation"),
        pytest.param(["mf", "--algebra", "@no_cartan.json", "--shift", "h:1"],
                     id="cartan-shift-without-flagged-cartan"),
        pytest.param(["mf", "--algebra", "sl3", "--shift", "h:1"],
                     id="cartan-shift-wrong-count"),
        pytest.param(["mf", "--algebra", "sl3", "--shift", "h:a,b"],
                     id="cartan-shift-not-rational"),
        pytest.param(_FLOW + ["--x0", "a,b,c", "--t", "1", "--dt", "0.1"],
                     id="unparsable-initial-point"),
        pytest.param(_FLOW + ["--x0", "1,1", "--t", "1", "--dt", "0.1"],
                     id="short-initial-point"),
        pytest.param(_FLOW + ["--x0", "1,1,1", "--t", "-1", "--dt", "0.1"],
                     id="negative-time"),
        pytest.param(["algebra", "check", "--algebra", "@float_dim.json"],
                     id="non-integral-dimension"),
        pytest.param(["algebra", "check", "--algebra", "@float_index.json"],
                     id="non-integral-structure-index"),
        pytest.param(["algebra", "check", "--algebra", "@bool_c.json"],
                     id="boolean-structure-constant"),
        pytest.param(["algebra", "check", "--algebra", "@int_labels.json"],
                     id="non-string-labels"),
        pytest.param(["commutant", "--algebra", "@int_labels.json", "--subalgebra",
                      "cartan", "--max-degree", "2"], id="non-string-labels-commutant"),
        pytest.param(["algebra", "check", "--algebra", "@dup_cartan.json"],
                     id="duplicate-cartan-index"),
        pytest.param(["chain", "verify", "--algebra", "@dup_cartan.json", "--subalgebra",
                      "cartan", "--base", "casimirs"], id="duplicate-cartan-index-chain"),
        pytest.param(["commutant", "--algebra", "sl2", "--subalgebra",
                      "@string_abelian_sub.json"], id="string-abelian-flag"),
        pytest.param(["chain", "verify", "--algebra", "sl2", "--subalgebra",
                      "@string_abelian_sub.json", "--base", "moment-map"],
                     id="string-abelian-flag-moment-map"),
        pytest.param(["algebra", "check", "--algebra", "@bool_index.json"],
                     id="boolean-structure-index"),
        pytest.param(["algebra", "check", "--algebra", "@bool_cartan.json"],
                     id="boolean-cartan-index"),
        pytest.param(["algebra", "check", "--algebra", "@float_cartan.json"],
                     id="non-integer-cartan-index"),
        pytest.param(["chain", "verify", "--algebra", "sl2", "--subalgebra",
                      "@short_sub.json", "--base", "casimirs"],
                     id="chain-verify-short-subalgebra-vector"),
        pytest.param(["commutant", "--algebra", "sl2", "--subalgebra",
                      "@short_sub.json"], id="commutant-short-subalgebra-vector"),
        pytest.param(["commutant", "--algebra", "sl2", "--subalgebra",
                      "@zero_sub.json"], id="subalgebra-entry-divides-by-zero"),
        pytest.param(["chain", "verify", "--algebra", "sl2", "--subalgebra", "cartan",
                      "--base", "file:@float_gen.json"], id="float-generator-base"),
        pytest.param(_FLOW + ["--x0", "1,1,1", "--t", "1", "--dt", "0.1",
                              "--monitor", "@float_gen.json"],
                     id="float-generator-monitor"),
        pytest.param(_FLOW + ["--x0", "1,1,1", "--t", "1", "--dt", "0.01",
                              "--monitor", "@h_labels.json"],
                     id="monitors-with-one-label-twice"),
        pytest.param(_FLOW + ["--x0", "1,1,1", "--t", "1", "--dt", "0.01",
                              "--monitor", "@h_label.json"],
                     id="monitor-labelled-as-the-hamiltonian"),
        pytest.param(_FLOW + ["--x0", "1,1,1", "--t", "1e308", "--dt", "1e-308"],
                     id="infinite-step-count"),
        pytest.param(_FLOW + ["--x0", "1,1,1", "--t", "1", "--dt", "inf"],
                     id="infinite-step"),
        pytest.param(_FLOW + ["--x0", "nan,1,1", "--t", "1", "--dt", "0.1"],
                     id="nan-initial-point"),
        pytest.param(["flow", "--algebra", "sl2", "--hamiltonian", "h1^2",
                      "--x0", "1e200,1,1", "--t", "1", "--dt", "0.1"],
                     id="hamiltonian-overflows-at-initial-point"),
        pytest.param(["flow", "--algebra", "sl2", "--hamiltonian", "h1^70000",
                      "--x0", "1,1,1", "--t", "1", "--dt", "0.1"],
                     id="hamiltonian-degree-above-key-cap"),
        pytest.param(["flow", "--algebra", "sl2", "--hamiltonian", "3/0",
                      "--x0", "1,1,1", "--t", "1", "--dt", "0.1"],
                     id="hamiltonian-zero-denominator"),
        pytest.param(["flow", "--algebra", "sl2", "--hamiltonian", "1/0*h1",
                      "--x0", "1,1,1", "--t", "1", "--dt", "0.1"],
                     id="hamiltonian-term-zero-denominator"),
        pytest.param(["cycles", "--n", "13"], id="cycles-n-above-cap"),
        pytest.param(["cycles", "--n", "12"], id="cycles-family-one-over-budget"),
        pytest.param(["cycles", "--n", "1"], id="cycles-n-below-two"),
        pytest.param(["algebra", "check", "--algebra", "sl2",
                      "--out", "@missing_dir/report.json"], id="unwritable-report"),
        pytest.param(_FLOW + ["--x0", "1,1,1", "--t", "1", "--dt", "0.1",
                              "--csv", "@missing_dir/trajectory.csv"],
                     id="unwritable-trajectory"),
        pytest.param(["algebra", "check", "--algebra", "foo"], id="unknown-algebra"),
        pytest.param(["commutant", "--algebra", "sl2", "--subalgebra", "bogus"],
                     id="unknown-subalgebra"),
        pytest.param(["mf", "--algebra", "sl3", "--shift", "1,2"], id="short-shift"),
        pytest.param(["commutant", "--algebra", "sl3", "--subalgebra", "cartan",
                      "--relations-degree", "2"],
                     id="relations-degree-below-generator-degree"),
        pytest.param(["casimirs", "--algebra", "sl3", "--method", "trace",
                      "--max-degree", "1"], id="trace-route-degree-one"),
        pytest.param(["casimirs", "--algebra", "sl3", "--method", "both",
                      "--max-degree", "1"], id="both-routes-degree-one"),
        pytest.param(["casimirs", "--algebra", "@rescaled_sl3.json", "--method", "trace"],
                     id="trace-route-rescaled-sl3-file"),
        pytest.param(["casimirs", "--algebra", "@rescaled_sl3.json", "--method", "both"],
                     id="both-routes-rescaled-sl3-file"),
        pytest.param(["commutant", "--algebra", "sl3", "--subalgebra",
                      "@string_vector_sub.json"], id="subalgebra-vector-is-a-string"),
        pytest.param(["commutant", "--algebra", "sl3", "--subalgebra",
                      "@object_vectors_sub.json"], id="subalgebra-vectors-are-an-object"),
        pytest.param(["algebra", "check", "--algebra", "@object_structure.json"],
                     id="structure-is-an-object"),
        pytest.param(["algebra", "check", "--algebra", "@object_cartan.json"],
                     id="cartan-indices-are-an-object"),
        *_ALGEBRA_CONTRACT,
        *_GENERATOR_CONTRACT,
    ],
)
def test_malformed_input_exits_three_with_one_line(tmp_path, capsys, argv):
    for name, data in _MALFORMED_FILES.items():
        (tmp_path / name).write_text(data if isinstance(data, str) else json.dumps(data))
    argv = [a.replace("@", f"{tmp_path}{os.sep}") for a in argv]
    assert run(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "error:" in err and "Traceback" not in err


# well-formed algebra files outside the supported (semisimple, consistently
# flagged) inputs: the Killing form of the first two is degenerate, and the
# third flags two Cartan indices, so dim + rank is odd
_UNSUPPORTED_ALGEBRAS = {
    "heisenberg": {"name": "heisenberg", "dim": 3, "labels": ["p", "q", "z"],
                   "structure": [{"i": 0, "j": 1, "k": 2, "c": "1"}],
                   "cartan_indices": [2]},
    "abelian2": {"name": "abelian2", "dim": 2, "labels": ["a", "b"], "structure": []},
    "sl2-two-cartan": _SL2_JSON | {"cartan_indices": [0, 1]},
}
_UNSUPPORTED_COMMANDS = {
    "algebra-check": "algebra check",
    "commutant-closure": "commutant --subalgebra full --closure",
    "casimirs-kernel": "casimirs",
    "casimirs-both": "casimirs --method both",
    "mf": "mf --shift {shift}",
    "mf-subalgebra": "mf --shift {shift} --subalgebra full",
    "chain-casimirs": "chain verify --subalgebra full --base casimirs",
    "chain-moment-map": "chain verify --subalgebra full --base moment-map",
    "chain-mf": "chain verify --subalgebra full --base mf:{shift}",
    "flow-torus": "flow --hamiltonian {h} --x0 {x0} --t 1 --dt 0.1 --monitor auto:torus",
    "flow-casimirs": "flow --hamiltonian {h} --x0 {x0} --t 1 --dt 0.1 --monitor auto:casimirs",
}


@pytest.mark.parametrize(
    "algebra, template",
    [
        *(pytest.param(name, template, id=f"{name}-{command}")
          for name in _UNSUPPORTED_ALGEBRAS
          for command, template in _UNSUPPORTED_COMMANDS.items()),
        pytest.param(None, "cycles --n 3 --check oracle --max-degree 1000",
                     id="cycles-oracle-degree-1000"),
        pytest.param(None, "cycles --n 3 --check oracle --max-degree 70000",
                     id="cycles-oracle-degree-70000"),
    ],
)
def test_unsupported_input_gives_a_result_or_one_error_line(tmp_path, capsys,
                                                           algebra, template):
    argv = template.split()
    if algebra is not None:
        data = _UNSUPPORTED_ALGEBRAS[algebra]
        dim = data["dim"]
        fields = {"shift": ",".join(["1"] + ["0"] * (dim - 1)),
                  "x0": ",".join(["1"] * dim), "h": data["labels"][0]}
        path = tmp_path / f"{algebra}.json"
        path.write_text(json.dumps(data))
        argv = template.format(**fields).split() + ["--algebra", str(path)]
    code = run(argv + ["--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if algebra is None:
        assert code == EXIT_INPUT
    if code == EXIT_INPUT:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_INCONCLUSIVE) and err == ""


def test_invalid_input_errors_share_one_type(capsys):
    assert issubclass(ChainFormationError, ConfigurationError)
    assert issubclass(BudgetExceededError, ConfigurationError)
    assert run(["commutant", "--algebra", "sl3", "--subalgebra", "cartan",
                "--relations-degree", "2"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: weighted-degree budget 2 is below the largest generator degree 3\n")


@pytest.mark.parametrize("argv", [
    ["mf", "--algebra", "sl3", "--shift", "h:1,2", "--subalgebra", "nope.json"],
    ["commutant", "--algebra", "sl3", "--subalgebra", "cartan", "--relations-degree", "2"],
], ids=["mf-missing-subalgebra", "commutant-relations-budget"])
def test_input_error_prints_no_summary_first(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_relation_budget_error_names_the_way_out(monkeypatch, capsys):
    """The default relation budget of sl(5), twice the cap, reaches weighted
    degree 8, over COLUMN_BUDGET; the one line names the largest budget that
    fits and --skip-relations, or only the latter when no budget fits."""
    assert run(["commutant", "--algebra", "sl5", "--subalgebra", "cartan"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: 30050 formal monomials at weighted degree 8; "
        "rerun with --relations-degree 7 or --skip-relations\n")
    # at sl(3), 6 columns at degree 2 are over a budget of 5, and a budget of
    # 1 is below the largest generator degree, 3
    monkeypatch.setattr(commutant, "COLUMN_BUDGET", 5)
    assert run(["commutant", "--algebra", "sl3", "--subalgebra", "cartan"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: 6 formal monomials at weighted degree 2; rerun with --skip-relations\n")


def test_bad_flow_step_fails_before_the_monitors_are_generated(monkeypatch, capsys):
    """The sl(12) Casimir kernel would take hours; the step is checked first."""

    def no_work(*args):
        raise AssertionError("the monitors were generated before the step was checked")

    monkeypatch.setattr(cli, "casimirs_by_kernel", no_work)
    start = time.perf_counter()
    code = run(["flow", "--algebra", "sl12", "--hamiltonian", "h1",
                "--x0", ",".join(["1"] * 143), "--t", "1", "--dt", "-1",
                "--monitor", "auto:casimirs"])
    assert time.perf_counter() - start < 1
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: time horizon and step must be positive and finite\n")


def test_flow_over_the_step_budget_exits_3_with_one_line(monkeypatch, capsys):
    """10^300 steps is a finite count; unchecked, the flow runs for ever."""

    def no_compile(*args):
        raise AssertionError("compiled a flow over the step budget")

    monkeypatch.setattr(flow, "_compile_flow", no_compile)
    assert run(_FLOW + ["--x0", "1,1,1", "--t", "1", "--dt", "1e-300"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: time horizon / step is 1e+300 steps, above the step budget 10000000\n")


@pytest.mark.parametrize("poly, argv", [
    ("h1^2 + e12", _FLOW + ["--x0", "1,1,1", "--t", "1", "--dt", "0.1", "--monitor"]),
    ("h1^2 + e12*e21 + h1", ["chain", "verify", "--algebra", "sl2", "--subalgebra", "cartan",
                             "--base"]),
], ids=["flow-monitor", "chain-base"])
def test_inhomogeneous_generator_file_is_accepted_as_targets(tmp_path, poly, argv):
    # membership and relation_basis refuse such a generator; a monitor or a
    # base generator is only a target or a bracket operand
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"generators": [{"label": "a", "poly": poly}]}))
    spec = str(path) if argv[-1] == "--monitor" else f"file:{path}"
    assert run(argv + [spec, "--out", str(tmp_path / "report.json")]) == EXIT_OK


_MINIMAL_ARGV = {
    "algebra check": ["algebra", "check", "--algebra", "sl2"],
    "commutant": ["commutant", "--algebra", "sl2", "--subalgebra", "cartan"],
    "casimirs": ["casimirs", "--algebra", "sl2"],
    "mf": ["mf", "--algebra", "sl2", "--shift", "h:1"],
    "chain verify": ["chain", "verify", "--algebra", "sl2", "--subalgebra", "cartan",
                     "--base", "casimirs"],
    "cycles": ["cycles", "--n", "3"],
    "flow": _FLOW + ["--x0", "1,1,1", "--t", "1", "--dt", "0.1"],
}


def test_minimal_argv_covers_every_subcommand():
    handlers = {parse_cli(argv).handler for argv in _MINIMAL_ARGV.values()}
    assert handlers == {getattr(cli, name) for name in dir(cli) if name.startswith("cmd_")}


@pytest.mark.parametrize("command", sorted(_MINIMAL_ARGV))
def test_seed_is_accepted_by_exactly_five_subcommands(command, capsys):
    argv = _MINIMAL_ARGV[command] + ["--seed", "5"]
    if command in ("casimirs", "mf", "chain verify", "commutant", "flow"):
        assert parse_cli(argv).seed == 5
    else:
        assert run(argv) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("unrecognized arguments: --seed 5")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["chain", "verify", "--algebra", "sl5", "--subalgebra", "cartan",
                      "--base", "casimirs", "--out", "@missing_dir/x.json"],
                     id="report-in-missing-directory"),
        pytest.param(["chain", "verify", "--algebra", "sl5", "--subalgebra", "cartan",
                      "--base", "casimirs", "--out", "@"], id="report-is-a-directory"),
        pytest.param(_FLOW + ["--x0", "1,1,1", "--t", "1", "--dt", "0.1",
                              "--csv", "@missing_dir/trajectory.csv"],
                     id="trajectory-in-missing-directory"),
    ],
)
def test_unwritable_output_fails_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def no_work(spec):
        raise AssertionError("work started before the output path was checked")

    # every handler above starts by loading its algebra
    monkeypatch.setattr(cli, "load_algebra", no_work)
    argv = [a.replace("@", f"{tmp_path}{os.sep}") for a in argv]
    assert run(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: cannot write ")


def test_algebra_check_sl12_passes(capsys):
    assert run(["algebra", "check", "--algebra", "sl12"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    for name in ("antisymmetry", "jacobi", "killing_nondegenerate"):
        assert f"{name}: pass" in lines
