"""Command-line surface: parsing, exit codes, report files, determinism."""

import json

import pytest

from poischain import builtin_sl, dump_json, parse_polynomial
from poischain.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_NEGATIVE,
    EXIT_OK,
    main,
    parse_cli,
)


def run(argv):
    # argparse failures raise SystemExit; the process exit code is the same
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_parse_cli_defaults():
    cfg = parse_cli(
        ["chain", "verify", "--algebra", "sl3", "--subalgebra", "cartan", "--base", "casimirs"]
    )
    assert cfg.command == "chain verify"
    assert cfg.seed == 1729
    assert cfg.out is None


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


def test_casimirs_both_routes(capsys, tmp_path):
    out = tmp_path / "cas.json"
    code = run(
        ["casimirs", "--algebra", "sl3", "--method", "both", "--out", str(out)]
    )
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["count_check"]["matches"] is True
    assert data["routes_agree"] is True


def test_mf_command_with_subalgebra(capsys):
    code = run(
        ["mf", "--algebra", "sl3", "--shift", "h:1,2", "--subalgebra", "cartan"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "5 generators" in out
    assert "regular" in out


def test_cycles_all_checks(capsys):
    assert run(["cycles", "--n", "3", "--check", "all"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "7" in out


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
