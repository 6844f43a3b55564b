"""One default degree cap: generate resolves --max-degree's default, so for
sl(n) every subcommand and auto: monitor gives with no --max-degree exactly
what it gives with --max-degree n."""

import csv

import pytest

from poischain import (
    builtin_sl,
    cartan_subalgebra,
    casimirs_by_kernel,
    dump_json,
    generate,
)
from poischain.cli import EXIT_NEGATIVE, EXIT_OK, main


def _commands(n, casimir_file):
    alg = f"sl{n}"
    shift = "h:" + ",".join(str(k) for k in range(1, n))
    verify = ["chain", "verify", "--algebra", alg, "--subalgebra", "cartan", "--base"]
    return {
        "commutant": ["commutant", "--algebra", alg, "--subalgebra", "cartan"],
        "casimirs-both": ["casimirs", "--algebra", alg, "--method", "both"],
        "mf": ["mf", "--algebra", alg, "--shift", shift, "--subalgebra", "cartan"],
        "chain-casimirs": verify + ["casimirs"],
        "chain-moment-map": verify + ["moment-map"],
        "chain-mf": verify + [f"mf:{shift}"],
        "chain-file": verify + [f"file:{casimir_file}"],
    }


def _run(argv, report, capsys):
    code = main(argv + ["--out", str(report)])
    return code, report.read_bytes(), capsys.readouterr()


@pytest.mark.parametrize("n", [3, 4], ids=["sl3", "sl4"])
def test_no_max_degree_is_max_degree_n(tmp_path, capsys, n):
    casimir_file = tmp_path / "casimirs.json"
    casimir_file.write_text(dump_json(casimirs_by_kernel(builtin_sl(n), n).to_json()))
    for name, argv in _commands(n, casimir_file).items():
        default = _run(argv, tmp_path / "default.json", capsys)
        explicit = _run(argv + ["--max-degree", str(n)], tmp_path / "explicit.json", capsys)
        assert default == explicit, name
        assert default[2].err == "", name
        # the mf base is never valid; every other command succeeds
        assert default[0] == (EXIT_NEGATIVE if name == "chain-mf" else EXIT_OK), name


@pytest.mark.parametrize("n", [3, 4], ids=["sl3", "sl4"])
def test_auto_monitors_use_the_default_cap(tmp_path, n):
    alg = builtin_sl(n)
    expected = {
        "auto:torus": generate(alg, cartan_subalgebra(alg)).labels(),
        "auto:casimirs": casimirs_by_kernel(alg).labels(),
    }
    assert expected["auto:torus"] == generate(alg, cartan_subalgebra(alg), n).labels()
    assert expected["auto:casimirs"] == casimirs_by_kernel(alg, n).labels()
    x0 = ",".join(["1"] * alg.dim)
    for monitor, labels in expected.items():
        path = tmp_path / "trajectory.csv"
        argv = ["flow", "--algebra", f"sl{n}", "--hamiltonian", "h1", "--x0", x0,
                "--t", "0.1", "--dt", "0.1", "--monitor", monitor, "--csv", str(path),
                "--out", str(tmp_path / "flow.json")]
        assert main(argv) == EXIT_OK
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["t", *alg.labels, "H", *labels]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generate_default_cap_is_n_for_sl_n(n):
    alg = builtin_sl(n)
    assert generate(alg, cartan_subalgebra(alg)).max_degree == n
