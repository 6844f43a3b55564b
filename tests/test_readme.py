"""The README's Python example runs and prints what its comments say, and
its CLI commands run as processes."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_example():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    printed = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), namespace)
    # a comment line of its own is the output of the print above it
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert printed.getvalue().splitlines() == expected
    assert expected == [
        "['h1', 'h2', 'e12*e21', 'e13*e31', 'e23*e32', 'e12*e23*e31', 'e13*e21*e32']"
    ]
    # the trailing comments
    assert namespace["cas"].labels() == ["C2", "C3"]
    assert len(namespace["shift"].generators) == 5
    assert namespace["report"].verdict == "superintegrable"


def _cli_process(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "poischain.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_readme_cli_block_runs_as_processes(tmp_path):
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
                if "poischain algebra check" in b]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("poischain ")]
    assert len(commands) == 8
    # the moment-map example reads a 1-dim torus of sl(3) from sub.json
    (tmp_path / "sub.json").write_text(json.dumps(
        {"abelian": True, "vectors": [["1", "2", "0", "0", "0", "0", "0", "0"]]}
    ))
    for argv in commands:
        proc = _cli_process(argv[1:], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
    assert (tmp_path / "torus.json").is_file() and (tmp_path / "trajectory.csv").is_file()
    proc = _cli_process(["algebra", "check", "--algebra", "sl13"], tmp_path)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
