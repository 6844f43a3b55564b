"""The README's Python example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
    assert namespace["cas"].gens.labels() == ["C2", "C3"]
    assert len(namespace["shift"].generators) == 5
    assert namespace["report"].verdict == "superintegrable"
