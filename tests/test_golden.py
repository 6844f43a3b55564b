"""Golden report bytes: the SHA-256 of a fixed set of outputs.

The digests pin every byte of the README CLI reports on sl(3), the torus
chain reports of sl(3) and sl(4), a relation basis and the trace Casimirs of
sl(4).  A change to the polynomial core, the elimination or the rendering
that moves a single report byte fails here.  When a report format changes on
purpose, recompute the digests with `PYTHONPATH=src python tests/test_golden.py`
and say why in the change log.
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from poischain import (
    builtin_sl,
    cartan_subalgebra,
    dump_json,
    generate,
    relation_basis,
    torus_chain,
    trace_casimirs_sln,
)
from poischain.cli import EXIT_OK, main

# a 1-dim torus of sl(3): the Cartan direction h1 + 2*h2
_SUB_JSON = {"abelian": True, "vectors": [["1", "2", "0", "0", "0", "0", "0", "0"]]}

_CLI = {
    "algebra-check": ["algebra", "check", "--algebra", "sl3"],
    "commutant": ["commutant", "--algebra", "sl3", "--subalgebra", "cartan"],
    "casimirs-both": ["casimirs", "--algebra", "sl3", "--method", "both"],
    "mf": ["mf", "--algebra", "sl3", "--shift", "h:1,2", "--subalgebra", "cartan"],
    "chain-casimirs": ["chain", "verify", "--algebra", "sl3", "--subalgebra",
                       "cartan", "--base", "casimirs"],
    "chain-moment-map": ["chain", "verify", "--algebra", "sl3", "--subalgebra",
                         "@sub.json", "--base", "moment-map"],
    "cycles-3": ["cycles", "--n", "3"],
}

GOLDEN = {
    "algebra-check": "e3bbe04d244395bf357e93ab566042a5388ba5b312e6954cfea83a1356dc0625",
    "casimirs-both": "8b6c488a5a93d7469de0b8731b243d373a3e2770ff0610b8c386f7cb1a55453a",
    "chain-casimirs": "b0de5f8a31b61ab9f176deb7ff25086abbf6464adec5151f667b72b5f9371cff",
    "chain-moment-map": "4fa47f01ff96251d5c98704b3ccb9d084604fefddbc115c32ada4b900831809d",
    "commutant": "723bf5105f79eab223d9871748df6fa3e8cc79d9b3802c2d0a43335c92233ff1",
    "cycles-3": "8864cf5e39c84f979a6d10cae47da09928637242b40108bbcbe3af1900cefeb8",
    "mf": "e8ead965570dbb40cb536c89701c39a0044054228a3fdbabb576c8efc4bb96f6",
    "relations-sl4-torus-8": "a5dd98e5cd33265d23f647fc0204c73f868ca4455d6d07276eecb67a8c5ebc5a",
    "torus-chain-sl3": "5f8e22e9339cf6d21a84abe50262613f1987c6deb668b92ea6e52e7385f8fe1c",
    "torus-chain-sl4": "b4292ceba25b4848ad232b717585148991af695377b58fab12ad177e1a3f0746",
    "trace-casimirs-sl4": "b2ce3562f29ab5f214e4560b192cb558f656210b57bf64700b2afd3e4cbdef7a",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digest(name: str, tmp_path) -> str:
    (tmp_path / "sub.json").write_text(json.dumps(_SUB_JSON))
    out = tmp_path / f"{name}.json"
    argv = [a.replace("@", f"{tmp_path}/") for a in _CLI[name]]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    return _sha(out.read_bytes())


def _report_digest(obj) -> str:
    return _sha(dump_json(obj).encode())


_LIBRARY = {
    "torus-chain-sl3": lambda: torus_chain(builtin_sl(3)).to_json(),
    "torus-chain-sl4": lambda: torus_chain(builtin_sl(4)).to_json(),
    "relations-sl4-torus-8": lambda: relation_basis(
        generate(builtin_sl(4), cartan_subalgebra(builtin_sl(4)), 4), 8
    ).to_json(),
    "trace-casimirs-sl4": lambda: trace_casimirs_sln(4).to_json(),
}


@pytest.mark.parametrize("name", sorted(_CLI))
def test_cli_report_bytes(name, tmp_path):
    assert cli_digest(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(_LIBRARY))
def test_library_report_bytes(name):
    assert _report_digest(_LIBRARY[name]()) == GOLDEN[name]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: cli_digest(name, pathlib.Path(tmp)) for name in _CLI}
    digests.update({name: _report_digest(make()) for name, make in _LIBRARY.items()})
    json.dump(digests, sys.stdout, indent=4, sort_keys=True)
    print()
