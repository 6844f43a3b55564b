"""The report, generator and problem classes are plain classes on one base,
algebra.Record: importing poischain generates no code, and the classes keep
value equality, hashing only where an instance never changes, and a fresh
default dict or list per instance."""

import os
import subprocess
import sys

import pytest

import poischain
from poischain import (
    Generator,
    GeneratorSet,
    Polynomial,
    builtin_sl,
    cartan_subalgebra,
    generate,
    parse_polynomial,
    relation_basis,
    torus_chain,
)
from poischain.commutant import Relation


def test_import_loads_no_dataclasses():
    code = "import sys, poischain, poischain.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(poischain.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out == "False\n"


def test_reports_compare_by_value():
    alg = builtin_sl(3)
    first, second = torus_chain(alg), torus_chain(alg)
    assert first is not second and first == second
    assert first.centrality == second.centrality
    second.notes.append("changed")
    assert first != second
    assert first != first.to_json()

    gens = generate(alg, cartan_subalgebra(alg), 3)
    relations = relation_basis(gens, 6).relations
    assert relations and relations == relation_basis(gens, 6).relations
    assert repr(relations[0]).startswith("Relation(weighted_degree=")
    assert relations[0] != Relation(relations[0].weighted_degree + 1, relations[0].formal)


def test_generators_hash_by_value_and_generator_sets_do_not_hash():
    alg = builtin_sl(2)
    poly = parse_polynomial("h1^2 + e12*e21", alg.dim, alg.labels)
    twin = parse_polynomial("e12*e21 + h1^2", alg.dim, alg.labels)
    a, b = Generator(poly, 2, "C2"), Generator(twin, 2, "C2", True)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Generator(poly, 2, "C2", indecomposable=False)

    first, second = GeneratorSet(alg, [a]), GeneratorSet(alg, [b])
    assert first == second
    with pytest.raises(TypeError):
        hash(first)
    first.kernel_dims[2] = 1
    assert second.kernel_dims == {} and first != second
    assert GeneratorSet(alg, [], kernel_dims={2: 1}) != GeneratorSet(alg, [])
    assert Polynomial.one(alg.dim) != a
