"""The report, generator and problem classes are plain classes on one base,
algebra.Record, whose one constructor binds the arguments to _fields:
importing poischain generates no code, and the classes keep value equality,
hashing only where an instance never changes, and a fresh default dict or
list per instance."""

import os
import subprocess
import sys

import pytest

import poischain
from poischain import (
    CycleMonomial,
    FlowProblem,
    Generator,
    GeneratorSet,
    Polynomial,
    SubalgebraSpec,
    builtin_sl,
    cartan_subalgebra,
    generate,
    parse_polynomial,
    relation_basis,
    torus_chain,
)
from poischain.algebra import Record
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


def _record_classes():
    """Every Record subclass in the package (its __init__ loads every module
    that defines one)."""
    found, todo = [], [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("poischain.") and cls not in found:
                found.append(cls)
                todo.append(cls)
    return found


# the records that convert or validate their arguments, with valid ones
_OWN_CONSTRUCTORS = {
    SubalgebraSpec: lambda: [(("1", "0", "0"),), True, "h"],
    CycleMonomial: lambda: [(2, 3, 1)],
    FlowProblem: lambda: [builtin_sl(2), Polynomial.one(3), [1.0, 0.5, 0.25], 1.0, 0.1,
                          [("C", Polynomial.one(3))]],
}


def test_every_record_binds_by_position_and_keyword_alike():
    classes = _record_classes()
    assert len(classes) >= 30
    own = [cls for cls in classes if "__init__" in vars(cls)]
    assert set(own) == set(_OWN_CONSTRUCTORS)
    for cls in classes:
        values = _OWN_CONSTRUCTORS.get(cls, lambda: [object() for _ in cls._fields])()
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(cls._fields, values)))
        assert by_position == by_keyword, cls
        assert repr(by_position) == repr(by_keyword)


@pytest.mark.parametrize("make", [
    lambda cls, values: cls(),
    lambda cls, values: cls(*values, bogus=1),
    lambda cls, values: cls(*values, 1),
    lambda cls, values: cls(*values, **{cls._fields[-1]: 1}),
], ids=["missing", "unknown", "too-many", "repeated"])
def test_the_record_constructor_refuses_bad_arguments(make):
    for cls in _record_classes():
        if cls not in _OWN_CONSTRUCTORS:
            with pytest.raises(TypeError):
                make(cls, [object() for _ in cls._fields])


def test_dict_and_list_defaults_are_fresh_per_instance():
    shared = 0
    for cls in set(_record_classes()) - set(_OWN_CONSTRUCTORS):
        required = [f for f in cls._fields if f not in cls._defaults]
        first, second = (cls(*[object() for _ in required]) for _ in range(2))
        for name, default in cls._defaults.items():
            if isinstance(default, (dict, list)):
                shared += 1
                assert getattr(first, name) == default and default == type(default)()
                assert getattr(first, name) is not getattr(second, name)
                assert getattr(first, name) is not default
    assert shared >= 4
