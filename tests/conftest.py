from fractions import Fraction

import pytest

from poischain import (
    builtin_sl,
    cartan_subalgebra,
    casimirs_by_kernel,
    generate,
)


@pytest.fixture(scope="session")
def sl2():
    return builtin_sl(2)


@pytest.fixture(scope="session")
def sl3():
    return builtin_sl(3)


@pytest.fixture(scope="session")
def sl4():
    return builtin_sl(4)


@pytest.fixture(scope="session")
def sl2_torus(sl2):
    return generate(sl2, cartan_subalgebra(sl2), max_degree=2)


@pytest.fixture(scope="session")
def sl3_torus(sl3):
    return generate(sl3, cartan_subalgebra(sl3), max_degree=3)


@pytest.fixture(scope="session")
def sl2_casimirs(sl2):
    return casimirs_by_kernel(sl2, max_degree=2)


@pytest.fixture(scope="session")
def sl3_casimirs(sl3):
    return casimirs_by_kernel(sl3, max_degree=3)


@pytest.fixture
def fraction_count(monkeypatch):
    """The number of Fraction instances made since the fixture was set up:
    Fraction.__new__ is wrapped, and so is Fraction._from_coprime_ints where
    it exists, which builds arithmetic results without __new__."""
    made = [0]
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints.__func__

        def counted_coprime(cls, numerator, denominator):
            made[0] += 1
            return coprime(cls, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    return lambda: made[0]
