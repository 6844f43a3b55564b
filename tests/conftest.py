import pytest

from poischain import (
    builtin_sl,
    cartan_subalgebra,
    casimirs_by_kernel,
    generate,
)

from helpers import counting_fractions


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
def fraction_count():
    """The number of Fraction instances made since the fixture was set up
    (helpers.counting_fractions)."""
    with counting_fractions() as made:
        yield made
