import pytest

from gibbslab.bessel import bessel_zeros


@pytest.fixture(scope="session")
def table200():
    return bessel_zeros(200)


@pytest.fixture(scope="session")
def table64(table200):
    from gibbslab.bessel import BesselTable

    return BesselTable(zeros=table200.zeros[:64],
                       j1_at_zeros=table200.j1_at_zeros[:64])
