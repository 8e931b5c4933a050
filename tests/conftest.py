import pytest

from pntbounds import build_sieve, compute_default_rows, compute_row, load_table
from pntbounds.engine import REGIMES, VK_DEFAULT_PARAMS
from pntbounds.regimes import bracket_nu2, bracket_nu3


@pytest.fixture(scope="session")
def density_table():
    return load_table()


@pytest.fixture(scope="session")
def sieve10m():
    return build_sieve(10_000_000)


@pytest.fixture(scope="session")
def sieve_small():
    return build_sieve(100_000)


@pytest.fixture(scope="session")
def default_rows(density_table):
    return compute_default_rows(density_table)


@pytest.fixture(scope="session")
def vk_row(density_table):
    return compute_row(VK_DEFAULT_PARAMS, density_table)


@pytest.fixture(scope="session")
def rebuild(density_table):
    """row -> (envelope, bracket): the regime's float fit call at the row's (anchor, sigma, K), with its
    raw terms (none for VK) and premises, and the bracket the fit built (nu2 large, nu3 VK, none medium)."""
    def rebuild(row):
        bracket = {"large": bracket_nu2, "vk": bracket_nu3}.get(row.regime)
        return (REGIMES[row.regime].fit(row.anchor, density_table)(row.sigma, row.K),
                bracket(row.anchor) if bracket else None)
    return rebuild
