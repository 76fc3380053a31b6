"""Shared fixtures: the two standard parameter sets and their zero tables.

Zero tables are session-scoped because they are reused by the
orthogonality, sampling, and acceptance tests and are the most expensive
objects in the suite.
"""

import pytest

from bigqbessel import QContext, find_zeros


@pytest.fixture(scope="session")
def ctx05():
    return QContext(0.5)


@pytest.fixture(scope="session")
def ctx08():
    return QContext(0.8)


@pytest.fixture(scope="session")
def table05(ctx05):
    return find_zeros(ctx05, 0.0, 5, tol=1e-12)


@pytest.fixture(scope="session")
def table08(ctx08):
    return find_zeros(ctx08, 0.5, 5, tol=1e-12)
