"""Shared fixtures: the two standard parameter sets and their zero tables.

Zero tables are session-scoped because they are reused by the
orthogonality, sampling, and acceptance tests and are the most expensive
objects in the suite.
"""

import os

import pytest

# numpy's OpenBLAS starts a worker thread on import unless told otherwise.
# A process-directed SIGALRM may then be delivered to that thread, so the
# benchmark's clock test (perfbench/tests), which holds SIGALRM back with
# pthread_sigmask in the main thread, would see samples arrive in the same
# pytest process once the oracles have imported numpy.  The oracles' numpy
# work is a small grid scan and needs no threads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
