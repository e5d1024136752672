import os, sys
sys.path.insert(0, os.path.dirname(__file__))

import pytest

from quadsig.analysis import GaussianPair, id_rate
from quadsig.covering import _openblas_threads, build_covering
from quadsig.scheme import SchemeConfig, plan_scheme


def pytest_sessionstart(session):
    # Hypothesis caches the constants it reads from the source at collection
    # time, whatever the example database; keep that cache under pytest's tmp
    # directory rather than in a .hypothesis/ of the working directory.
    from hypothesis.configuration import set_hypothesis_home_dir

    set_hypothesis_home_dir(session.config._tmp_path_factory.getbasetemp() / "hypothesis")


# Built once per session and shared by several modules; the tests only read
# them (centers, _units, shell_radii).


@pytest.fixture(scope="session")
def code8():
    return build_covering(8, 1.0, 0.3, seed=5, audit_samples=50_000)


@pytest.fixture(scope="session")
def basic8():
    return SchemeConfig(n=8, d=0.4, sigma_x2=1.0, eta=0.15, mode="basic")


@pytest.fixture(scope="session")
def code40():
    """The n = 40 plan's covering: seed 4001, 1,398 centers over three
    center chunks."""
    pair = GaussianPair(1.0, 1.0)
    plan = plan_scheme(pair, 0.02, id_rate(pair, 0.02) + 0.5, 40, 0.1)
    return build_covering(40, 1.0, plan.d0, seed=4001, audit_samples=5000)


@pytest.fixture
def blas_get():
    """OpenBLAS's thread-count getter, with the count set to 2 for the test
    and put back after it."""
    blas = _openblas_threads()
    if blas is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread setter")
    get, put = blas
    before = get()
    put(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS cannot run two threads here")
        yield get
    finally:
        put(before)
