import os, sys
sys.path.insert(0, os.path.dirname(__file__))


def pytest_sessionstart(session):
    # Hypothesis caches the constants it reads from the source at collection
    # time, whatever the example database; keep that cache under pytest's tmp
    # directory rather than in a .hypothesis/ of the working directory.
    from hypothesis.configuration import set_hypothesis_home_dir

    set_hypothesis_home_dir(session.config._tmp_path_factory.getbasetemp() / "hypothesis")
