import pytest

from cover_lattice import PlanningProblem, all_covers, make_universe


def pytest_configure(config):
    # Any warning, a ResourceWarning or DeprecationWarning among them, fails
    # this suite.  Set here rather than in pyproject.toml so that it covers
    # tests/ only: perfbench/test_smoke.py leaks its launcher's stdout pipe.
    config.addinivalue_line("filterwarnings", "error")


@pytest.fixture(scope="session")
def u1():
    return make_universe(["1"])


@pytest.fixture(scope="session")
def u2():
    return make_universe(["1", "2"])


@pytest.fixture(scope="session")
def u3():
    return make_universe(["1", "2", "3"])


@pytest.fixture(scope="session")
def u4():
    return make_universe(["1", "2", "3", "4"])


@pytest.fixture(scope="session")
def covers3(u3):
    return all_covers(u3)


@pytest.fixture(scope="session")
def right_march(u3):
    # March right in a 3-cell corridor: i -> min(i+1, 3); start anywhere, goal cell 3.
    return PlanningProblem(u3, ("right",), ((2, 4, 4),), 7, 4)


@pytest.fixture(scope="session")
def junction(u4):
    # Two junctions feeding a goal and a sink: from 1 only "left" reaches the
    # goal 2, from 3 only "right" does; 4 is absorbing.  Start belief {1,3}.
    return PlanningProblem(u4, ("left", "right"), ((2, 2, 8, 8), (8, 2, 2, 8)), 5, 2)
