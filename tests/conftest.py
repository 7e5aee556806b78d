"""pytest hooks and fixtures for the test suite.

The plants the fixtures build live in plants.py, and the reference
implementations the tests check the package against in reference.py.
"""

import signal

import numpy as np
import pytest

from plants import make_i1, make_i1_cfg

acceptance_lines: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


# Seconds any one test may take.  The slowest take about 1 s; a fault
# that loops forever (say, a window search that stops advancing) fails
# its test here instead of stalling the suite with no message.
TEST_TIME_LIMIT = 120


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail the test, by its node id, once it has run TEST_TIME_LIMIT seconds."""

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran over {TEST_TIME_LIMIT} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture
def i1_model():
    return make_i1()


@pytest.fixture
def i1_cfg():
    return make_i1_cfg()


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
