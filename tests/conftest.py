"""A time limit for each test: one that runs past `LIMIT_S` seconds in its
setup, call or teardown fails there, and the run goes on with the next
test.  The limit is a real-time `signal.setitimer` in the main thread, where
pytest runs each test, so a test that loops in heh is stopped as a Ctrl-C
would stop it.  It sits far above the slowest test, which takes about 7 s."""

import signal

import pytest

LIMIT_S = 120


def _expire(signum, frame):
    pytest.fail(f"the test ran past its limit of {LIMIT_S} s (see tests/conftest.py)",
                pytrace=False)


@pytest.hookimpl(hookwrapper=True)
def _limited(item):
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


pytest_runtest_setup = pytest_runtest_call = pytest_runtest_teardown = _limited
