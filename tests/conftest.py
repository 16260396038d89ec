"""Suite-wide fixtures."""

import signal

import pytest

#: Seconds one test may run before it fails, so a kernel that never returns
#: fails its test instead of stalling the suite.  The slowest test takes a
#: few seconds, and the demo subprocesses have their own 120 s timeout.
TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail the running test from a SIGALRM handler once ``TIME_LIMIT_S``
    seconds pass; skipped where ``signal.setitimer`` does not exist."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past the {TIME_LIMIT_S} s limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
