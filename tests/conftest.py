"""Every test runs under a wall-clock cap, so a runaway check fails with a
named error instead of running, and growing, without bound."""

import signal

import pytest

# seconds per test; the slowest test takes about 1.5 s
TEST_SECONDS = 60


@pytest.fixture(autouse=True)
def wall_clock_cap(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} ran past {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
