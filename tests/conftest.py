import signal

import pytest


class Hang(Exception):
    """A call ran past the deadline its test set."""


def _expire(signum, frame):
    raise Hang


@pytest.fixture
def deadline():
    """``deadline(s)`` raises Hang in the test after s seconds, and
    ``deadline(0)`` cancels it, so that a call that never returns fails
    its test instead of stopping the suite."""
    old = signal.signal(signal.SIGALRM, _expire)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)
