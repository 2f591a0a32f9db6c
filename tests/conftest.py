import multiprocessing
import os
import signal

import pytest

from manincount import counting


def _die(job):
    os._exit(7)


def _too_late(signum, frame):
    raise TimeoutError("the pool did not report its dead worker")


@pytest.fixture
def dying_block_worker(monkeypatch):
    """Under fork, every S block worker exits at once.  A call that waits
    on the lost block for more than 30 s fails with TimeoutError, and no
    pool process may outlive the test."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    real = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: real(method or "fork"))
    monkeypatch.setattr(counting, "_block_s", _die)
    previous = signal.signal(signal.SIGALRM, _too_late)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
