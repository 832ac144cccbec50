"""Fixtures shared by the test modules."""

from __future__ import annotations

import os
import signal

import pytest


@pytest.fixture
def watchdog(monkeypatch):
    """Fail a test still running after a minute, such as a writer stuck in
    os.waitpid on a child that never exits, instead of hanging the run.
    The SIGALRM handler kills and reaps the children not yet reaped, which
    would keep the run's output pipes open, and its exception interrupts
    the blocking call.  A forked child does not inherit the timer."""
    children = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        children.append(pid)
        return pid

    def expire(signum, frame):
        for pid in children:
            try:
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already
                pass
        raise TimeoutError("forked writer test still running after 60 s")

    monkeypatch.setattr(os, "fork", fork)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
