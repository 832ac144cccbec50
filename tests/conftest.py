"""Fixtures shared by the test modules."""

from __future__ import annotations

import os
import signal

import pytest

# How long a test that forks may run before the watchdog stops it.
WATCHDOG_SECONDS = 60


class WatchdogExpired(Exception):
    """A forking test outlived the watchdog.  Not an OSError, so no handler
    of failed system calls, such as the CLI's exit 2, mistakes it for one."""


def _unreaped(pid: int) -> bool:
    """Whether child pid is running or exited but not yet waited for."""
    try:
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


@pytest.fixture
def watchdog(monkeypatch):
    """The pids of the children os.fork makes during the test, in order.

    Fails a test still running after WATCHDOG_SECONDS, such as a writer
    stuck in os.waitpid on a child that never exits, instead of hanging the
    run: the SIGALRM handler SIGKILLs every child not yet reaped and raises
    WatchdogExpired, which interrupts the blocking call.  Reaping is left to
    the code that forked, as after any child's death; teardown kills and
    reaps what is left, which would keep the run's output pipes open.  A
    forked child does not inherit the timer."""
    children = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    def expire(signum, frame):
        for pid in children:
            if _unreaped(pid):
                os.kill(pid, signal.SIGKILL)
        raise WatchdogExpired(
            f"forking test still running after {WATCHDOG_SECONDS} s; its children were killed"
        )

    monkeypatch.setattr(os, "fork", fork)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_SECONDS)
    try:
        yield children
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        for pid in children:
            if _unreaped(pid):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
