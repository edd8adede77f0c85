import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    """Fail a test that leaves a forked child running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail("the test left a child process " +
                ("running" if pid == 0 else f"{pid} exited but unreaped"))


@pytest.fixture
def forks(monkeypatch) -> list:
    """The pids of every child forked while the test runs, in order."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids
