import os

import pytest

from radonet import parallel


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


@pytest.fixture(autouse=True)
def blas_threads_restored():
    """Fail a test that leaves OpenBLAS's thread count changed: every later
    fork would then run its two processes on more threads than cores."""
    blas = parallel._openblas()
    if blas is None:  # no thread setter, so nothing can change the count
        yield
        return
    get_threads = blas[0]
    threads = get_threads()
    yield
    if get_threads() != threads:
        pytest.fail(f"the test left OpenBLAS at {get_threads()} threads, not {threads}")


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
