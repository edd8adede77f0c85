"""Two jobs on two cores.

`run_pair` runs two independent jobs at the same time, the second in a
forked child process, and `split_rows` cuts the rows of a stage's splits
into two halves that run as such a pair. Both follow one rule: they fork
only when this process may use two or more cores and the loaded OpenBLAS
lets its thread count be set (and `split_rows` only for two or more rows);
otherwise the jobs run here, one after the other. Both paths give the same
bytes, since a job, or a row, is computed the same way whichever process
runs it. `train` fits the two nets of the r-adaptive family with
`run_pair`; `datagen` and `preprocess` split their rows with `split_rows`.

This module imports nothing from radonet, so the stages that use it load
no other stage's code through it.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal

import numpy as np

# (getter, setter) symbol names of the OpenBLAS thread count, per build
_OPENBLAS_THREAD_API = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas():
    """(get, set) for the thread count of the OpenBLAS numpy loaded, or None.

    The library is found in this process's memory map, so only a BLAS that
    is really in use is touched.
    """
    import ctypes

    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) >= 6 and "openblas" in fields[-1].lower() and ".so" in fields[-1]:
                    paths.add(fields[-1])
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_API:
            getter, setter = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                setter.restype, setter.argtypes = None, [ctypes.c_int]
                return getter, setter
    return None


def usable_cores() -> int:
    """How many cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _can_fork() -> bool:
    return usable_cores() >= 2 and _openblas() is not None


def run_pair(first, second):
    """Run two independent jobs and return (first(), second()).

    Each job is a callable without arguments. When the module's rule allows
    a fork, `second` runs in a forked child while this process runs
    `first`, and each process gets half of the BLAS threads (one each on two
    cores); the count is restored afterwards. Otherwise the jobs run one
    after the other. A job that raises in the child, or a child that dies,
    raises RuntimeError here once the child is reaped.
    """
    if not _can_fork():
        return first(), second()
    get_threads, set_threads = _openblas()
    threads = get_threads()
    set_threads(max(1, min(threads, usable_cores()) // 2))
    try:
        return _forked_pair(first, second)
    finally:
        set_threads(threads)


def split_rows(counts: dict[str, int], job) -> dict[str, dict[str, np.ndarray]]:
    """Each split's columns, made by job(split, rows) for ranges of its rows.

    job returns {column: array} for the rows `rows` (a range) of a split,
    one array row per row. The rows of all splits, pooled split by split,
    are cut into two halves of nearly equal size that run as a run_pair;
    a half calls job once for each split it covers, and a split cut by the
    middle is joined back in row order. With fewer than two rows, or where
    run_pair would not fork, job runs once per split on all of its rows.
    A split without rows raises ValueError.
    """
    if any(n < 1 for n in counts.values()):
        raise ValueError(f"every split needs at least one row, got {counts}")
    pooled = sum(counts.values())
    if pooled < 2 or not _can_fork():
        return {split: job(split, range(n)) for split, n in counts.items()}
    half = (pooled + 1) // 2
    first, second = run_pair(lambda: _segments(counts, 0, half, job),
                             lambda: _segments(counts, half, pooled, job))
    parts: dict[str, list] = {}
    for split, cols in first + second:
        parts.setdefault(split, []).append(cols)
    return {split: cols[0] if len(cols) == 1
            else {name: np.concatenate([c[name] for c in cols]) for name in cols[0]}
            for split, cols in parts.items()}


def _segments(counts: dict[str, int], lo: int, hi: int, job) -> list:
    """[(split, job(split, rows))] for the pooled rows lo..hi, in order."""
    out, offset = [], 0
    for split, n in counts.items():
        start, stop = max(lo - offset, 0), min(hi - offset, n)
        if start < stop:
            out.append((split, job(split, range(start, stop))))
        offset += n
    return out


def _forked_pair(first, second):
    # a bare fork rather than a process pool: the child inherits the loaded
    # modules and the job's inputs instead of importing and unpickling them,
    # which keeps start-up time and peak memory down. OpenBLAS registers a
    # fork handler that stops its thread pool, so the child starts a fresh one
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never return into the caller, never flush its buffers
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, second())
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                payload = (False, f"{type(exc).__name__}: {exc}")
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    reaped = False
    with os.fdopen(read_fd, "rb") as fh:
        try:
            first_result = first()
            data = fh.read()
            _, status = os.waitpid(pid, 0)
            reaped = True
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("worker process died without a result "
                           f"(exit code {os.waitstatus_to_exitcode(status)})")
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"worker process failed: {value}")
    return first_result, value
