"""Two jobs on two cores.

`run_pair` runs two independent jobs at the same time, the second in a
child it forks itself, after which each process deletes the job it does
not run; `split_rows` runs the two halves of a stage's rows as such a
pair, each writing its rows into columns both share. They fork only where
this process may use two or more cores and the loaded OpenBLAS lets its
thread count be set (`split_rows` only for two or more rows);
otherwise the jobs run here in turn, with the same bytes, since a row or a
job is computed the same way in either process. `train` pairs the two
r-adaptive nets; `datagen` and `preprocess` split their rows. Every stage
runs its BLAS calls on one thread (radonet.cli.main sets it through
_openblas), so a pair's two processes run on one thread each.

This module imports nothing from radonet, so the stages that use it load
no other stage's code through it.
"""

from __future__ import annotations

import functools
import mmap
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
    `first`, and each process gets half of the caller's BLAS threads, at
    least one; the count is restored afterwards. Inside a stage, which runs
    on one BLAS thread already, the count stays one. Once forked, each process
    deletes the job it does not run, so what that job alone holds (its
    inputs, and whatever it builds) is freed there, provided the caller
    keeps no reference of its own: pass the jobs straight into the call.
    Otherwise the jobs run one after the other. A job that raises in the
    child, or a child that dies, raises RuntimeError here once the child is
    reaped.
    """
    if not _can_fork():
        return first(), second()
    get_threads, set_threads = _openblas()
    threads = get_threads()
    set_threads(max(1, min(threads, usable_cores()) // 2))
    try:
        # a bare fork rather than a process pool: the child inherits the
        # loaded modules and the job's inputs instead of importing and
        # unpickling them, which keeps start-up time and peak memory down.
        # OpenBLAS registers a fork handler that stops its thread pool, so
        # the child starts a fresh one
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: never return into the caller, never flush its buffers
            status = 1
            try:
                del first
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
        del second
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
    finally:
        set_threads(threads)
    if not data:
        raise RuntimeError("worker process died without a result "
                           f"(exit code {os.waitstatus_to_exitcode(status)})")
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"worker process failed: {value}")
    return first_result, value


def split_rows(counts: dict[str, int], widths: dict[str, int], job) -> dict[str, dict]:
    """Each split's columns {name: (rows, width) array}, zeros in anonymous
    shared memory made once, which job(split, rows, out) fills in place: it
    writes the rows `rows` (a range) of the split's columns out. The rows of
    all splits, pooled split by split, are cut into two halves of nearly
    equal size that run as a run_pair, each calling job once per split it
    covers; with fewer than two rows, or where run_pair would not fork, job
    runs here once per split. A split without rows raises ValueError."""
    if any(n < 1 for n in counts.values()):
        raise ValueError(f"every split needs at least one row, got {counts}")
    out = {split: {name: _shared_zeros(n, width) for name, width in widths.items()}
           for split, n in counts.items()}
    pooled = sum(counts.values())

    def fill(lo, hi):  # job for the pooled rows lo..hi, split by split
        offset = 0
        for split, n in counts.items():
            start, stop = max(lo - offset, 0), min(hi - offset, n)
            if start < stop:
                job(split, range(start, stop), out[split])
            offset += n

    if pooled < 2 or not _can_fork():
        fill(0, pooled)
    else:
        half = (pooled + 1) // 2
        run_pair(lambda: fill(0, half), lambda: fill(half, pooled))
    return out


def _shared_zeros(rows: int, width: int) -> np.ndarray:
    """(rows, width) zeros that a child forked later writes into as well."""
    return np.frombuffer(mmap.mmap(-1, 8 * rows * width)).reshape(rows, width)
