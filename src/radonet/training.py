"""Training loop for operator networks.

One driver covers every model: plain operator regression, weighted
regression against redistributed-grid targets, and coordinate-map
regression through the monotone mesh head. It reaches a model only through
the protocol in `models` (`nets`, `forward`, `backward`, `predict`,
`copy`). Losses are written with explicit gradient companions so the whole
backward pass stays hand-assembled. `train_pair` runs two independent fits,
such as the two nets of the r-adaptive family, at the same time in two
processes.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from .models import model_predict
from .nn import adam_init, adam_step, lr_schedule, substream
from .reconstruct import rel_l2_error

LOSS_KINDS = ("mse", "weighted", "coordinate")


@dataclass
class TrainConfig:
    epochs: int = 10000
    batch_size: int | None = None
    base_lr: float = 1e-3
    decay_fraction: float = 0.1
    decay_interval: int = 2000
    validation_cadence: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1 or None, got {self.batch_size}")
        if self.validation_cadence < 1:
            raise ValueError("validation_cadence must be >= 1")


@dataclass
class TrainReport:
    """What happened during one train() call."""

    validation_history: list = field(default_factory=list)
    best_epoch: int = 0
    best_error: float = np.inf
    final_loss: float = np.nan
    wall_seconds: float = 0.0
    aborted: bool = False
    epochs_run: int = 0


def loss_mse(pred: np.ndarray, target: np.ndarray):
    """Mean squared residual over every entry, with gradient wrt pred."""
    r = pred - target
    return float(np.mean(r * r)), 2.0 * r / r.size


def loss_weighted(pred: np.ndarray, target: np.ndarray, weights: np.ndarray):
    """Per-entry weighted mean squared residual."""
    if weights.shape != pred.shape:
        raise ValueError(f"weights shape {weights.shape} != prediction shape {pred.shape}")
    r = pred - target
    return float(np.mean(weights * r * r)), 2.0 * weights * r / r.size


def loss_coordinate(pred: np.ndarray, target: np.ndarray, weights: np.ndarray):
    """Weighted mean squared misfit of predicted mesh knots.

    A separate function from loss_weighted, though the same formula, so
    that the two nets' losses can be told apart when traced.
    """
    if weights.shape != pred.shape:
        raise ValueError(f"weights shape {weights.shape} != prediction shape {pred.shape}")
    r = pred - target
    return float(np.mean(weights * r * r)), 2.0 * weights * r / r.size


def _loss_and_grad(pred, target, loss, weights):
    if loss == "mse":
        return loss_mse(pred, target)
    if loss == "weighted":
        return loss_weighted(pred, target, weights)
    return loss_coordinate(pred, target, weights)


def train(model, inputs: np.ndarray, targets: np.ndarray, queries: np.ndarray,
          config: TrainConfig, *, loss: str = "mse", weights: np.ndarray | None = None,
          val_inputs: np.ndarray | None = None, val_targets: np.ndarray | None = None,
          val_queries: np.ndarray | None = None):
    """Fit a model with Adam and a stepped learning-rate decay.

    Returns (best_model, report): the snapshot with the lowest validation
    error seen at epoch 0, at any cadence point or after the final epoch,
    which need not be the final state.
    When no validation split is supplied the training set doubles as one.
    Validation targets are read at val_queries, by default the training
    queries.
    If the loss ever goes non-finite, training aborts and the best snapshot
    so far is returned with report.aborted set.
    """
    if loss not in LOSS_KINDS:
        raise ValueError(f"loss must be one of {LOSS_KINDS}, got {loss!r}")
    if loss in ("weighted", "coordinate") and weights is None:
        raise ValueError(f"{loss} loss requires weights")
    if inputs.shape[0] != targets.shape[0]:
        raise ValueError("inputs and targets disagree on sample count")
    if val_inputs is None:
        val_inputs, val_targets = inputs, targets
    if val_queries is None:
        val_queries = queries

    t_start = time.perf_counter()
    rng = substream(config.seed, "shuffle")
    adam = {name: adam_init(getattr(model, name)) for name in model.nets}
    n = inputs.shape[0]
    batch = n if config.batch_size is None else min(config.batch_size, n)

    report = TrainReport()

    def validate(epoch):
        err = float(np.mean(rel_l2_error(model_predict(model, val_inputs, val_queries),
                                         val_targets)))
        report.validation_history.append((epoch, err))
        if err < report.best_error:
            report.best_error = err
            report.best_epoch = epoch
            return True
        return False

    best_model = model.copy()
    validate(0)
    epoch_loss = np.nan

    for epoch in range(1, config.epochs + 1):
        lr = lr_schedule(epoch - 1, config.base_lr, config.decay_fraction,
                         config.decay_interval)
        order = rng.permutation(n) if batch < n else None
        losses = []
        for start in range(0, n, batch):
            idx = slice(None) if order is None else order[start:start + batch]
            pred, cache = model.forward(inputs[idx], queries)
            w = None if weights is None else weights[idx]
            value, pred_grad = _loss_and_grad(pred, targets[idx], loss, w)
            losses.append(value)
            if not np.isfinite(value):
                break
            grads = model.backward(cache, pred_grad)
            for name, g in zip(model.nets, grads):
                adam_step(adam[name], getattr(model, name), g, lr)
        epoch_loss = float(np.mean(losses))
        report.epochs_run = epoch
        if not np.isfinite(epoch_loss):
            report.aborted = True
            break
        if epoch % config.validation_cadence == 0 or epoch == config.epochs:
            if validate(epoch):
                best_model = model.copy()

    report.final_loss = epoch_loss
    report.wall_seconds = time.perf_counter() - t_start
    return best_model, report


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


def train_pair(first, second):
    """Run two independent training jobs and return (first(), second()).

    Each job is a callable without arguments. When this process may use two
    or more cores and the loaded OpenBLAS lets its thread count be set,
    `second` runs in a forked child while this process runs `first`, and
    each process gets half of the BLAS threads (one each on two cores); the
    count is restored afterwards. Otherwise the jobs run one after the
    other. Both paths give the same bytes, since training is deterministic
    and its products round the same on one BLAS thread as on several.
    """
    blas = _openblas()
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if blas is None or cores < 2:
        return first(), second()
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(max(1, min(threads, cores) // 2))
    try:
        return _forked_pair(first, second)
    finally:
        set_threads(threads)


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
        raise RuntimeError("training worker process died without a result "
                           f"(exit code {os.waitstatus_to_exitcode(status)})")
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"training worker process failed: {value}")
    return first_result, value
