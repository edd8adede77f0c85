"""Training loop for operator networks.

One driver covers every model: plain operator regression, weighted
regression against redistributed-grid targets, and coordinate-map
regression through the monotone mesh head. It reaches a model only through
the protocol in `models` (`nets`, `forward`, `backward`, `predict`,
`copy`). Losses are written with explicit gradient companions so the whole
backward pass stays hand-assembled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .models import PREDICT_CHUNK, model_predict
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


def net_bytes(branch: list[int], trunk: list[int], n_rows: int, n_points: int,
              val_rows: int, val_points: int, head: bool = False) -> int:
    """The peak bytes of training one net, of branch and trunk layer sizes,
    on n_rows samples at n_points query points, validated on val_rows
    samples at val_points points. In floats: 7 a parameter (weights,
    gradient, Adam's two moments, best snapshot); in training and in
    validation, 2 a sample and branch unit and 3 a query point and trunk
    unit (validation runs PREDICT_CHUNK points at a time); a sample and
    point, 8 in training (targets, forward and loss arrays) and 3 in
    validation (targets, chunked predictions, their concatenation), or 16
    and 10 with a coordinate net's monotone head (head)."""
    params = sum((a + 1) * b for sizes in (branch, trunk) for a, b in zip(sizes, sizes[1:]))
    return 8 * (7 * params + 2 * (n_rows + val_rows) * sum(branch[1:])
                + 3 * (n_points + min(val_points, PREDICT_CHUNK)) * sum(trunk[1:])
                + (16 if head else 8) * n_rows * n_points
                + (10 if head else 3) * val_rows * val_points)


def loss_mse(pred: np.ndarray, target: np.ndarray):
    """Mean squared residual over every entry, with gradient wrt pred."""
    r = pred - target
    return float(np.mean(r * r)), 2.0 * r / r.size


def _weighted_mse(pred: np.ndarray, target: np.ndarray, weights: np.ndarray):
    if weights.shape != pred.shape:
        raise ValueError(f"weights shape {weights.shape} != prediction shape {pred.shape}")
    r = pred - target
    return float(np.mean(weights * r * r)), 2.0 * weights * r / r.size


def loss_weighted(pred: np.ndarray, target: np.ndarray, weights: np.ndarray):
    """Per-entry weighted mean squared residual."""
    return _weighted_mse(pred, target, weights)


def loss_coordinate(pred: np.ndarray, target: np.ndarray, weights: np.ndarray):
    """Weighted mean squared misfit of predicted mesh knots: loss_weighted's
    formula, under its own name so that the two nets' losses trace apart."""
    return _weighted_mse(pred, target, weights)


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
