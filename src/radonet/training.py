"""Training loop for operator networks.

One driver covers all model families here: plain operator regression,
weighted regression against redistributed-grid targets, and coordinate-map
regression through the monotone mesh head, with a fold-penalty term. Losses
are written with explicit gradient companions so the whole backward pass
stays hand-assembled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .models import (
    CoordinateNet,
    ShiftDeepOnetModel,
    deeponet_backward_batch,
    deeponet_forward_batch,
    mesh_backward_batch,
    mesh_forward_batch,
    monotone_head,
    shift_backward_batch,
    shift_forward_batch,
)
from .nn import adam_init, adam_step, lr_schedule, substream
from .reconstruct import rel_l2_error

LOSS_KINDS = ("mse", "weighted", "coordinate")

# queries per forward pass in model_predict
PREDICT_CHUNK = 512


@dataclass
class TrainConfig:
    epochs: int = 10000
    batch_size: int | None = None
    base_lr: float = 1e-3
    decay_fraction: float = 0.1
    decay_interval: int = 2000
    lambda_fit: float = 1.0
    lambda_fold: float = 1.0
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


def grid_jacobian(x: np.ndarray, dxi: float) -> np.ndarray:
    """Derivative of predicted knot positions along the reference axis.

    Central differences inside, one-sided at both ends; x is (n_samples,
    n_knots).
    """
    d = np.empty_like(x)
    d[:, 1:-1] = (x[:, 2:] - x[:, :-2]) / (2.0 * dxi)
    d[:, 0] = (x[:, 1] - x[:, 0]) / dxi
    d[:, -1] = (x[:, -1] - x[:, -2]) / dxi
    return d


def _grid_jacobian_adjoint(gd: np.ndarray, dxi: float) -> np.ndarray:
    gx = np.zeros_like(gd)
    gx[:, 2:] += gd[:, 1:-1] / (2.0 * dxi)
    gx[:, :-2] -= gd[:, 1:-1] / (2.0 * dxi)
    gx[:, 0] -= gd[:, 0] / dxi
    gx[:, 1] += gd[:, 0] / dxi
    gx[:, -1] += gd[:, -1] / dxi
    gx[:, -2] -= gd[:, -1] / dxi
    return gx


def loss_coordinate(pred: np.ndarray, target: np.ndarray, weights: np.ndarray,
                    dxi: float, lambda_fit: float = 1.0, lambda_fold: float = 1.0):
    """Weighted fit plus a penalty on negative grid Jacobians.

    The penalty mean(relu(-J)^2) is zero exactly when the predicted knots
    are non-decreasing under the difference stencil, so it discourages
    folded grids without constraining well-ordered ones.
    """
    if weights.shape != pred.shape:
        raise ValueError(f"weights shape {weights.shape} != prediction shape {pred.shape}")
    r = pred - target
    fit = float(np.mean(weights * r * r))
    jac = grid_jacobian(pred, dxi)
    neg = np.maximum(-jac, 0.0)
    fold = float(np.mean(neg * neg))
    grad = lambda_fit * 2.0 * weights * r / r.size
    grad += _grid_jacobian_adjoint(lambda_fold * (-2.0) * neg / neg.size, dxi)
    return lambda_fit * fit + lambda_fold * fold, grad


def _model_copy(model):
    if isinstance(model, ShiftDeepOnetModel):
        return replace(model, branch=model.branch.copy(), trunk=model.trunk.copy(),
                       scale_net=model.scale_net.copy(), shift_net=model.shift_net.copy())
    return replace(model, branch=model.branch.copy(), trunk=model.trunk.copy())


def _model_nets(model):
    if isinstance(model, ShiftDeepOnetModel):
        return ("branch", "trunk", "scale_net", "shift_net")
    return ("branch", "trunk")


def model_forward(model, inputs: np.ndarray, queries: np.ndarray):
    if isinstance(model, ShiftDeepOnetModel):
        return shift_forward_batch(model, inputs, queries)
    if isinstance(model, CoordinateNet):
        return mesh_forward_batch(model, inputs, queries)
    return deeponet_forward_batch(model, inputs, queries)


def model_predict(model, inputs: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Forward pass for evaluation, with no caches kept.

    The queries go through the nets PREDICT_CHUNK at a time, so memory does
    not grow with the grid; a coordinate net's head then runs over the
    whole row.
    """
    q = np.asarray(queries, dtype=np.float64)
    forward = shift_forward_batch if isinstance(model, ShiftDeepOnetModel) \
        else deeponet_forward_batch
    pred = np.concatenate([forward(model, inputs, q[start:start + PREDICT_CHUNK])[0]
                           for start in range(0, len(q), PREDICT_CHUNK)], axis=1)
    if isinstance(model, CoordinateNet):
        pred = monotone_head(pred, q)[0]
    return pred


def _model_backward(model, cache, pred_grad):
    if isinstance(model, ShiftDeepOnetModel):
        return shift_backward_batch(model, cache, pred_grad)
    if isinstance(model, CoordinateNet):
        return mesh_backward_batch(model, cache, pred_grad)
    return deeponet_backward_batch(model, cache, pred_grad)


def _loss_and_grad(pred, target, loss, weights, dxi, config):
    if loss == "mse":
        return loss_mse(pred, target)
    if loss == "weighted":
        return loss_weighted(pred, target, weights)
    return loss_coordinate(pred, target, weights, dxi,
                           config.lambda_fit, config.lambda_fold)


def train(model, inputs: np.ndarray, targets: np.ndarray, queries: np.ndarray,
          config: TrainConfig, *, loss: str = "mse", weights: np.ndarray | None = None,
          val_inputs: np.ndarray | None = None, val_targets: np.ndarray | None = None,
          val_queries: np.ndarray | None = None, dxi: float | None = None):
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
    if loss == "coordinate" and dxi is None:
        raise ValueError("coordinate loss requires the reference grid spacing dxi")
    if inputs.shape[0] != targets.shape[0]:
        raise ValueError("inputs and targets disagree on sample count")
    if val_inputs is None:
        val_inputs, val_targets = inputs, targets
    if val_queries is None:
        val_queries = queries

    t_start = time.perf_counter()
    rng = substream(config.seed, "shuffle")
    nets = _model_nets(model)
    adam = {name: adam_init(getattr(model, name)) for name in nets}
    n = inputs.shape[0]
    batch = n if config.batch_size is None else min(config.batch_size, n)

    report = TrainReport()

    def validate(epoch):
        err = float(rel_l2_error(model_predict(model, val_inputs, val_queries), val_targets))
        report.validation_history.append((epoch, err))
        if err < report.best_error:
            report.best_error = err
            report.best_epoch = epoch
            return True
        return False

    best_model = _model_copy(model)
    validate(0)
    epoch_loss = np.nan

    for epoch in range(1, config.epochs + 1):
        lr = lr_schedule(epoch - 1, config.base_lr, config.decay_fraction,
                         config.decay_interval)
        order = rng.permutation(n) if batch < n else np.arange(n)
        losses = []
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            pred, cache = model_forward(model, inputs[idx], queries)
            w = None if weights is None else weights[idx]
            value, pred_grad = _loss_and_grad(pred, targets[idx], loss, w, dxi, config)
            losses.append(value)
            if not np.isfinite(value):
                break
            grads = _model_backward(model, cache, pred_grad)
            for name, g in zip(nets, grads):
                params, adam[name] = adam_step(adam[name], getattr(model, name), g, lr)
                setattr(model, name, params)
        epoch_loss = float(np.mean(losses))
        report.epochs_run = epoch
        if not np.isfinite(epoch_loss):
            report.aborted = True
            break
        if epoch % config.validation_cadence == 0 or epoch == config.epochs:
            if validate(epoch):
                best_model = _model_copy(model)

    report.final_loss = epoch_loss
    report.wall_seconds = time.perf_counter() - t_start
    return best_model, report
