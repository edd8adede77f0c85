import gc
import tracemalloc

import numpy as np
import pytest

from radonet.equidistribution import fd_derivative
from radonet.models import DeepOnetModel, deeponet_forward_batch
from radonet.nn import mlp_init, substream
from radonet.training import (
    TrainConfig,
    loss_coordinate,
    loss_mse,
    loss_weighted,
    model_predict,
    train,
)

from oracles import flat_grad_rel_error, numerical_gradient


def tiny_model(seed=0, n_in=2, n_basis=4):
    branch = mlp_init([n_in, 12, n_basis], activation="tanh", seed=seed)
    trunk = mlp_init([1, 12, n_basis], activation="tanh", seed=seed + 1)
    return DeepOnetModel(branch=branch, trunk=trunk, n_basis=n_basis,
                         query_lo=[0.0], query_hi=[1.0])


def test_loss_mse_value_and_grad():
    pred = np.array([[1.0, 2.0], [3.0, 4.0]])
    target = np.array([[1.0, 0.0], [3.0, 5.0]])
    value, grad = loss_mse(pred, target)
    assert value == pytest.approx((0.0 + 4.0 + 0.0 + 1.0) / 4.0)
    np.testing.assert_allclose(grad, 2.0 * (pred - target) / 4.0)


def test_loss_weighted_value_and_grad():
    pred = np.array([[1.0, 2.0]])
    target = np.array([[0.0, 0.0]])
    w = np.array([[3.0, 0.5]])
    value, grad = loss_weighted(pred, target, w)
    assert value == pytest.approx((3.0 * 1.0 + 0.5 * 4.0) / 2.0)
    np.testing.assert_allclose(grad, 2.0 * w * pred / 2.0)
    with pytest.raises(ValueError):
        loss_weighted(pred, target, np.ones(3))


def test_grid_jacobian_stencil():
    x = np.array([[0.0, 1.0, 4.0, 9.0]])
    d = fd_derivative(x, 1.0)
    np.testing.assert_allclose(d, [[1.0, 2.0, 4.0, 5.0]])


def test_loss_coordinate_gradient_wrt_pred():
    # finite-difference the loss through the pred argument
    rng = substream(3, "coord-fd")
    pred = np.cumsum(rng.uniform(-0.02, 0.1, size=(2, 12)), axis=1)
    target = pred + 0.05 * rng.standard_normal(pred.shape)
    w = 1.0 + rng.uniform(0.0, 2.0, size=pred.shape)
    _, grad = loss_coordinate(pred, target, w)
    eps = 1e-7
    num = np.zeros_like(pred)
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            up = pred.copy(); up[i, j] += eps
            dn = pred.copy(); dn[i, j] -= eps
            vu, _ = loss_coordinate(up, target, w)
            vd, _ = loss_coordinate(dn, target, w)
            num[i, j] = (vu - vd) / (2.0 * eps)
    np.testing.assert_allclose(grad, num, atol=1e-6)


def test_end_to_end_coordinate_gradient():
    # chain the coordinate loss through the operator network and compare
    # against central differences on every weight
    rng = substream(4, "e2e")
    model = tiny_model(seed=50)
    inputs = rng.standard_normal((3, 2))
    queries = np.linspace(0.0, 1.0, 7).reshape(-1, 1)
    target = np.cumsum(rng.uniform(0.0, 0.3, size=(3, 7)), axis=1)
    w = 1.0 + rng.uniform(0.0, 1.0, size=(3, 7))

    pred, cache = deeponet_forward_batch(model, inputs, queries)
    _, pred_grad = loss_coordinate(pred, target, w)
    from radonet.models import deeponet_backward_batch
    bg, tg = deeponet_backward_batch(model, cache, pred_grad)

    def loss_of(which, p):
        probe = DeepOnetModel(
            branch=p if which == "branch" else model.branch,
            trunk=p if which == "trunk" else model.trunk,
            n_basis=model.n_basis, query_lo=model.query_lo, query_hi=model.query_hi)
        out, _ = deeponet_forward_batch(probe, inputs, queries)
        return loss_coordinate(out, target, w)[0]

    num_w, num_b = numerical_gradient(lambda p: loss_of("branch", p), model.branch)
    assert flat_grad_rel_error(bg.weights, bg.biases, num_w, num_b) < 1e-6
    num_w, num_b = numerical_gradient(lambda p: loss_of("trunk", p), model.trunk)
    assert flat_grad_rel_error(tg.weights, tg.biases, num_w, num_b) < 1e-6


def test_train_reduces_error_and_reports():
    rng = substream(5, "fit")
    inputs = rng.uniform(-1.0, 1.0, size=(40, 2))
    queries = np.linspace(0.0, 1.0, 9).reshape(-1, 1)
    # a smooth synthetic operator: scaled and shifted sine read at queries
    targets = (inputs[:, :1] * np.sin(2.0 * np.pi * queries.T)
               + 0.3 * inputs[:, 1:])
    cfg = TrainConfig(epochs=400, base_lr=3e-3, decay_interval=200,
                      validation_cadence=100, seed=1)
    model, report = train(tiny_model(seed=9), inputs, targets, queries, cfg)
    assert report.epochs_run == 400
    assert not report.aborted
    assert report.best_error < 0.2
    assert report.validation_history[0][1] > 3.0 * report.best_error
    assert report.wall_seconds > 0.0
    # returned model is the best snapshot: re-measuring reproduces best_error
    from radonet.reconstruct import rel_l2_error
    err = np.mean(rel_l2_error(model_predict(model, inputs, queries), targets))
    assert err == pytest.approx(report.best_error, rel=1e-12)


def test_train_minibatch_determinism():
    rng = substream(6, "mb")
    inputs = rng.uniform(-1.0, 1.0, size=(10, 2))
    queries = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
    targets = inputs @ np.array([[1.0], [0.5]]) * np.ones((1, 5))
    cfg = TrainConfig(epochs=30, batch_size=3, validation_cadence=10, seed=7)
    m1, r1 = train(tiny_model(seed=3), inputs, targets, queries, cfg)
    m2, r2 = train(tiny_model(seed=3), inputs, targets, queries, cfg)
    assert r1.validation_history == r2.validation_history
    np.testing.assert_array_equal(m1.branch.weights[0], m2.branch.weights[0])
    # a different shuffle seed changes the path
    cfg3 = TrainConfig(epochs=30, batch_size=3, validation_cadence=10, seed=8)
    _, r3 = train(tiny_model(seed=3), inputs, targets, queries, cfg3)
    assert r3.validation_history[-1] != r1.validation_history[-1]


def test_train_aborts_on_divergence():
    rng = substream(7, "blow")
    inputs = rng.uniform(-1.0, 1.0, size=(8, 2))
    queries = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
    targets = 1e150 * np.ones((8, 5))
    cfg = TrainConfig(epochs=200, base_lr=1e250, validation_cadence=50, seed=0)
    with np.errstate(all="ignore"):
        model, report = train(tiny_model(seed=1), inputs, targets, queries, cfg)
    assert report.aborted
    assert report.epochs_run < 200
    # the returned snapshot is still usable
    assert np.all(np.isfinite(model_predict(model, inputs, queries)))


def test_train_validation_args():
    inputs = np.zeros((4, 2))
    targets = np.zeros((4, 3))
    queries = np.zeros((3, 1))
    with pytest.raises(ValueError):
        train(tiny_model(), inputs, targets, queries, TrainConfig(epochs=1),
              loss="huber")
    with pytest.raises(ValueError):
        train(tiny_model(), inputs, targets, queries, TrainConfig(epochs=1),
              loss="weighted")
    with pytest.raises(ValueError):
        train(tiny_model(), inputs, targets, queries, TrainConfig(epochs=1),
              loss="coordinate")
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_train_validates_after_the_final_epoch():
    # epochs not a multiple of the cadence: the final state is still a
    # candidate for the best snapshot
    rng = substream(8, "final")
    inputs = rng.uniform(-1.0, 1.0, size=(20, 2))
    queries = np.linspace(0.0, 1.0, 7).reshape(-1, 1)
    targets = inputs[:, :1] * np.sin(2.0 * np.pi * queries.T) + 0.3 * inputs[:, 1:]
    cfg = TrainConfig(epochs=25, base_lr=3e-3, validation_cadence=10, seed=2)
    model, report = train(tiny_model(seed=4), inputs, targets, queries, cfg)
    assert [epoch for epoch, _ in report.validation_history] == [0, 10, 20, 25]
    assert report.best_epoch == 25
    from radonet.reconstruct import rel_l2_error
    err = np.mean(rel_l2_error(model_predict(model, inputs, queries), targets))
    assert err == pytest.approx(report.best_error, rel=1e-12)


def _traced_growth(run) -> int:
    """The peak bytes run() allocates above what was allocated before it."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validation_does_not_stack_on_the_last_step():
    # a step and a validation of similar size: a run that validates while
    # the last step's prediction, cache and gradients are still bound peaks
    # near their sum (the larger plus 0.74 of the smaller, measured), one
    # that releases them first at the larger alone
    rng = substream(9, "working-set")
    model = DeepOnetModel(branch=mlp_init([2, 8, 8], activation="tanh", seed=1),
                          trunk=mlp_init([1, 8, 8], activation="tanh", seed=2),
                          n_basis=8, query_lo=[0.0], query_hi=[1.0])
    inputs, val_inputs = rng.standard_normal((64, 2)), rng.standard_normal((96, 2))
    queries = np.linspace(0.0, 1.0, 512).reshape(-1, 1)
    targets, val_targets = rng.standard_normal((64, 512)), rng.standard_normal((96, 512))

    def step():
        pred, cache = model.forward(inputs, queries)
        model.backward(cache, loss_mse(pred, targets)[1])

    from radonet.reconstruct import rel_l2_error
    step_peak = _traced_growth(step)
    val_peak = _traced_growth(lambda: rel_l2_error(model_predict(model, val_inputs, queries),
                                                   val_targets))
    train_peak = _traced_growth(lambda: train(
        model, inputs, targets, queries, TrainConfig(epochs=1, validation_cadence=1),
        val_inputs=val_inputs, val_targets=val_targets))
    assert train_peak < max(step_peak, val_peak) + min(step_peak, val_peak) / 2, (
        f"train peaked {train_peak} bytes above its start, a step alone {step_peak} "
        f"and a validation alone {val_peak}")
