"""The monotone coordinate head: gradients, the no-fold property, dense grids."""

import numpy as np
import pytest

from radonet import models
from radonet.models import (
    PREDICT_CHUNK,
    CoordinateNet,
    DeepOnetModel,
    RAdaptiveSystem,
    mesh_backward_batch,
    mesh_forward_batch,
    monotone_head,
    monotone_head_backward,
    radaptive_predict_graph,
)
from radonet.nn import mlp_init, substream
from radonet.reconstruct import monotone_fix
from radonet.training import loss_coordinate, model_predict

from oracles import flat_grad_rel_error, numerical_gradient

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402


def tiny_coord_net(seed=0, n_in=2, n_basis=4, lo=0.0, hi=1.0):
    return CoordinateNet(branch=mlp_init([n_in, 12, n_basis], activation="tanh", seed=seed),
                         trunk=mlp_init([1, 12, n_basis], activation="tanh", seed=seed + 1),
                         n_basis=n_basis, query_lo=[lo], query_hi=[hi])


def test_head_gradient_matches_finite_differences():
    rng = substream(11, "head-fd")
    xi = np.sort(rng.uniform(-2.0, 3.0, size=9))
    for offset in (0.0, -50.0):  # -50: every row in softplus's exponential tail
        g = 3.0 * rng.standard_normal((3, 9)) + offset
        x_grad = rng.standard_normal((3, 9))
        _, cache = monotone_head(g, xi)
        analytic = monotone_head_backward(cache, x_grad)
        eps = 1e-6
        num = np.zeros_like(g)
        for i in range(g.shape[0]):
            for j in range(g.shape[1]):
                up = g.copy(); up[i, j] += eps
                dn = g.copy(); dn[i, j] -= eps
                num[i, j] = np.sum(x_grad * (monotone_head(up, xi)[0]
                                             - monotone_head(dn, xi)[0])) / (2.0 * eps)
        np.testing.assert_allclose(analytic, num, atol=1e-7 * np.max(np.abs(num)))


def test_end_to_end_mesh_head_gradient():
    # chain the coordinate loss through the head and the operator network
    # and compare against central differences on every weight
    rng = substream(12, "mesh-e2e")
    model = tiny_coord_net(seed=60)
    inputs = rng.standard_normal((3, 2))
    xi = np.linspace(0.0, 1.0, 7)
    target = np.sort(rng.uniform(0.0, 1.0, size=(3, 7)), axis=1)
    w = 1.0 + rng.uniform(0.0, 1.0, size=(3, 7))

    pred, cache = mesh_forward_batch(model, inputs, xi)
    _, pred_grad = loss_coordinate(pred, target, w)
    bg, tg = mesh_backward_batch(model, cache, pred_grad)

    def loss_of(which, p):
        probe = CoordinateNet(
            branch=p if which == "branch" else model.branch,
            trunk=p if which == "trunk" else model.trunk,
            n_basis=model.n_basis, query_lo=model.query_lo, query_hi=model.query_hi)
        out, _ = mesh_forward_batch(probe, inputs, xi)
        return loss_coordinate(out, target, w)[0]

    num_w, num_b = numerical_gradient(lambda p: loss_of("branch", p), model.branch)
    assert flat_grad_rel_error(bg.weights, bg.biases, num_w, num_b) < 1e-6
    num_w, num_b = numerical_gradient(lambda p: loss_of("trunk", p), model.trunk)
    assert flat_grad_rel_error(tg.weights, tg.biases, num_w, num_b) < 1e-6


@settings(max_examples=300, deadline=None)
@given(g=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 40)),
                elements=st.floats(allow_nan=False, allow_infinity=False)),
       lo=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3))
def test_head_knots_never_fold_and_span_the_grid(g, lo, width):
    xi = np.linspace(lo, lo + width, g.shape[1])
    x, _ = monotone_head(g, xi)
    assert np.all(np.diff(x, axis=1) >= 0.0)
    assert np.all(x[:, 0] == xi[0])
    assert np.all(x[:, -1] == xi[-1])


def test_head_rejects_non_finite_output():
    with pytest.raises(ValueError):
        monotone_head(np.array([[0.0, np.nan, 1.0]]), np.linspace(0.0, 1.0, 3))


def test_model_predict_applies_the_head():
    model = tiny_coord_net(seed=70)
    inputs = substream(13, "predict").standard_normal((4, 2))
    xi = np.linspace(0.0, 1.0, PREDICT_CHUNK + 45)  # two prediction chunks
    pred = model_predict(model, inputs, xi.reshape(-1, 1))
    cached, _ = mesh_forward_batch(model, inputs, xi)
    np.testing.assert_allclose(pred, cached, rtol=1e-12, atol=1e-15)


def test_system_wraps_plain_coordinate_net_and_interpolates_dense_grids():
    plain = DeepOnetModel(branch=mlp_init([3, 10, 5], activation="tanh", seed=5),
                          trunk=mlp_init([1, 10, 5], activation="relu", seed=6),
                          n_basis=5, query_lo=[-1.0], query_hi=[2.0])
    sol = DeepOnetModel(branch=mlp_init([3, 10, 5], activation="tanh", seed=7),
                        trunk=mlp_init([1, 10, 5], activation="relu", seed=8),
                        n_basis=5, query_lo=[-1.0], query_hi=[2.0])
    xi = np.linspace(-1.0, 2.0, 13)
    system = RAdaptiveSystem(coord_net=plain, sol_net=sol, xi_grid=xi)
    assert isinstance(system.coord_net, CoordinateNet)
    a = np.array([[0.2, -0.5, 0.9]])
    native = radaptive_predict_graph(system, a, xi).knots[0]
    assert native[0] == -1.0 and native[-1] == 2.0
    assert np.all(np.diff(native) > 0.0)
    xi_dense = np.linspace(-1.0, 2.0, 50)
    dense = radaptive_predict_graph(system, a, xi=xi_dense)
    np.testing.assert_array_equal(dense.knots[0], np.interp(xi_dense, xi, native))


def tied_knot_net():
    """A coordinate net whose raw output sinks to -2000 on the left half of
    [0, 1]: softplus underflows to zero there, so the head ties those knots."""
    branch = mlp_init([3, 1], seed=0)
    branch.weights[0][:] = 0.0
    branch.biases[0][:] = 1.0
    trunk = mlp_init([1, 1, 1], activation="relu", seed=0)
    trunk.weights[0][:] = -1.0
    trunk.weights[1][:] = -2000.0  # g = -2000 * relu(-(2 xi - 1))
    return CoordinateNet(branch=branch, trunk=trunk, n_basis=1, query_lo=[0.0], query_hi=[1.0])


@settings(max_examples=150, deadline=None)
@given(n_native=st.integers(2, 130), extra=st.integers(0, 600), seed=st.integers(0, 2**16),
       scale=st.sampled_from([1.0, 30.0, 1e3]), lo=st.floats(-10.0, 10.0),
       width=st.floats(1e-3, 100.0), tied=st.booleans())
@example(n_native=129, extra=256, seed=0, scale=1.0, lo=-5.0, width=10.0, tied=False)
@example(n_native=17, extra=368, seed=0, scale=1.0, lo=0.0, width=1.0, tied=True)
def test_interpolated_knots_never_fold_and_keep_exact_ends(n_native, extra, seed, scale, lo,
                                                           width, tied):
    # on any evaluation grid as fine as the native one or finer, 385 points
    # on 129 included, every row is a mesh that monotone_fix accepts
    if tied:
        coord, lo, width = tied_knot_net(), 0.0, 1.0
    else:
        coord = tiny_coord_net(seed=seed, n_in=3, lo=lo, hi=lo + width)
        coord.trunk.weights[-1] *= scale  # large scales drive softplus into underflow
    hi = lo + width
    sol = DeepOnetModel(branch=mlp_init([3, 6, 4], activation="tanh", seed=seed + 2),
                        trunk=mlp_init([1, 6, 4], activation="relu", seed=seed + 3),
                        n_basis=4, query_lo=[lo], query_hi=[hi])
    system = RAdaptiveSystem(coord_net=coord, sol_net=sol, xi_grid=np.linspace(lo, hi, n_native))
    inputs = substream(seed, "interp-knots").uniform(-2.0, 2.0, size=(3, 3))
    knots = radaptive_predict_graph(system, inputs,
                                    xi=np.linspace(lo, hi, n_native + extra)).knots
    assert np.all(np.diff(knots, axis=1) >= 0.0)
    assert np.all(knots[:, 0] == lo) and np.all(knots[:, -1] == hi)
    for row in knots:
        assert monotone_fix(row, (lo, hi)) is row


@pytest.mark.parametrize("hi, native", [
    # native knots 2 ulps apart after a steep interval: the query just below
    # the knot at xi = 0 lands a few ulps above the next one
    (1.0, [-1.0, -0.9, 1e-3, np.nextafter(np.nextafter(1e-3, 1.0), 1.0), 1.0]),
    # knots tied at hi after a steep interval: the same query lands past hi
    (5.0, [-5.0, -4.78595185079775, 5.0, 5.0, 5.0]),
])
def test_interpolation_folds_are_undone(monkeypatch, hi, native):
    native = np.array([native])
    xi_grid = np.linspace(-hi, hi, 5)
    query = np.array([-hi, -0.75 * hi, -5e-324, 1e-300, 0.5 * hi, hi])
    raw = np.interp(query, xi_grid, native[0])
    assert np.any(np.diff(raw) < 0.0)  # np.interp alone folds these knots
    monkeypatch.setattr(models, "monotone_head", lambda g, xi: (native, None))
    model = tiny_coord_net(n_in=3, lo=-hi, hi=hi)
    system = RAdaptiveSystem(coord_net=model, sol_net=model, xi_grid=xi_grid)
    knots = radaptive_predict_graph(system, np.zeros((1, 3)), xi=query).knots[0]
    np.testing.assert_array_equal(knots, np.maximum.accumulate(np.minimum(raw, hi)))
    assert monotone_fix(knots, (-hi, hi)) is knots
