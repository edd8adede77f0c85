import pickle

import numpy as np
import pytest

from radonet.nn import (
    MlpParams,
    adam_init,
    adam_step,
    lr_schedule,
    mlp_backward,
    mlp_forward,
    mlp_init,
    mlp_params,
    substream,
)

from oracles import flat_grad_rel_error, mlp_forward_loops, numerical_gradient


def test_substream_reproducible_and_decorrelated():
    a = substream(7, "x").standard_normal(5)
    b = substream(7, "x").standard_normal(5)
    c = substream(7, "y").standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_name_order_matters():
    a = substream(0, "u", "v").standard_normal(3)
    b = substream(0, "v", "u").standard_normal(3)
    assert not np.array_equal(a, b)


def test_substream_rejects_negative_seed():
    with pytest.raises(ValueError):
        substream(-1, "x")


def test_mlp_init_shapes_and_determinism():
    p = mlp_init([3, 16, 8, 2], activation="tanh", seed=11)
    assert p.layer_sizes == (3, 16, 8, 2)
    assert [w.shape for w in p.weights] == [(16, 3), (8, 16), (2, 8)]
    assert all(np.all(b == 0.0) for b in p.biases)
    q = mlp_init([3, 16, 8, 2], activation="tanh", seed=11)
    for w1, w2 in zip(p.weights, q.weights):
        assert np.array_equal(w1, w2)


def test_mlp_init_validates():
    with pytest.raises(ValueError):
        mlp_init([4], seed=0)
    with pytest.raises(ValueError):
        mlp_init([4, 0, 2], seed=0)
    with pytest.raises(ValueError):
        mlp_init([4, 4], activation="sigmoid", seed=0)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_forward_matches_loop_reference(activation):
    rng = substream(21, "fwd", activation)
    for trial in range(5):
        params = mlp_init([4, 9, 7, 3], activation=activation, seed=100 + trial)
        batch = rng.standard_normal((6, 4))
        out, _ = mlp_forward(params, batch)
        assert out.shape == (6, 3)
        np.testing.assert_allclose(out, mlp_forward_loops(params, batch),
                                   rtol=1e-13, atol=1e-13)


def test_forward_rejects_bad_batches():
    params = mlp_init([4, 8, 2], seed=0)
    with pytest.raises(ValueError):
        mlp_forward(params, np.zeros((3, 5)))
    with pytest.raises(ValueError):
        mlp_forward(params, np.full((2, 4), np.nan))


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_stacked_one_row_batches_match_one_call_per_row(activation):
    # an (N, 1, d) stack runs each row through the one-row BLAS call, so every
    # row is bit-identical to mlp_forward on that row alone
    params = mlp_init([3, 128, 128, 64], activation=activation, seed=8)
    rows = substream(8, "stack", activation).standard_normal((7, 3))
    stacked, _ = mlp_forward(params, rows[:, None, :])
    assert stacked.shape == (7, 1, 64)
    for i, row in enumerate(rows):
        np.testing.assert_array_equal(stacked[i], mlp_forward(params, row[None, :])[0])
    wide, _ = mlp_forward(params, np.stack([rows, rows[::-1]]))  # any leading axes
    np.testing.assert_allclose(wide[1], wide[0][::-1], rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_forward_without_cache_returns_the_same_bytes(activation):
    params = mlp_init([3, 32, 32, 8], activation=activation, seed=4)
    rows = substream(4, "keep", activation).standard_normal((9, 3))
    for batch in (rows, rows[:, None, :]):  # one gemm, or one gemv per row
        got = mlp_forward(params, batch, keep=False)
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == mlp_forward(params, batch)[0].tobytes()


def test_forward_refuses_a_single_vector_and_backward_a_stack():
    params = mlp_init([4, 8, 2], seed=0)
    with pytest.raises(ValueError):
        mlp_forward(params, np.zeros(4))
    out, cache = mlp_forward(params, np.zeros((3, 1, 4)))
    with pytest.raises(ValueError, match="stack"):
        mlp_backward(params, cache, np.ones_like(out))


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_backward_matches_finite_differences(activation):
    rng = substream(33, "grad", activation)
    for trial in range(4):
        params = mlp_init([3, 6, 5, 2], activation=activation, seed=500 + trial)
        batch = rng.standard_normal((5, 3))
        target = rng.standard_normal((5, 2))

        def loss(p):
            out, _ = mlp_forward(p, batch)
            return float(np.sum((out - target) ** 2))

        out, cache = mlp_forward(params, batch)
        grads = mlp_backward(params, cache, 2.0 * (out - target))
        num_w, num_b = numerical_gradient(loss, params)
        assert flat_grad_rel_error(grads.weights, grads.biases, num_w, num_b) < 1e-7


def test_backward_input_gradient():
    params = mlp_init([2, 8, 1], activation="tanh", seed=3)
    x = np.array([[0.3, -0.7]])
    out, cache = mlp_forward(params, x)
    grads = mlp_backward(params, cache, np.ones_like(out))
    eps = 1e-6
    for j in range(2):
        xp, xm = x.copy(), x.copy()
        xp[0, j] += eps
        xm[0, j] -= eps
        fd = (mlp_forward(params, xp)[0] - mlp_forward(params, xm)[0]) / (2 * eps)
        assert abs((grads.delta @ params.weights[0])[0, j] - fd[0, 0]) < 1e-8


def test_adam_reduces_quadratic_loss():
    # fit a tiny net to a fixed linear map; loss must drop monotonically-ish
    params = mlp_init([2, 8, 1], activation="tanh", seed=9)
    rng = substream(9, "adam-data")
    x = rng.standard_normal((32, 2))
    y = x @ np.array([[0.5], [-1.0]])
    state = adam_init(params)
    losses = []
    for _ in range(200):
        out, cache = mlp_forward(params, x)
        losses.append(float(np.mean((out - y) ** 2)))
        grads = mlp_backward(params, cache, 2.0 * (out - y) / y.size)
        params, state = adam_step(state, params, grads, lr=1e-2)
    assert losses[-1] < 0.05 * losses[0]


def test_adam_step_counter_and_shapes():
    params = mlp_init([2, 4, 1], seed=1)
    state = adam_init(params)
    before = params.copy()
    out, cache = mlp_forward(params, np.ones((1, 2)))
    grads = mlp_backward(params, cache, np.ones_like(out))
    new_params, new_state = adam_step(state, params, grads, lr=1e-3)
    assert new_params is params and new_state is state  # updated in place
    assert state.t == 1
    for w_old, w_new in zip(before.weights, params.weights):
        assert w_old.shape == w_new.shape
        assert not np.array_equal(w_old, w_new)


def _reference_forward(weights, biases, activation, batch):
    """Out-of-place forward pass: returns (output, hidden states with the input)."""
    hs, h = [batch], batch
    for layer, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.T + b
        if layer == len(weights) - 1:
            h = z
        else:
            h = np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)
            hs.append(h)
    return h, hs


def _reference_backward(weights, activation, hs, output_grad):
    """Out-of-place backward pass: (weight grads, bias grads, first-layer delta)."""
    n = len(weights)
    w_grads, b_grads, delta = [None] * n, [None] * n, output_grad
    for layer in range(n - 1, -1, -1):
        w_grads[layer] = delta.T @ hs[layer]
        b_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            h = hs[layer]
            act_grad = (h > 0.0).astype(h.dtype) if activation == "relu" else 1.0 - h * h
            delta = (delta @ weights[layer]) * act_grad
    return w_grads, b_grads, delta


def _reference_adam(t, ps, ms, vs, gs, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Out-of-place bias-corrected Adam over lists of arrays: new (ps, ms, vs)."""
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    new_p, new_m, new_v = [], [], []
    for p, m, v, g in zip(ps, ms, vs, gs):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        new_p.append(p - lr * (m / c1) / (np.sqrt(v / c2) + eps))
        new_m.append(m)
        new_v.append(v)
    return new_p, new_m, new_v


def _flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_in_place_step_matches_the_reference_arithmetic(activation, batch):
    params = mlp_init([3, 9, 6, 2], activation=activation, seed=17)
    state = adam_init(params)
    ps = [a.copy() for pair in zip(params.weights, params.biases) for a in pair]  # w0, b0, ...
    ms = [np.zeros_like(a) for a in ps]
    vs = [np.zeros_like(a) for a in ps]
    rng = substream(17, "in-place", activation, str(batch))
    for t in range(1, 21):
        x = rng.standard_normal((batch, 3))
        target = rng.standard_normal((batch, 2))
        lr = 1e-2 / t

        out, cache = mlp_forward(params, x)
        grads = mlp_backward(params, cache, 2.0 * (out - target) / out.size)
        adam_step(state, params, grads, lr)

        ref_out, hs = _reference_forward(ps[0::2], ps[1::2], activation, x)
        ref_w, ref_b, ref_delta = _reference_backward(ps[0::2], activation, hs,
                                                   2.0 * (ref_out - target) / ref_out.size)
        ref_g = [a for pair in zip(ref_w, ref_b) for a in pair]
        ps, ms, vs = _reference_adam(t, ps, ms, vs, ref_g, lr)

        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(grads.delta, ref_delta)
        np.testing.assert_array_equal(grads.flat, _flat(ref_g))
        np.testing.assert_array_equal(params.flat, _flat(ps))
        np.testing.assert_array_equal(state.m, _flat(ms))
        np.testing.assert_array_equal(state.v, _flat(vs))
    assert state.t == 20


def test_params_stay_views_into_one_buffer():
    params = mlp_init([16, 64, 64, 8], activation="tanh", seed=5)
    rebuilt = mlp_params(params.layer_sizes, params.activation, params.weights, params.biases)
    pickled = pickle.loads(pickle.dumps(params))
    for p in (params, rebuilt, params.copy(), pickled):
        assert np.array_equal(p.flat, params.flat)
        assert all(np.shares_memory(a, p.flat) for a in p.weights + p.biases)
        assert p is params or not np.shares_memory(p.flat, params.flat)
    assert np.array_equal(params.flat,
                          _flat(a for pair in zip(params.weights, params.biases) for a in pair))
    # the buffer goes on the wire once: no bigger than pickling each array
    per_array = pickle.dumps({"layer_sizes": params.layer_sizes, "activation": params.activation,
                              "weights": [w.copy() for w in params.weights],
                              "biases": [b.copy() for b in params.biases]})
    assert len(pickle.dumps(params)) <= 1.01 * len(per_array)


def test_lr_schedule_steps():
    assert lr_schedule(0, 1e-3) == 1e-3
    assert lr_schedule(1999, 1e-3) == 1e-3
    assert lr_schedule(2000, 1e-3) == pytest.approx(9e-4)
    assert lr_schedule(4000, 1e-3) == pytest.approx(8.1e-4)
    assert lr_schedule(10, 2e-3, decay_fraction=0.5, decay_interval=5) == pytest.approx(5e-4)
    with pytest.raises(ValueError):
        lr_schedule(-1, 1e-3)
    with pytest.raises(ValueError):
        lr_schedule(0, 1e-3, decay_fraction=1.0)


def test_mlp_params_checks_arrays_against_layer_sizes():
    params = mlp_init([5, 12, 3], activation="relu", seed=42)
    again = mlp_params([5, 12, 3], "relu", params.weights, params.biases)
    assert again.layer_sizes == (5, 12, 3)
    with pytest.raises(ValueError, match="do not fit"):
        mlp_params([5, 12, 4], "relu", params.weights, params.biases)
    with pytest.raises(ValueError, match="do not fit"):
        mlp_params([5, 12, 3], "relu", params.weights, params.biases[:1])
    with pytest.raises(ValueError, match="do not fit"):
        mlp_params([5, 12, 3], "relu", [params.weights[0].T, params.weights[1]], params.biases)
    with pytest.raises(ValueError, match="integer layer sizes"):
        mlp_params([5, 12.0, 3], "relu", params.weights, params.biases)
    one_in = mlp_init([1, 4, 2], seed=42)
    with pytest.raises(ValueError, match="integer layer sizes"):  # True == 1, but not an int
        mlp_params([True, 4, 2], "relu", one_in.weights, one_in.biases)
    with pytest.raises(ValueError, match="sigmoid"):
        mlp_params([5, 12, 3], "sigmoid", params.weights, params.biases)


def test_params_copy_is_deep():
    params = mlp_init([2, 3, 1], seed=0)
    clone = params.copy()
    clone.weights[0][0, 0] += 1.0
    assert params.weights[0][0, 0] != clone.weights[0][0, 0]


def test_n_params_count():
    params = mlp_init([3, 7, 2], seed=0)
    assert params.n_params() == (7 * 3 + 7) + (2 * 7 + 2)
