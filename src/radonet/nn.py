"""Dense feed-forward networks with hand-written reverse-mode gradients.

Everything downstream (branch/trunk nets, coordinate and solution nets)
sits on this module: float64 numpy arrays, explicit caches and
bias-corrected Adam. Each net's parameters, and its gradients, live in one
contiguous buffer with per-layer views, so a training step updates them in
place. Model bundles store the per-layer arrays (radonet.models).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

_ACTIVATIONS = ("relu", "tanh")
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's constants (Kingma & Ba, ICLR 2015)


def substream(root_seed: int, *names: str) -> np.random.Generator:
    """Derive an independent, reproducible generator from a root seed.

    Each name is hashed into the seed sequence, so ("datagen", "train", "7")
    and ("datagen", "train", "17") give decorrelated streams that do not
    depend on draw order elsewhere.
    """
    if root_seed < 0:
        raise ValueError(f"root seed must be non-negative, got {root_seed}")
    words: list[int] = [int(root_seed)]
    for name in names:
        digest = hashlib.sha256(str(name).encode("utf-8")).digest()
        words.extend(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    return np.random.default_rng(np.random.SeedSequence(words))


def _layer_views(flat: np.ndarray, sizes: tuple) -> tuple[list, list]:
    """Per-layer (out, in) weight and (out,) bias views of a w0, b0, w1, b1, ... buffer."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        end = start + fan_out * fan_in
        weights.append(flat[start:end].reshape(fan_out, fan_in))
        biases.append(flat[end:end + fan_out])
        start = end + fan_out
    return weights, biases


@dataclass
class MlpParams:
    """Parameters of a fully connected net: weights[l] has shape (out, in).

    weights and biases are views into flat, laid out w0, b0, w1, b1, ...;
    copies and pickles keep that sharing.
    """

    layer_sizes: tuple[int, ...]
    activation: str
    flat: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.weights, self.biases = _layer_views(self.flat, self.layer_sizes)

    def __reduce__(self):
        return MlpParams, (self.layer_sizes, self.activation, self.flat)

    def copy(self) -> "MlpParams":
        return MlpParams(self.layer_sizes, self.activation, self.flat.copy())

    def n_params(self) -> int:
        return self.flat.size


@dataclass
class MlpGrads:
    """Gradients laid out like MlpParams, plus delta, dLoss/d(first layer's
    output before its activation): delta @ weights[0] is dLoss/dInputs."""

    flat: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    delta: np.ndarray


def _check_layout(sizes: tuple, activation: str) -> None:
    """Refuse fewer than two positive int layer sizes or an unknown activation."""
    if len(sizes) < 2 or not all(type(s) is int and s > 0 for s in sizes):
        raise ValueError(f"need at least two positive integer layer sizes, got {sizes}")
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}, expected one of {_ACTIVATIONS}")


def mlp_params(layer_sizes, activation: str, weights: list, biases: list) -> MlpParams:
    """MlpParams from its parts, copied into one fresh buffer, refused unless
    they agree: the layout that mlp_init also checks, and weights[l] and
    biases[l] of shapes (sizes[l+1], sizes[l]) and (sizes[l+1],)."""
    sizes = tuple(layer_sizes)
    _check_layout(sizes, activation)
    shapes = list(zip(sizes[1:], sizes[:-1]))
    got = [np.shape(w) for w in weights], [np.shape(b) for b in biases]
    if got != (shapes, [(fan_out,) for fan_out, _ in shapes]):
        raise ValueError(f"weight and bias shapes {got} do not fit layer sizes {sizes}")
    flat = np.concatenate([np.ravel(a) for pair in zip(weights, biases) for a in pair])
    return MlpParams(sizes, activation, flat)


def mlp_init(layer_sizes, activation: str = "relu", seed: int = 0) -> MlpParams:
    """Symmetric-uniform init scaled by 1/sqrt(fan_in); biases start at zero."""
    sizes = tuple(layer_sizes)
    _check_layout(sizes, activation)
    rng = substream(seed, "mlp-init")
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return mlp_params(sizes, activation, weights, biases)


def mlp_forward(params: MlpParams, batch: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Forward pass on a (..., B, d_in) array; returns (outputs, cache).

    Hidden layers use the configured activation, the output layer is linear.
    The cache holds the input, the hidden states and the output shape for
    mlp_backward, which takes the cache of a (B, d_in) batch only.

    Leading axes stack independent batches: each layer is one matmul call,
    and numpy runs it batch by batch with the same BLAS routine as a call on
    that batch alone. An (N, 1, d_in) stack therefore costs one call, not N,
    yet each of its rows goes through the one-row gemv and is bit-identical
    to mlp_forward on that row; a (N, d_in) batch goes through gemm, which
    rounds differently.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != params.layer_sizes[0]:
        raise ValueError(
            f"batch must have shape (..., B, {params.layer_sizes[0]}), got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite values in network input")
    hs = [x]
    h = x
    last = len(params.weights) - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.T
        h += b
        if layer != last:
            if params.activation == "relu":
                np.maximum(h, 0.0, out=h)
            else:
                np.tanh(h, out=h)
            hs.append(h)
    return h, (hs, h.shape)


def mlp_backward(params: MlpParams, cache: tuple, output_grad: np.ndarray) -> MlpGrads:
    """Exact reverse-mode gradients for a cached forward pass.

    output_grad is dLoss/dOutput with the same shape as the forward output.
    Returns parameter gradients and the first layer's delta; only a caller
    that needs the input gradient pays for its product with weights[0].
    """
    hs, out_shape = cache
    if len(out_shape) != 2:
        raise ValueError(f"mlp_backward needs the cache of a (B, d_in) batch, "
                         f"not of a stack of shape {hs[0].shape}")
    g = np.asarray(output_grad, dtype=np.float64)
    if g.shape != out_shape:
        raise ValueError(f"output_grad shape {g.shape} != output shape {out_shape}")
    flat = np.empty_like(params.flat)
    w_grads, b_grads = _layer_views(flat, params.layer_sizes)
    delta = g
    for layer in range(len(params.weights) - 1, -1, -1):
        np.matmul(delta.T, hs[layer], out=w_grads[layer])
        np.sum(delta, axis=0, out=b_grads[layer])
        if layer == 0:
            break
        delta = delta @ params.weights[layer]
        h = hs[layer]  # times the activation's derivative, from its output h
        if params.activation == "relu":
            delta *= h > 0.0
        else:
            d = h * h
            np.subtract(1.0, d, out=d)
            delta *= d
    return MlpGrads(flat, w_grads, b_grads, delta=delta)


@dataclass
class AdamState:
    """First/second moments, laid out like MlpParams.flat, and step counter of
    adam_step, whose constants are b1 = 0.9, b2 = 0.999 and eps = 1e-8."""

    t: int
    m: np.ndarray
    v: np.ndarray


def adam_init(params: MlpParams) -> AdamState:
    return AdamState(t=0, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(state: AdamState, params: MlpParams, grads: MlpGrads,
              lr: float) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update of params and state in place; returns
    them, the same objects.

    Every operation keeps the operands and order of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
    p -= lr*(m/c1) / (sqrt(v/c2) + eps), c = 1 - b**t,
    with the constants b1 = 0.9, b2 = 0.999 and eps = 1e-8.
    """
    state.t += 1
    b1, b2, eps = _BETA1, _BETA2, _EPS
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    g, m, v = grads.flat, state.m, state.v
    tmp = np.multiply(g, 1.0 - b1)
    m *= b1
    m += tmp
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - b2
    v *= b2
    v += tmp
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    step = np.divide(m, c1)
    step *= lr
    step /= tmp
    params.flat -= step
    return params, state


def lr_schedule(epoch: int, base_lr: float, decay_fraction: float = 0.1,
                decay_interval: int = 2000) -> float:
    """Stepwise decay: lr = base * (1 - decay_fraction) ** (epoch // interval)."""
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    if decay_interval <= 0:
        raise ValueError(f"decay interval must be positive, got {decay_interval}")
    if not 0.0 <= decay_fraction < 1.0:
        raise ValueError(f"decay fraction must be in [0, 1), got {decay_fraction}")
    return base_lr * (1.0 - decay_fraction) ** (epoch // decay_interval)
