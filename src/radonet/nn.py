"""Dense feed-forward networks with hand-written reverse-mode gradients.

Everything downstream (branch/trunk nets, coordinate and solution nets)
sits on this module: float64 numpy arrays, explicit caches and
bias-corrected Adam. Model bundles store the arrays (radonet.models).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

_ACTIVATIONS = ("relu", "tanh")


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


@dataclass
class MlpParams:
    """Parameters of a fully connected net: weights[l] has shape (out, in)."""

    layer_sizes: tuple[int, ...]
    activation: str
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "MlpParams":
        return replace(self, weights=[w.copy() for w in self.weights],
                       biases=[b.copy() for b in self.biases])

    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


@dataclass
class MlpGrads:
    """Gradients shaped like MlpParams plus the gradient w.r.t. the inputs."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    inputs: np.ndarray


def _check_layout(sizes: tuple, activation: str) -> None:
    """Refuse fewer than two positive int layer sizes or an unknown activation."""
    if len(sizes) < 2 or not all(type(s) is int and s > 0 for s in sizes):
        raise ValueError(f"need at least two positive integer layer sizes, got {sizes}")
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}, expected one of {_ACTIVATIONS}")


def mlp_params(layer_sizes, activation: str, weights: list, biases: list) -> MlpParams:
    """MlpParams from its parts, refused unless they agree: the layout that
    mlp_init also checks, and weights[l] and biases[l] of shapes
    (sizes[l+1], sizes[l]) and (sizes[l+1],)."""
    sizes = tuple(layer_sizes)
    _check_layout(sizes, activation)
    shapes = list(zip(sizes[1:], sizes[:-1]))
    got = [np.shape(w) for w in weights], [np.shape(b) for b in biases]
    if got != (shapes, [(fan_out,) for fan_out, _ in shapes]):
        raise ValueError(f"weight and bias shapes {got} do not fit layer sizes {sizes}")
    return MlpParams(sizes, activation, weights, biases)


def mlp_init(layer_sizes, activation: str = "relu", seed: int = 0) -> MlpParams:
    """Symmetric-uniform init scaled by 1/sqrt(fan_in); biases start at zero."""
    sizes = tuple(int(s) for s in layer_sizes)
    _check_layout(sizes, activation)
    rng = substream(seed, "mlp-init")
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(sizes, activation, weights, biases)


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _act_grad(h: np.ndarray, kind: str) -> np.ndarray:
    """Activation derivative, from the activation's output h."""
    if kind == "relu":
        return (h > 0.0).astype(h.dtype)
    return 1.0 - h * h


def mlp_forward(params: MlpParams, batch: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Forward pass on a (batch, d_in) array; returns (outputs, cache).

    Hidden layers use the configured activation, the output layer is linear.
    The cache holds pre-activations and hidden states for mlp_backward.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.layer_sizes[0]:
        raise ValueError(
            f"batch must have shape (B, {params.layer_sizes[0]}), got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite values in network input")
    hs = [x]
    zs = []
    h = x
    last = len(params.weights) - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        zs.append(z)
        h = z if layer == last else _act(z, params.activation)
        if layer != last:
            hs.append(h)
    return h, (hs, zs)


def mlp_backward(params: MlpParams, cache: tuple, output_grad: np.ndarray) -> MlpGrads:
    """Exact reverse-mode gradients for a cached forward pass.

    output_grad is dLoss/dOutput with the same shape as the forward output.
    Returns parameter gradients and the gradient w.r.t. the input batch.
    """
    hs, zs = cache
    g = np.asarray(output_grad, dtype=np.float64)
    if g.shape != zs[-1].shape:
        raise ValueError(f"output_grad shape {g.shape} != output shape {zs[-1].shape}")
    n_layers = len(params.weights)
    w_grads: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
    b_grads: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
    delta = g
    for layer in range(n_layers - 1, -1, -1):
        w_grads[layer] = delta.T @ hs[layer]
        b_grads[layer] = delta.sum(axis=0)
        delta = delta @ params.weights[layer]
        if layer > 0:
            delta = delta * _act_grad(hs[layer], params.activation)
    return MlpGrads(weights=w_grads, biases=b_grads, inputs=delta)


@dataclass
class AdamState:
    """First/second moment accumulators and step counter for Adam."""

    t: int
    m_weights: list[np.ndarray]
    m_biases: list[np.ndarray]
    v_weights: list[np.ndarray]
    v_biases: list[np.ndarray]
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params: MlpParams) -> AdamState:
    return AdamState(
        t=0,
        m_weights=[np.zeros_like(w) for w in params.weights],
        m_biases=[np.zeros_like(b) for b in params.biases],
        v_weights=[np.zeros_like(w) for w in params.weights],
        v_biases=[np.zeros_like(b) for b in params.biases],
    )


def adam_step(state: AdamState, params: MlpParams, grads: MlpGrads,
              lr: float) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update; returns fresh params and state."""
    t = state.t + 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t

    def update(ps, ms, vs, gs):
        """The updated arrays, first and second moments of one list of arrays."""
        new_p, new_m, new_v = [], [], []
        for p, m, v, g in zip(ps, ms, vs, gs):
            m_new = b1 * m + (1.0 - b1) * g
            v_new = b2 * v + (1.0 - b2) * (g * g)
            step = lr * (m_new / c1) / (np.sqrt(v_new / c2) + eps)
            new_p.append(p - step)
            new_m.append(m_new)
            new_v.append(v_new)
        return new_p, new_m, new_v

    new_w, new_mw, new_vw = update(params.weights, state.m_weights, state.v_weights,
                                   grads.weights)
    new_b, new_mb, new_vb = update(params.biases, state.m_biases, state.v_biases, grads.biases)
    new_params = MlpParams(params.layer_sizes, params.activation, new_w, new_b)
    new_state = AdamState(t, new_mw, new_mb, new_vw, new_vb, b1, b2, eps)
    return new_params, new_state


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
