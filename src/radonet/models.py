"""Branch/trunk operator networks and the two-net adaptive system.

A DeepONet predicts u(y) = sum_k branch_k(a) * trunk_k(y); it is the
vanilla family on its own. The adaptive system, the radaptive family, pairs
a coordinate net (predicting mesh locations) with a solution net (predicting
values on that mesh), both DeepONets, over a shared uniform computational
grid. The coordinate net reads its output through a monotone head, so the
mesh it predicts cannot fold.

Both operator nets, DeepOnetModel and its subclass CoordinateNet, offer one
protocol to training, evaluation and bundles: `nets` (its MLP fields, in
gradient order), `forward`/`backward` (with caches, for training), `predict`
(no caches), `copy`, its bundle `kind` and the `family` that eval reports;
the two-net system has a `kind` and a `family` too. The methods call this
module's functions by their global names, so wrapping a module function
wraps every model's use of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import store
from .nn import MlpParams, mlp_backward, mlp_forward, mlp_params

BUNDLE_VERSION = 3

# the coordinate head recorded in radaptive bundles (see monotone_head)
COORD_HEAD = "softplus-cumtrapz"

# below this, softplus(g) and exp(g) agree to float64 precision
_SOFTPLUS_EXP_TAIL = -37.0

# queries per forward pass in predict
PREDICT_CHUNK = 512


def _as_2d(arr: np.ndarray, d: int, what: str) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None] if d == 1 else a[None, :]
    if a.ndim != 2 or a.shape[1] != d:
        raise ValueError(f"{what} must have shape (N, {d}), got {np.shape(arr)}")
    return a


def _predict_chunks(model, inputs: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """deeponet_forward_batch's predictions with no caches kept,
    PREDICT_CHUNK queries at a time, so memory does not grow with the grid."""
    q = np.asarray(queries, dtype=np.float64)
    return np.concatenate([deeponet_forward_batch(model, inputs, q[start:start + PREDICT_CHUNK])[0]
                           for start in range(0, len(q), PREDICT_CHUNK)], axis=1)


def model_predict(model, inputs: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Forward pass for evaluation, with no caches kept (see the models'
    predict). Training's validation calls it too, as training.model_predict."""
    return model.predict(inputs, queries)


@dataclass
class DeepOnetModel:
    """Branch net encodes the input function, trunk net provides the basis.

    In a bundle each net in `nets` is stored as `<net>_weight_<i>.npy` and
    `<net>_bias_<i>.npy`, with its layer sizes and activation in the
    manifest's `nets` entry under its name; n_basis is the branch's output
    size.
    """

    branch: MlpParams
    trunk: MlpParams
    n_basis: int
    query_lo: np.ndarray
    query_hi: np.ndarray

    nets = ("branch", "trunk")
    kind = "deeponet"
    family = "vanilla"

    def __post_init__(self):
        """Refuse nets whose output size is not n_basis and query bounds that
        are not ordered (d,) vectors."""
        for name in self.nets:
            got = getattr(self, name).layer_sizes[-1]
            if got != self.n_basis:
                raise ValueError(f"{name} output size {got} != {self.n_basis}")
        self.query_lo = np.atleast_1d(np.asarray(self.query_lo, dtype=np.float64))
        self.query_hi = np.atleast_1d(np.asarray(self.query_hi, dtype=np.float64))
        d = self.d_query
        if self.query_lo.shape != (d,) or self.query_hi.shape != (d,):
            raise ValueError(f"query bounds must have shape ({d},)")
        if not np.all(self.query_hi > self.query_lo):
            raise ValueError("query_hi must exceed query_lo componentwise")

    @property
    def d_query(self) -> int:
        return self.trunk.layer_sizes[0]

    def normalize_queries(self, queries: np.ndarray) -> np.ndarray:
        """Affine map of raw query coordinates onto [-1, 1]^d for the trunk."""
        q = _as_2d(queries, self.d_query, "queries")
        return 2.0 * (q - self.query_lo) / (self.query_hi - self.query_lo) - 1.0

    def copy(self):
        """The same model with every net deep-copied."""
        return replace(self, **{name: getattr(self, name).copy() for name in self.nets})

    def forward(self, inputs, queries):
        return deeponet_forward_batch(self, inputs, queries)

    def backward(self, cache, pred_grad):
        return deeponet_backward_batch(self, cache, pred_grad)

    def predict(self, inputs, queries):
        return _predict_chunks(self, inputs, queries)

    def _save_parts(self, out: Path, input_encoding: str) -> dict:
        nets = {}
        for name in self.nets:
            params = getattr(self, name)
            for i, (w, b) in enumerate(zip(params.weights, params.biases)):
                store.write_array(out, f"{name}_weight_{i}", w)
                store.write_array(out, f"{name}_bias_{i}", b)
            nets[name] = {"layer_sizes": list(params.layer_sizes), "activation": params.activation}
        return {"nets": nets,
                "query_lo": [float(v) for v in self.query_lo],
                "query_hi": [float(v) for v in self.query_hi]}

    @classmethod
    def _read_parts(cls, root: Path, manifest: dict) -> dict:
        net = {"layer_sizes": [int], "activation": str}
        store.check_fields(root, manifest, {"nets": dict.fromkeys(cls.nets, net),
                                            "query_lo": [float], "query_hi": [float]})
        parts = {"query_lo": np.asarray(manifest["query_lo"], dtype=np.float64),
                 "query_hi": np.asarray(manifest["query_hi"], dtype=np.float64)}
        for name in cls.nets:
            entry = manifest["nets"][name]
            layers = range(len(entry["layer_sizes"]) - 1)
            weights = [store.read_array(root, f"{name}_weight_{i}", 2) for i in layers]
            biases = [store.read_array(root, f"{name}_bias_{i}", 1) for i in layers]
            try:
                parts[name] = mlp_params(entry["layer_sizes"], entry["activation"], weights, biases)
            except ValueError as exc:
                raise ValueError(f"{root / 'manifest.json'}: net {name!r}: {exc}") from exc
        return dict(parts, n_basis=parts["branch"].layer_sizes[-1])


def deeponet_forward_batch(model: DeepOnetModel, inputs: np.ndarray,
                           queries: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Evaluate many input functions at many queries: (N1, N2) predictions."""
    a = _as_2d(inputs, model.branch.layer_sizes[0], "inputs")
    qn = model.normalize_queries(queries)
    b_out, b_cache = mlp_forward(model.branch, a)
    t_out, t_cache = mlp_forward(model.trunk, qn)
    return b_out @ t_out.T, (b_out, t_out, b_cache, t_cache)


def deeponet_backward_batch(model: DeepOnetModel, cache: tuple,
                            pred_grad: np.ndarray):
    """Backprop dLoss/dPred through the dot-product head into both nets."""
    b_out, t_out, b_cache, t_cache = cache
    branch_grads = mlp_backward(model.branch, b_cache, pred_grad @ t_out)
    trunk_grads = mlp_backward(model.trunk, t_cache, pred_grad.T @ b_out)
    return branch_grads, trunk_grads


def _softplus(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(1 + e^g) and its derivative, the logistic sigmoid, overflow-free."""
    s = np.abs(g)
    np.negative(s, out=s)
    np.exp(s, out=s)
    np.log1p(s, out=s)
    s += np.maximum(g, 0.0)
    ds = np.subtract(g, s)  # <= 0, so its exp cannot overflow
    np.exp(ds, out=ds)
    return s, ds


def monotone_head(g: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Map raw net outputs g (N, n+1) on the grid xi to non-decreasing knots.

    x_j = lo + (hi - lo) * C_j / C_n, where C is the cumulative trapezoid
    integral of softplus(g) along xi and lo, hi are the ends of xi: the
    equidistribution map of a positive density (Huang & Russell, Adaptive
    Moving Mesh Methods, ch. 2), learned as a positive integrand as in UMNN.
    Every row starts at lo and ends at hi exactly, whatever finite g is.
    """
    g = np.asarray(g, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64).reshape(-1)
    if g.ndim != 2 or g.shape[1] != xi.size or xi.size < 2:
        raise ValueError(f"g must have shape (N, {xi.size}) with >= 2 knots, got {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite values in coordinate net output")
    # x depends only on the ratios of the integrand, so each row is divided
    # by its largest integrand value (a constant for the gradient): sums cannot
    # overflow, and rows deep in softplus's exponential tail keep their
    # ratios as exp(g - max g) instead of underflowing to zero
    top = g.max(axis=1, keepdims=True)
    tail = top < _SOFTPLUS_EXP_TAIL
    s, ds = _softplus(g)
    inv_scale = 1.0 / _softplus(np.where(tail, 0.0, top))[0]
    s *= inv_scale
    ds *= inv_scale
    if np.any(tail):
        rows = tail[:, 0]
        s[rows] = ds[rows] = np.exp(g[rows] - top[rows])
    h = np.diff(xi)
    trap = s[:, :-1] + s[:, 1:]
    trap *= 0.5 * h
    c = np.zeros_like(s)
    np.cumsum(trap, axis=1, out=c[:, 1:])
    lo, hi = float(xi[0]), float(xi[-1])
    x = c * ((hi - lo) / c[:, -1:])
    x += lo
    np.minimum(x, hi, out=x)
    x[:, -1] = hi
    return x, (ds, h, c, hi - lo)


def monotone_head_backward(cache: tuple, x_grad: np.ndarray) -> np.ndarray:
    """dLoss/dg for monotone_head, given dLoss/dx."""
    ds, h, c, length = cache
    gc = np.array(x_grad, dtype=np.float64)
    gc[:, 0] = 0.0  # both end knots are constants
    gc[:, -1] = 0.0
    cn = c[:, -1:]
    gc *= length / cn
    gc[:, -1] = -np.sum(gc * c, axis=1) / cn[:, 0]
    # trapezoid i feeds every C_j with j > i
    g_term = 0.5 * h * np.cumsum(gc[:, :0:-1], axis=1)[:, ::-1]
    gs = np.zeros_like(ds)
    gs[:, :-1] += g_term
    gs[:, 1:] += g_term
    return gs * ds


@dataclass
class CoordinateNet(DeepOnetModel):
    """A DeepONet whose output along a reference grid is read as a mesh.

    Evaluated on xi_0 < ... < xi_n, the raw output g passes through
    monotone_head, so the predicted knots never fold and always span
    [xi_0, xi_n]. The head has no parameters; on disk the net is a plain
    deeponet bundle inside its radaptive bundle, which records the head.
    """

    def forward(self, inputs, queries):
        return mesh_forward_batch(self, inputs, queries)

    def backward(self, cache, pred_grad):
        return mesh_backward_batch(self, cache, pred_grad)

    def predict(self, inputs, queries):
        """Knots on the grid queries; the head runs over the whole row."""
        q = np.asarray(queries, dtype=np.float64)
        return monotone_head(_predict_chunks(self, inputs, q), q)[0]

    @classmethod
    def wrap(cls, net: DeepOnetModel) -> "CoordinateNet":
        if isinstance(net, cls):
            return net
        return cls(branch=net.branch, trunk=net.trunk, n_basis=net.n_basis,
                   query_lo=net.query_lo, query_hi=net.query_hi)


def mesh_forward_batch(model: CoordinateNet, inputs: np.ndarray,
                       xi: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Mesh knots (N1, len(xi)) of many inputs on the reference grid xi."""
    xi = np.asarray(xi, dtype=np.float64).reshape(-1)
    g, net_cache = deeponet_forward_batch(model, inputs, xi)
    x, head_cache = monotone_head(g, xi)
    return x, (net_cache, head_cache)


def mesh_backward_batch(model: CoordinateNet, cache: tuple, x_grad: np.ndarray):
    """Backprop dLoss/dKnots through the head into branch and trunk."""
    net_cache, head_cache = cache
    return deeponet_backward_batch(model, net_cache,
                                   monotone_head_backward(head_cache, x_grad))


@dataclass
class RAdaptiveSystem:
    """Coordinate net + solution net sharing one uniform computational grid.

    The coordinate net is read through the monotone head on xi_grid, whose
    ends are the physical domain; a plain DeepOnetModel is wrapped as a
    CoordinateNet.
    """

    coord_net: CoordinateNet
    sol_net: DeepOnetModel
    xi_grid: np.ndarray

    kind = "radaptive-system"
    family = "radaptive"

    def __post_init__(self):
        self.xi_grid = np.asarray(self.xi_grid, dtype=np.float64)
        if self.xi_grid.ndim != 1 or self.xi_grid.size < 2:
            raise ValueError("xi_grid must be a 1-d array with >= 2 points")
        if not np.all(np.diff(self.xi_grid) > 0.0):
            raise ValueError("xi_grid must be strictly increasing")
        if self.coord_net.d_query != 1 or self.sol_net.d_query != 1:
            raise ValueError("adaptive system nets take scalar computational coordinates")
        self.coord_net = CoordinateNet.wrap(self.coord_net)

    def _save_parts(self, out: Path, input_encoding: str) -> dict:
        save_bundle(out / "coord", self.coord_net, input_encoding)
        save_bundle(out / "sol", self.sol_net, input_encoding)
        store.write_array(out, "xi_grid", self.xi_grid)
        return {"n_xi_points": int(self.xi_grid.size), "coord_head": COORD_HEAD}

    @classmethod
    def _read_parts(cls, root: Path, manifest: dict) -> dict:
        head = manifest.get("coord_head")
        if head != COORD_HEAD:
            raise ValueError(f"{root}: coordinate head {head!r} unsupported "
                             f"(expected {COORD_HEAD!r})")
        return {"coord_net": load_bundle(root / "coord", DeepOnetModel.kind),
                "sol_net": load_bundle(root / "sol", DeepOnetModel.kind),
                "xi_grid": store.read_array(root, "xi_grid", 1)}


@dataclass
class RAdaptivePrediction:
    """Predicted solution graphs of N inputs over a computational grid xi.

    Row i of knots and values is sample i's graph {(knots[i, j], values[i, j])};
    native_knots[i] is its mesh on the system's own xi_grid. Where xi has
    xi_grid's ends, every row of knots is a mesh that
    reconstruct.monotone_fix accepts: it spans the domain exactly and never
    decreases, though knots may repeat.
    """

    native_knots: np.ndarray
    knots: np.ndarray
    values: np.ndarray


def _rowwise_forward(model: DeepOnetModel, a: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """deeponet_forward_batch's predictions, with the trunk run once for all rows.

    The branch pass and the branch-trunk product run each input row exactly
    as a single-input call runs it: numpy hands a one-row matmul to BLAS gemv
    and a many-row one to gemm, and the two round differently, so a plain
    (N, d) batch would move every prediction by an ulp or so. The rows go in
    as an (N, 1, d) stack instead, so each matmul is one numpy call that
    issues one gemv per row, the same gemv as the one-row call.
    """
    t_out, _ = mlp_forward(model.trunk, model.normalize_queries(queries))
    b_out, _ = mlp_forward(model.branch, a[:, None, :])
    return (b_out @ t_out.T)[:, 0, :]


def radaptive_predict_graph(system: RAdaptiveSystem, inputs: np.ndarray,
                            xi: np.ndarray) -> RAdaptivePrediction:
    """Predict the solution graphs {(y_j, u_j)} of (N, d_in) encoded inputs.

    The mesh knots come from the coordinate net on the system's own xi_grid;
    on the grid xi they are the linear interpolant of those native knots
    (equal to them at xi_grid's points, held at the ends outside it): they
    never decrease and, on a grid with xi_grid's ends, keep its exact ends. The
    solution net is continuous in the computational coordinate and is
    evaluated on xi itself: denser grids sharpen the recovered solution near
    steep features, where the mesh packs many query points.

    A call makes four mlp_forward calls: each trunk runs once, since
    its output does not depend on the input, and each branch once on a stack
    of one-row batches (see _rowwise_forward), so every row is bit-identical
    to a call with that input alone.
    """
    a = _as_2d(inputs, system.coord_net.branch.layer_sizes[0], "inputs")
    g = _rowwise_forward(system.coord_net, a, system.xi_grid)
    native, _ = monotone_head(g, system.xi_grid)
    xi = np.ravel(xi)
    knots = np.stack([np.interp(xi, system.xi_grid, y) for y in native])
    # np.interp can round a knot a few ulps past the next native knot, or
    # past hi, at the end of a steep interval; this undoes it and changes
    # nothing in any other row
    np.minimum(knots, system.xi_grid[-1], out=knots)
    np.maximum.accumulate(knots, axis=1, out=knots)
    values = _rowwise_forward(system.sol_net, a, xi)
    return RAdaptivePrediction(native_knots=native, knots=knots, values=values)


def eval_bytes(n_samples: int, n_grid: int, n_points: int = 0, trunk: tuple = ()) -> int:
    """The peak bytes of evaluating n_samples samples on a dataset grid of
    n_grid points: 24 a sample and grid point (the references, the
    predictions and model_predict's chunks), plus, for the graphs of
    radaptive_predict_graph at n_points xi points, per point 8 a unit of
    the solution trunk's layer sizes (trunk) and 16 for xi and its
    normalized copy, and 9 a sample while the values are built, or 26 a
    sample once knots, values and their differences are all held."""
    graph = n_points * max(8 * (sum(trunk) + 2) + 9 * n_samples, 26 * n_samples)
    return 24 * n_samples * n_grid + graph


# ---------------------------------------------------------------------------
# on-disk bundles: manifest + one .npy file per weight and bias (radonet.store)

_BUNDLE_KINDS = {cls.kind: cls for cls in (DeepOnetModel, RAdaptiveSystem)}


def save_bundle(path, model, input_encoding: str = "", extra: dict | None = None) -> None:
    """Persist a model as a directory: manifest.json plus its nets' arrays."""
    if getattr(model, "kind", None) not in _BUNDLE_KINDS:
        raise TypeError(f"cannot bundle object of type {type(model).__name__}")
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    meta = model._save_parts(out, input_encoding)
    manifest = {
        "format_version": BUNDLE_VERSION,
        "kind": model.kind,
        "input_encoding": input_encoding,
        **meta,
        **(extra or {}),
    }
    store.write_manifest(out, manifest, sort_keys=False)


def load_bundle(path, kind: str | None = None):
    """Re-create a model object from a bundle directory, of this kind if one
    is given; anything malformed raises ValueError naming the file."""
    root = Path(path)
    manifest = store.read_manifest(root, "model bundle", BUNDLE_VERSION, {"kind": str})
    cls = _BUNDLE_KINDS.get(manifest["kind"])
    if cls is None or kind not in (None, cls.kind):
        raise ValueError(f"{root}: bundle kind {manifest['kind']!r} is "
                         f"{'unknown' if cls is None else 'not ' + repr(kind)}")
    parts = cls._read_parts(root, manifest)
    try:
        return cls(**parts)
    except ValueError as exc:  # the parts do not fit together
        raise ValueError(f"{root / 'manifest.json'}: {exc}") from exc
