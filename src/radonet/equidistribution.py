"""Equidistributed mesh construction and training-data preprocessing.

Given a solution sampled on a fine uniform grid, build an arc-length mesh
density, invert its cumulative integral to get the adaptive coordinates
x(xi) on a uniform computational grid, and package the solution-on-mesh
values together with Jacobians and the loss weights used in training.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PREPROCESSED_VERSION = 1


@dataclass
class DensityField:
    """Mesh density sampled on a uniform physical grid starting at x0."""

    values: np.ndarray
    dx: float
    x0: float = 0.0
    periodic: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("density needs a 1-d array with >= 2 values")
        if not np.all(np.isfinite(self.values)) or np.any(self.values <= 0.0):
            raise ValueError("density values must be finite and positive")
        if self.dx <= 0.0:
            raise ValueError(f"dx must be positive, got {self.dx}")

    def grid(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.values.size)


def _derivative(u: np.ndarray, dx: float, periodic: bool) -> np.ndarray:
    """Central differences; periodic wrap or first-order one-sided ends."""
    if periodic:
        return (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dx)
    du = np.empty_like(u)
    du[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
    du[0] = (u[1] - u[0]) / dx
    du[-1] = (u[-1] - u[-2]) / dx
    return du


def _smooth3(values: np.ndarray, passes: int, periodic: bool) -> np.ndarray:
    """Repeated local 3-point averaging; ends average what is available."""
    v = values
    for _ in range(passes):
        if periodic:
            v = (np.roll(v, 1) + v + np.roll(v, -1)) / 3.0
        else:
            out = np.empty_like(v)
            out[1:-1] = (v[:-2] + v[1:-1] + v[2:]) / 3.0
            out[0] = (v[0] + v[1]) / 2.0
            out[-1] = (v[-2] + v[-1]) / 2.0
            v = out
    return v


def density_arclength(u_values: np.ndarray, dx: float, smoothing_passes: int = 2,
                      periodic: bool = False, beta: float = 1.0,
                      x0: float = 0.0) -> DensityField:
    """Arc-length density rho = sqrt(1 + beta * |u'|^2), lightly smoothed.

    Smoothing keeps the cumulative-integral inversion stable near jumps
    without materially moving mass. rho >= 1 everywhere by construction.
    """
    u = np.asarray(u_values, dtype=np.float64)
    if u.ndim != 1 or u.size < 3:
        raise ValueError("need a 1-d solution array with >= 3 samples")
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite solution values")
    if smoothing_passes < 0:
        raise ValueError("smoothing_passes must be >= 0")
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    du = _derivative(u, dx, periodic)
    rho = np.sqrt(1.0 + beta * du * du)
    rho = _smooth3(rho, smoothing_passes, periodic)
    return DensityField(values=rho, dx=dx, x0=x0, periodic=periodic)


def _domain_mass(values: np.ndarray, dx: float, periodic: bool) -> float:
    closed = np.append(values, values[0]) if periodic else values
    return float(np.sum(dx * 0.5 * (closed[:-1] + closed[1:])))


def limit_density_ratio(rho: DensityField, n_xi: int,
                        max_log_ratio: float = 0.3,
                        cap_scale: float = 8.0,
                        smooth_cells: float = 2.0) -> DensityField:
    """Regularise the density so the mesh it induces has bounded cell ratios.

    A raw arc-length monitor of a near-discontinuity piles its mass into a
    few fine-grid cells; a knot landing on the edge of such a spike pairs a
    huge rho value with flat-region knot spacing, and the pointwise product
    rho(x_j) * dx/dxi swings wildly even though the cell masses are exactly
    equal. Three steps fix that at the scale of the n_xi-cell mesh:

    1. cap the density at cap_scale * mass / (n_xi * dx), the largest value
       the mesh can actually resolve (finest spacing ~ the raw grid's);
    2. lift log(rho) wherever it decays faster than max_log_ratio per
       equidistributed cell's worth of mass (two cummax sweeps in mass
       coordinates), so flanks pad out instead of cliff-dropping;
    3. smooth log(rho) along the mass coordinate with a Gaussian of
       smooth_cells cells, rounding the remaining slope kinks.

    Peaks survive (the cap is sized to keep jump cells at fine-grid width),
    so reconstruction accuracy is unaffected; only spike flanks get padded.
    """
    if max_log_ratio <= 0.0:
        raise ValueError(f"max_log_ratio must be positive, got {max_log_ratio}")
    if n_xi < 1:
        raise ValueError(f"n_xi must be >= 1, got {n_xi}")
    vals = rho.values
    m = vals.size

    mass0 = _domain_mass(vals, rho.dx, rho.periodic)
    if cap_scale is not None and cap_scale > 0.0:
        # two regimes: the ratio bound makes tall peaks infeasible on coarse
        # meshes (climbing log(cap) twice up and twice down costs
        # ~4*log(cap)/max_log_ratio cells), while fine meshes want the cap
        # high so jump cells keep several knots per fine-grid cell
        wanted = cap_scale * mass0 / (n_xi * rho.dx)
        if n_xi >= 64:
            feasible = np.exp(0.6 * max_log_ratio * n_xi / 4.0)
            wanted = min(feasible, wanted)
        cap = max(2.0, wanted)
        vals = np.minimum(vals, cap)

    # the bound "log density changes at most max_log_ratio per final cell's
    # worth of mass" is |d log(rho)/d mu| <= lam*n/mass, which in physical
    # space is a Lipschitz condition |d(1/rho)/dx| <= c on the reciprocal
    # density (the local cell-size profile). The reciprocal cone hull is
    # two running-min sweeps; mass decreases as c grows, so the
    # self-consistent c = max_log_ratio * n_xi / mass(c) iteration is a
    # stable (negative-feedback) fixed point.
    recip = 1.0 / (np.concatenate([vals, vals, vals]) if rho.periodic else vals)
    xs = rho.dx * np.arange(recip.size)

    def cone_hull(c):
        fwd = c * xs + np.minimum.accumulate(recip - c * xs)
        bwd = -c * xs + np.minimum.accumulate((recip + c * xs)[::-1])[::-1]
        return np.minimum(fwd, bwd)

    def middle(extended):
        out = extended[m:2 * m] if rho.periodic else extended
        return np.minimum(np.maximum(1.0 / out, 1.0), max(2.0, np.max(vals)))

    target = max_log_ratio * n_xi
    mass_cap = _domain_mass(vals, rho.dx, rho.periodic)
    c = target / (2.0 * mass_cap)
    dens = middle(cone_hull(c))
    for _ in range(4):
        c = target / _domain_mass(dens, rho.dx, rho.periodic)
        dens = middle(cone_hull(c))

    if smooth_cells is not None and smooth_cells > 0.0:
        # the cone hull is piecewise linear; its slope kinks contribute
        # first-order wiggle to the pointwise equidistribution product, so
        # round them by smoothing the log density along the final mass
        # coordinate with a kernel of a few cells
        ext = np.concatenate([dens, dens, dens]) if rho.periodic else dens
        dmu = rho.dx * 0.5 * (ext[:-1] + ext[1:])
        mu = np.concatenate(([0.0], np.cumsum(dmu)))
        cell_mass = _domain_mass(dens, rho.dx, rho.periodic) / n_xi
        pts_per_cell = 6
        n_aux = max(16, int(round((mu[-1] / cell_mass) * pts_per_cell)))
        mu_aux = np.linspace(mu[0], mu[-1], n_aux)
        log_aux = np.interp(mu_aux, mu, np.log(ext))
        sigma_pts = smooth_cells * pts_per_cell
        half = int(np.ceil(4.0 * sigma_pts))
        t = np.arange(-half, half + 1, dtype=np.float64)
        kernel = np.exp(-0.5 * (t / sigma_pts) ** 2)
        kernel /= kernel.sum()
        padded = np.concatenate([np.full(half, log_aux[0]), log_aux,
                                 np.full(half, log_aux[-1])])
        log_smooth = np.convolve(padded, kernel, mode="valid")
        smoothed = np.exp(np.interp(mu, mu_aux, log_smooth))
        out = smoothed[m:2 * m] if rho.periodic else smoothed
        dens = np.maximum(out, 1.0)

    return DensityField(values=dens, dx=rho.dx, x0=rho.x0, periodic=rho.periodic)


def equidistribute_1d(rho: DensityField, n_xi: int) -> np.ndarray:
    """Invert the cumulative density integral onto n_xi + 1 uniform targets.

    Returns the adaptive knots x(xi_j), strictly increasing, with the
    endpoints pinned exactly to the physical domain ends.
    """
    if n_xi < 1:
        raise ValueError(f"n_xi must be >= 1, got {n_xi}")
    if rho.periodic:
        xs = rho.x0 + rho.dx * np.arange(rho.values.size + 1)
        vals = np.append(rho.values, rho.values[0])
    else:
        xs = rho.grid()
        vals = rho.values
    mass = np.concatenate(([0.0], np.cumsum(rho.dx * 0.5 * (vals[:-1] + vals[1:]))))
    targets = np.linspace(0.0, mass[-1], n_xi + 1)
    # The mass of the piecewise-linear density is piecewise quadratic, so
    # each target is inverted exactly inside its cell instead of linearly:
    # solve rho_i*s + (rho_{i+1}-rho_i)*s^2/2 = (target - mass_i)/dx for s
    # in [0, 1], written in the root form that stays stable as the density
    # slope approaches zero.
    cell = np.clip(np.searchsorted(mass, targets, side="right") - 1, 0, vals.size - 2)
    r_lo = vals[cell]
    slope = vals[cell + 1] - r_lo
    c = (targets - mass[cell]) / rho.dx
    s = 2.0 * c / (r_lo + np.sqrt(r_lo * r_lo + 2.0 * slope * c))
    x = xs[cell] + rho.dx * s
    x[0] = xs[0]
    x[-1] = xs[-1]
    if not np.all(np.diff(x) > 0.0):
        raise ValueError(
            f"equidistribution produced a non-increasing mesh (n_xi={n_xi} too "
            f"large for the grid resolution)"
        )
    return x


def jacobian_det_1d(x: np.ndarray, dxi: float) -> np.ndarray:
    """d x / d xi by central differences, first-order one-sided at the ends."""
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim != 1 or xv.size < 2:
        raise ValueError("x must be a 1-d array with >= 2 knots")
    if not np.all(np.diff(xv) > 0.0):
        raise ValueError("adaptive coordinates must be strictly increasing")
    if dxi <= 0.0:
        raise ValueError(f"dxi must be positive, got {dxi}")
    return _derivative(xv, dxi, periodic=False)


def weight_solution(det_j: np.ndarray, cap: float = 2.0) -> np.ndarray:
    """Solution-net loss weight min(cap, sqrt(1 + detJ^2))."""
    if cap < 1.0:
        raise ValueError(f"cap must be >= 1, got {cap}")
    d = np.asarray(det_j, dtype=np.float64)
    return np.minimum(cap, np.sqrt(1.0 + d * d))


def weight_coordinate(grad_u: np.ndarray, det_j: np.ndarray, cap: float = 100.0) -> np.ndarray:
    """Coordinate-net loss weight min(cap, sqrt(1 + |grad u|^4 detJ^2)).

    Large where the solution is steep, so the coordinate net spends its
    capacity placing mesh points around singularities.
    """
    if cap < 1.0:
        raise ValueError(f"cap must be >= 1, got {cap}")
    g = np.asarray(grad_u, dtype=np.float64)
    d = np.asarray(det_j, dtype=np.float64)
    return np.minimum(cap, np.sqrt(1.0 + g ** 4 * d * d))


@dataclass
class AdaptiveSample:
    """One preprocessed training sample on the computational grid."""

    xi: np.ndarray
    x: np.ndarray
    u: np.ndarray
    det_j: np.ndarray
    w_sol: np.ndarray
    w_coord: np.ndarray

    def __post_init__(self):
        arrays = (self.xi, self.x, self.u, self.det_j, self.w_sol, self.w_coord)
        sizes = {np.asarray(a).shape for a in arrays}
        if len(sizes) != 1:
            raise ValueError(f"inconsistent column shapes: {sizes}")


def _interp_periodic_aware(x_query, grid, values, periodic, domain_hi):
    if periodic:
        grid = np.append(grid, domain_hi)
        values = np.append(values, values[0])
    return np.interp(x_query, grid, values)


def preprocess_sample(u_values: np.ndarray, domain: tuple[float, float], n_xi: int,
                      m_cap: float = 2.0, mbar_cap: float = 100.0,
                      smoothing_passes: int = 2, periodic: bool = False,
                      beta: float = 1.0,
                      ratio_limit: float | None = 0.3) -> AdaptiveSample:
    """Full preprocessing of one raw sample into adaptive training targets.

    u_values sits on a uniform grid over `domain`; for periodic fields the
    right endpoint is excluded (spacing L/m), for bounded fields included
    (spacing L/(m-1)). Produces the adaptive coordinates, the solution on
    the adaptive mesh, the mesh Jacobian and both loss weights. ratio_limit
    (None disables) bounds the cell-to-cell mesh ratio via
    limit_density_ratio before the mesh is built.
    """
    u = np.asarray(u_values, dtype=np.float64)
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise ValueError(f"empty domain ({lo}, {hi})")
    if u.ndim != 1 or u.size < 3:
        raise ValueError("need a 1-d solution array with >= 3 samples")
    length = hi - lo
    dx = length / u.size if periodic else length / (u.size - 1)
    rho = density_arclength(u, dx, smoothing_passes=smoothing_passes,
                            periodic=periodic, beta=beta, x0=lo)
    if ratio_limit is not None:
        rho = limit_density_ratio(rho, n_xi, ratio_limit)
    x = equidistribute_1d(rho, n_xi)
    xi = np.linspace(lo, hi, n_xi + 1)
    dxi = length / n_xi
    grid = rho.grid()
    u_tilde = _interp_periodic_aware(x, grid, u, periodic, hi)
    det_j = jacobian_det_1d(x, dxi)
    grad_raw = np.abs(_derivative(u, dx, periodic))
    grad_at_knots = _interp_periodic_aware(x, grid, grad_raw, periodic, hi)
    return AdaptiveSample(
        xi=xi,
        x=x,
        u=u_tilde,
        det_j=det_j,
        w_sol=weight_solution(det_j, m_cap),
        w_coord=weight_coordinate(grad_at_knots, det_j, mbar_cap),
    )


def preprocess_spacetime(u_xt: np.ndarray, domain: tuple[float, float], n_xi: int,
                         m_cap: float = 2.0, mbar_cap: float = 100.0,
                         smoothing_passes: int = 2, periodic: bool = False,
                         beta: float = 1.0,
                         ratio_limit: float | None = 0.3) -> list[AdaptiveSample]:
    """Preprocess a space-time field slice by slice in the spatial direction.

    Time is left uniform (transport fields are smooth in t); each row of
    u_xt (shape (n_t, n_x)) gets its own spatial equidistribution on a
    shared computational grid.
    """
    u = np.asarray(u_xt, dtype=np.float64)
    if u.ndim != 2:
        raise ValueError(f"expected a (n_t, n_x) field, got shape {u.shape}")
    return [
        preprocess_sample(u[i], domain, n_xi, m_cap=m_cap, mbar_cap=mbar_cap,
                          smoothing_passes=smoothing_passes, periodic=periodic,
                          beta=beta, ratio_limit=ratio_limit)
        for i in range(u.shape[0])
    ]


def equidistribution_residual(sample: AdaptiveSample, rho: DensityField) -> float:
    """Max relative deviation of rho(x_j) * x_xi from its mean over the mesh.

    A perfectly equidistributed mesh makes rho(x(xi)) * dx/dxi constant; the
    returned number is max_j |r_j - mean| / mean over interior knots.
    """
    x = sample.x
    dxi = sample.xi[1] - sample.xi[0]
    x_xi = (x[2:] - x[:-2]) / (2.0 * dxi)
    rho_at = _interp_periodic_aware(
        x[1:-1], rho.grid(), rho.values, rho.periodic,
        rho.x0 + rho.dx * rho.values.size)
    r = rho_at * x_xi
    mean = float(np.mean(r))
    if mean <= 0.0:
        raise ValueError("degenerate mesh: non-positive mean equidistribution product")
    return float(np.max(np.abs(r - mean)) / mean)


# ---------------------------------------------------------------------------
# columnar container for preprocessed datasets


@dataclass
class PreprocessedSet:
    """Stacked preprocessed samples plus provenance metadata.

    Columns have shape (N, n_xi + 1) for single-time problems or
    (N, n_t, n_xi + 1) for space-time ones. sample_ids index into the raw
    dataset split this set was derived from.
    """

    xi: np.ndarray
    x: np.ndarray
    u: np.ndarray
    det_j: np.ndarray
    w_sol: np.ndarray
    w_coord: np.ndarray
    sample_ids: np.ndarray
    meta: dict = field(default_factory=dict)

    _FLOAT_COLUMNS = ("xi", "x", "u", "det_j", "w_sol", "w_coord")

    def __post_init__(self):
        for name in self._FLOAT_COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        self.sample_ids = np.asarray(self.sample_ids, dtype=np.int64)
        if self.x.ndim < 2:
            raise ValueError(f"x must have a sample axis and a knot axis, got shape {self.x.shape}")
        n = self.x.shape[0]
        for name in ("u", "det_j", "w_sol", "w_coord"):
            if getattr(self, name).shape != self.x.shape:
                raise ValueError(f"column {name} shape {getattr(self, name).shape} "
                                 f"!= x shape {self.x.shape}")
        if self.sample_ids.shape != (n,):
            raise ValueError("sample_ids must have one entry per sample")
        if self.xi.shape != (self.x.shape[-1],):
            raise ValueError("xi length must match the knot dimension of x")

    @classmethod
    def from_samples(cls, samples: list[AdaptiveSample], sample_ids=None,
                     meta: dict | None = None) -> "PreprocessedSet":
        if not samples:
            raise ValueError("no samples to stack")
        ids = np.arange(len(samples)) if sample_ids is None else np.asarray(sample_ids)
        return cls(
            xi=samples[0].xi,
            x=np.stack([s.x for s in samples]),
            u=np.stack([s.u for s in samples]),
            det_j=np.stack([s.det_j for s in samples]),
            w_sol=np.stack([s.w_sol for s in samples]),
            w_coord=np.stack([s.w_coord for s in samples]),
            sample_ids=ids,
            meta=dict(meta or {}),
        )


# the container's columns, in file order, with their on-disk dtypes
_COLUMN_DTYPES = {**{name: "<f8" for name in PreprocessedSet._FLOAT_COLUMNS},
                  "sample_ids": "<i8"}


def save_preprocessed(path, pset: PreprocessedSet) -> None:
    """Write a preprocessed set as a JSON header line + raw column bytes."""
    columns = []
    buffers = []
    for name, dtype in _COLUMN_DTYPES.items():
        arr = getattr(pset, name)
        buf = np.ascontiguousarray(arr, dtype=dtype)
        columns.append({"name": name, "shape": list(arr.shape), "dtype": dtype})
        buffers.append(buf.tobytes())
    header = {
        "format": "radonet-preprocessed",
        "format_version": PREPROCESSED_VERSION,
        "columns": columns,
        "meta": pset.meta,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for buf in buffers:
            fh.write(buf)


def _column_specs(path, columns) -> list[tuple[str, tuple[int, ...], np.dtype]]:
    """(name, shape, dtype) of each column a container header lists."""
    if not isinstance(columns, list):
        raise ValueError(f"{path}: header columns must be a list")
    specs = []
    for col in columns:
        name = col.get("name") if isinstance(col, dict) else None
        if not isinstance(name, str) or name not in _COLUMN_DTYPES \
                or any(name == seen for seen, _, _ in specs):
            raise ValueError(f"{path}: unknown or repeated column {name!r}")
        if col.get("dtype") != _COLUMN_DTYPES[name]:
            raise ValueError(f"{path}: column {name} has dtype {col.get('dtype')!r}, "
                             f"expected {_COLUMN_DTYPES[name]!r}")
        shape = col.get("shape")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"{path}: column {name} shape {shape!r} is not a list of "
                             "non-negative sizes")
        specs.append((name, tuple(shape), np.dtype(_COLUMN_DTYPES[name])))
    if len(specs) != len(_COLUMN_DTYPES):
        missing = sorted(set(_COLUMN_DTYPES) - {name for name, _, _ in specs})
        raise ValueError(f"{path}: missing columns {missing}")
    return specs


def load_preprocessed(path) -> PreprocessedSet:
    """Read a container written by save_preprocessed, validating the header.

    Anything malformed raises ValueError. The header must list every column
    once, with the dtype save_preprocessed writes and non-negative sizes,
    and the columns it describes must fill the rest of the file exactly;
    that is checked before any column is read, so a corrupt header cannot
    ask for more memory than the file holds.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{path}: not a preprocessed container ({exc})") from exc
        if not isinstance(header, dict) or header.get("format") != "radonet-preprocessed":
            raise ValueError(f"{path}: not a preprocessed container (no radonet format tag)")
        if header.get("format_version") != PREPROCESSED_VERSION:
            raise ValueError(
                f"{path}: container version {header.get('format_version')!r} unsupported"
            )
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: header meta must be an object")
        specs = _column_specs(path, header.get("columns"))
        need = sum(math.prod(shape) * dtype.itemsize for _, shape, dtype in specs)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if need != left:
            raise ValueError(f"{path}: header describes {need} bytes of columns but "
                             f"{left} bytes follow it")
        data = {name: np.frombuffer(fh.read(math.prod(shape) * dtype.itemsize),
                                    dtype=dtype).reshape(shape).copy()
                for name, shape, dtype in specs}
    return PreprocessedSet(meta=meta, **data)
