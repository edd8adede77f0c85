"""Equidistributed mesh construction and training-data preprocessing.

Given a solution sampled on a fine uniform grid, build an arc-length mesh
density, invert its cumulative integral to get the adaptive coordinates
x(xi) on a uniform computational grid, and package the solution-on-mesh
values together with the loss weights used in training.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import store
from .reconstruct import close_periodic, fd_derivative

PREPROCESSED_VERSION = 3

# limit_density_ratio's density cap, in mean densities of one final mesh
# cell, and the width in final cells of its Gaussian smoothing of log(rho)
_CAP_SCALE = 8.0
_SMOOTH_CELLS = 2.0


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
    du = fd_derivative(u, dx, periodic)
    rho = np.sqrt(1.0 + beta * du * du)
    rho = _smooth3(rho, smoothing_passes, periodic)
    return DensityField(values=rho, dx=dx, x0=x0, periodic=periodic)


def _domain_mass(values: np.ndarray, dx: float, periodic: bool) -> float:
    closed = np.append(values, values[0]) if periodic else values
    return float(np.sum(dx * 0.5 * (closed[:-1] + closed[1:])))


def limit_density_ratio(rho: DensityField, n_xi: int,
                        max_log_ratio: float = 0.3) -> DensityField:
    """Regularise the density so the mesh it induces has bounded cell ratios.

    A raw arc-length monitor of a near-discontinuity piles its mass into a
    few fine-grid cells; a knot landing on the edge of such a spike pairs a
    huge rho value with flat-region knot spacing, and the pointwise product
    rho(x_j) * dx/dxi swings wildly even though the cell masses are exactly
    equal. Three steps fix that at the scale of the n_xi-cell mesh:

    1. cap the density at _CAP_SCALE * mass / (n_xi * dx), the largest value
       the mesh can actually resolve (finest spacing ~ the raw grid's);
    2. lift log(rho) wherever it decays faster than max_log_ratio per
       equidistributed cell's worth of mass (two cummax sweeps in mass
       coordinates), so flanks pad out instead of cliff-dropping;
    3. smooth log(rho) along the mass coordinate with a Gaussian of
       _SMOOTH_CELLS cells, rounding the remaining slope kinks.

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
    # two regimes: the ratio bound makes tall peaks infeasible on coarse
    # meshes (climbing log(cap) twice up and twice down costs
    # ~4*log(cap)/max_log_ratio cells), while fine meshes want the cap
    # high so jump cells keep several knots per fine-grid cell
    wanted = _CAP_SCALE * mass0 / (n_xi * rho.dx)
    if n_xi >= 64:
        with np.errstate(over="ignore"):  # past float range, the cap is just wanted
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
    # stable (negative-feedback) fixed point. A periodic field runs the
    # sweeps over three copies and keeps the middle one, [m, 2m): only
    # that copy is computed, the forward sweep seeded with the plain
    # minimum of [0, m) and the backward one run over [m, 3m). Minima are
    # exact, so the values are those of the sweeps over all three copies.
    recip = 1.0 / (np.concatenate([vals, vals, vals]) if rho.periodic else vals)
    xs = rho.dx * np.arange(recip.size)
    lo = m if rho.periodic else 0
    mid = slice(lo, lo + m)

    def density(c):
        cx = c * xs
        fwd = recip[mid] - cx[mid]
        if lo:
            fwd[0] = min(fwd[0], np.min(recip[:lo] - cx[:lo]))
        fwd = cx[mid] + np.minimum.accumulate(fwd)
        bwd = np.minimum.accumulate((recip[lo:] + cx[lo:])[::-1])[::-1][:m] - cx[mid]
        hull = np.minimum(fwd, bwd)
        return np.minimum(np.maximum(1.0 / hull, 1.0), max(2.0, np.max(vals)))

    target = max_log_ratio * n_xi
    mass_cap = _domain_mass(vals, rho.dx, rho.periodic)
    c = target / (2.0 * mass_cap)
    dens = density(c)
    for _ in range(4):
        c = target / _domain_mass(dens, rho.dx, rho.periodic)
        dens = density(c)

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
    sigma_pts = _SMOOTH_CELLS * pts_per_cell
    half = int(np.ceil(4.0 * sigma_pts))
    t = np.arange(-half, half + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (t / sigma_pts) ** 2)
    kernel /= kernel.sum()
    padded = np.concatenate([np.full(half, log_aux[0]), log_aux,
                             np.full(half, log_aux[-1])])
    log_smooth = np.convolve(padded, kernel, mode="valid")
    dens = np.maximum(np.exp(np.interp(mu[mid], mu_aux, log_smooth)), 1.0)

    return DensityField(values=dens, dx=rho.dx, x0=rho.x0, periodic=rho.periodic)


def equidistribute_1d(rho: DensityField, n_xi: int) -> np.ndarray:
    """Invert the cumulative density integral onto n_xi + 1 uniform targets.

    Returns the adaptive knots x(xi_j), strictly increasing, with the
    endpoints pinned exactly to the physical domain ends.
    """
    if n_xi < 1:
        raise ValueError(f"n_xi must be >= 1, got {n_xi}")
    xs, vals = rho.grid(), rho.values
    if rho.periodic:
        xs, vals = close_periodic(xs, vals, rho.dx * vals.size)
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
    with np.errstate(over="ignore"):  # past float range the product is inf, and min gives cap
        return np.minimum(cap, np.sqrt(1.0 + g ** 4 * d * d))


def preprocess_sample(u_values: np.ndarray, domain: tuple[float, float], n_xi: int,
                      m_cap: float = 2.0, mbar_cap: float = 100.0, periodic: bool = False,
                      ratio_limit: float | None = 0.3) -> dict[str, np.ndarray]:
    """Full preprocessing of one raw sample into adaptive training targets.

    u_values sits on a uniform grid over `domain`; for periodic fields the
    right endpoint is excluded (spacing L/m), for bounded fields included
    (spacing L/(m-1)). Returns the sample's row columns, each on the n_xi + 1
    knots of the uniform computational grid over `domain`: the adaptive
    coordinates x, the solution u on them, and the loss weights w_sol and
    w_coord, both taken from the mesh Jacobian. The density is
    density_arclength's at its default smoothing and beta; ratio_limit (None
    disables) bounds the cell-to-cell mesh ratio via limit_density_ratio
    before the mesh is built.
    """
    u = np.asarray(u_values, dtype=np.float64)
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise ValueError(f"empty domain ({lo}, {hi})")
    if u.ndim != 1 or u.size < 3:
        raise ValueError("need a 1-d solution array with >= 3 samples")
    length = hi - lo
    dx = length / u.size if periodic else length / (u.size - 1)
    rho = density_arclength(u, dx, periodic=periodic, x0=lo)
    if ratio_limit is not None:
        rho = limit_density_ratio(rho, n_xi, ratio_limit)
    x = equidistribute_1d(rho, n_xi)
    grid = rho.grid()
    grad_raw = np.abs(fd_derivative(u, dx, periodic))
    if periodic:
        grid, (u, grad_raw) = close_periodic(grid, np.stack([u, grad_raw]), length)
    det_j = fd_derivative(x, length / n_xi)  # dx/dxi
    return {
        "x": x,
        "u": np.interp(x, grid, u),
        "w_sol": weight_solution(det_j, m_cap),
        "w_coord": weight_coordinate(np.interp(x, grid, grad_raw), det_j, mbar_cap),
    }


def preprocess_bytes(n_samples: int, n_xi: int) -> int:
    """The peak bytes of preprocessing n_samples rows at n_xi, summed over
    the two processes of radonet.parallel.split_rows: 4 floats a sample
    and xi point (the four row columns the samples are written into), and
    192 an xi point for the two processes' one-sample temporaries. The
    dataset's fields are not counted, since preprocess reads them one row
    at a time: a row and its temporaries, on the dataset's grid, are far
    below the dataset that datagen held."""
    return 8 * (n_xi + 1) * (4 * n_samples + 192)


def equidistribution_residual(x: np.ndarray, rho: DensityField) -> float:
    """Max relative deviation of rho(x_j) * x_xi from its mean over the mesh.

    x holds the knots of a uniform computational grid. A perfectly
    equidistributed mesh makes rho(x(xi)) * dx/dxi constant; the returned
    number is max_j |r_j - mean| / mean over interior knots, which does not
    depend on the grid's spacing.
    """
    x_xi = fd_derivative(x, 1.0)[1:-1]
    grid, values = rho.grid(), rho.values
    if rho.periodic:
        grid, values = close_periodic(grid, values, rho.dx * values.size)
    rho_at = np.interp(x[1:-1], grid, values)
    r = rho_at * x_xi
    mean = float(np.mean(r))
    if mean <= 0.0:
        raise ValueError("degenerate mesh: non-positive mean equidistribution product")
    return float(np.max(np.abs(r - mean)) / mean)


# ---------------------------------------------------------------------------
# preprocessed sets, stored like datasets


@dataclass
class PreprocessedSet:
    """One split of preprocessed samples of a problem: xi, the computational
    grid, has shape (n_xi + 1,), and each row column shape (N, n_xi + 1)."""

    problem: str
    xi: np.ndarray
    x: np.ndarray
    u: np.ndarray
    w_sol: np.ndarray
    w_coord: np.ndarray

    ROW_COLUMNS = ("x", "u", "w_sol", "w_coord")

    def __post_init__(self):
        shapes = {getattr(self, name).shape for name in self.ROW_COLUMNS}
        if len(shapes) != 1 or self.x.ndim != 2 or self.xi.shape != self.x.shape[1:]:
            raise ValueError(f"xi and row columns must have shapes (K,) and (N, K), "
                             f"got {self.xi.shape} and {sorted(shapes)}")


def save_preprocessed(path, sets: dict[str, PreprocessedSet]) -> None:
    """Write preprocessed splits as a split table (radonet.store): xi.npy,
    one .npy file per split and row column, and a manifest.json."""
    if not sets:
        raise ValueError("no splits to save")
    first = next(iter(sets.values()))
    if any(p.problem != first.problem or not np.array_equal(p.xi, first.xi)
           for p in sets.values()):
        raise ValueError("all splits in a preprocessed set must share xi and problem")
    store.write_splits(Path(path),
                       {"format_version": PREPROCESSED_VERSION, "problem": first.problem},
                       {"xi": first.xi},
                       {split: {name: getattr(p, name) for name in p.ROW_COLUMNS}
                        for split, p in sets.items()})


def load_preprocessed(path, splits=None) -> dict[str, PreprocessedSet]:
    """Re-load the named splits (None: every split) written by
    save_preprocessed, leaving out names it lacks; anything malformed in any
    split, including an array header that claims more data than its file
    holds, raises ValueError."""
    manifest, shared, loaded = store.read_splits(
        Path(path), "preprocessed set", PREPROCESSED_VERSION, {"problem": str},
        {"xi": 1}, dict.fromkeys(PreprocessedSet.ROW_COLUMNS, 2), splits)
    return {split: PreprocessedSet(manifest["problem"], shared["xi"], **cols)
            for split, cols in loaded.items()}
