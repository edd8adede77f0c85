"""Recover solutions on uniform grids from predicted graph knots, and the
grid helpers every stage shares: the one finite-difference stencil and the
one periodic closure."""

from __future__ import annotations

import numpy as np


def fd_derivative(u: np.ndarray, dx: float, periodic: bool = False) -> np.ndarray:
    """Derivative along the last axis of samples spaced dx apart.

    Central differences inside; periodic wrap, or first-order one-sided
    differences at both ends.
    """
    if periodic:
        return (np.roll(u, -1, axis=-1) - np.roll(u, 1, axis=-1)) / (2.0 * dx)
    du = np.empty_like(u)
    du[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dx)
    du[..., 0] = (u[..., 1] - u[..., 0]) / dx
    du[..., -1] = (u[..., -1] - u[..., -2]) / dx
    return du


def close_periodic(grid: np.ndarray, values: np.ndarray, length: float):
    """A periodic table closed by its wrap point: grid plus grid[0] + length,
    values (one field, or one per row) plus their first column. Plain np.interp
    on it equals np.interp(period=length), to the bit when grid[0] is 0 (period=
    reduces queries modulo the period), without re-sorting the grid per call."""
    return np.append(grid, grid[0] + length), np.concatenate([values, values[..., :1]], axis=-1)


def monotone_fix(knots: np.ndarray, domain: tuple[float, float]) -> np.ndarray:
    """Repair a predicted coordinate array into a strictly increasing mesh.

    Endpoints are pinned to the domain ends; interior knots are clipped to the
    domain and pushed apart by a cumulative-max sweep with a minimal separation
    eps = 1e-9 * domain length. Already valid input comes back unchanged.
    """
    y = np.asarray(knots, dtype=np.float64)
    lo, hi = float(domain[0]), float(domain[1])
    if y.ndim != 1 or y.size < 2:
        raise ValueError(f"knots must be a 1-d array with >= 2 entries, got shape {y.shape}")
    if not hi > lo:
        raise ValueError(f"empty domain ({lo}, {hi})")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite knot coordinates")
    if y[0] == lo and y[-1] == hi and np.all(np.diff(y) > 0.0):
        return y
    eps = 1e-9 * (hi - lo)
    z = np.clip(y, lo, hi)
    z[0] = lo
    z[-1] = hi
    for i in range(1, z.size):
        if z[i] <= z[i - 1]:
            z[i] = z[i - 1] + eps
    # if the forward sweep overshot the right endpoint, sweep back down
    z[-1] = hi
    for i in range(z.size - 2, 0, -1):
        if z[i] >= z[i + 1]:
            z[i] = z[i + 1] - eps
    if not np.all(np.diff(z) > 0.0):
        raise ValueError("could not build a strictly increasing mesh (grid too large for eps)")
    return z


def recover_uniform(knots: np.ndarray, values: np.ndarray, target_grid: np.ndarray,
                    domain: tuple[float, float]) -> np.ndarray:
    """Turn a predicted graph {(knots[j], values[j])} into values on a grid.

    Applies monotone_fix to the knots, then interpolates linearly; queries
    outside the domain take the end values.
    """
    return np.interp(target_grid, monotone_fix(knots, domain), values)


def rel_l2_error(predictions: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Each sample's ||pred - ref|| / ||ref|| in the discrete RMS norm.

    Accepts (n_samples, ...) arrays; each sample's field is flattened. A
    reference with zero norm is rejected.
    """
    pred = np.asarray(predictions, dtype=np.float64)
    ref = np.asarray(references, dtype=np.float64)
    if pred.shape != ref.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {ref.shape}")
    if pred.ndim < 2:
        raise ValueError("expected (n_samples, ...) arrays")
    p = pred.reshape(pred.shape[0], -1)
    r = ref.reshape(ref.shape[0], -1)
    ref_norm = np.sqrt(np.mean(r * r, axis=1))
    if np.any(ref_norm == 0.0):
        raise ValueError("reference sample with zero norm")
    err_norm = np.sqrt(np.mean((p - r) ** 2, axis=1))
    return err_norm / ref_norm
