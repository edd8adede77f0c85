"""Recover solutions on uniform grids from predicted graph knots, once they
are checked to form a mesh, and the grid helpers every stage shares: the one
finite-difference stencil and the one periodic closure."""

from __future__ import annotations

import numpy as np

# samples rel_l2_error takes at a time
ERROR_ROWS = 32


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
    """Check that predicted knots are a mesh of domain, and return them.

    A mesh is a 1-d array of >= 2 knots that starts at lo, ends at hi and
    never decreases, so every knot is finite. Equal knots are allowed: a
    repeated knot is a jump, which np.interp takes as one. The monotone head
    and radaptive_predict_graph build every mesh this way, so anything else
    is a fault upstream and raises ValueError. A valid mesh comes back as the
    same array.
    """
    y = np.asarray(knots, dtype=np.float64)
    lo, hi = domain
    if y.ndim != 1 or y.size < 2:
        raise ValueError(f"knots must be a 1-d array with >= 2 entries, got shape {y.shape}")
    if not (y[0] == lo and y[-1] == hi and np.all(np.diff(y) >= 0.0)):
        raise ValueError(f"knots must run from {lo} to {hi} without decreasing")
    return y


def recover_uniform(knots: np.ndarray, values: np.ndarray, target_grid: np.ndarray,
                    domain: tuple[float, float]) -> np.ndarray:
    """Turn a predicted graph {(knots[j], values[j])} into values on a grid.

    Checks the knots with monotone_fix, then interpolates linearly; a
    repeated knot is a jump, and queries outside the domain take the end
    values.
    """
    x, q = monotone_fix(knots, domain), np.asarray(target_grid)
    out = np.asarray(np.interp(q, x, values))
    bad = ~np.isfinite(out)  # np.interp's slope overflowed: widen the cell by an exact 2^600
    out[bad] = np.interp(q[bad] * 2.0 ** 600, x * 2.0 ** 600, values)
    return out


def rel_l2_error(predictions: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Each sample's ||pred - ref|| / ||ref|| in the discrete RMS norm.

    Accepts (n_samples, ...) arrays; each sample's field is flattened. A
    reference with zero norm is rejected. The samples are taken ERROR_ROWS
    at a time, so the temporaries do not grow with the split; each row's
    arithmetic is that of the whole array, to the bit.
    """
    pred = np.asarray(predictions, dtype=np.float64)
    ref = np.asarray(references, dtype=np.float64)
    if pred.shape != ref.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {ref.shape}")
    if pred.ndim < 2:
        raise ValueError("expected (n_samples, ...) arrays")
    p = pred.reshape(pred.shape[0], -1)
    r = ref.reshape(ref.shape[0], -1)
    n = p.shape[1]
    out = np.empty(len(p))
    # np.mean(..., axis=1) to the bit, without its Python wrapper's cost
    for start in range(0, len(p), ERROR_ROWS):
        rows = slice(start, start + ERROR_ROWS)
        ref_norm = np.sqrt(np.add.reduce(r[rows] * r[rows], axis=1) / n)
        if not ref_norm.all():
            raise ValueError("reference sample with zero norm")
        out[rows] = np.sqrt(np.add.reduce((p[rows] - r[rows]) ** 2, axis=1) / n) / ref_norm
    return out
