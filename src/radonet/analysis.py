"""Spectral and approximation-rate diagnostics.

Two families of tools live here. The first handles covariance spectra of
function datasets and the tail sums that lower-bound any fixed-basis
reconstruction. The second builds the closed-form adaptive interpolant of a
mollified box wave and measures interpolation errors exactly, so convergence
rates can be fit without quadrature noise: every curve involved is piecewise
linear, and the squared difference of two piecewise-linear functions is
piecewise quadratic, which a per-segment Simpson rule integrates exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# piecewise-linear functions with jump support


@dataclass
class PiecewiseLinear:
    """Breakpoints and values; a repeated breakpoint encodes a jump."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.breakpoints.ndim != 1 or self.breakpoints.shape != self.values.shape:
            raise ValueError("breakpoints and values must be matching 1-d arrays")
        if self.breakpoints.size < 2:
            raise ValueError("need at least two breakpoints")
        if not (np.all(np.isfinite(self.breakpoints)) and np.all(np.isfinite(self.values))):
            raise ValueError("breakpoints and values must be finite")
        if np.any(np.diff(self.breakpoints) < 0):
            raise ValueError("breakpoints must be sorted")
        if self.breakpoints[-1] <= self.breakpoints[0]:
            raise ValueError("domain must have positive length")

    @property
    def domain(self):
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def eval(self, queries) -> np.ndarray:
        """Pointwise evaluation; only defined for continuous functions."""
        if np.any(np.diff(self.breakpoints) == 0.0):
            raise ValueError("eval is ambiguous on a function with jumps")
        return np.interp(np.asarray(queries, dtype=np.float64),
                         self.breakpoints, self.values)


def _segments(f: PiecewiseLinear):
    """Positive-length segments as (lo, hi, value_lo, value_hi) arrays."""
    t, v = f.breakpoints, f.values
    keep = np.diff(t) > 0.0
    return t[:-1][keep], t[1:][keep], v[:-1][keep], v[1:][keep]


def pl_l2_diff(f: PiecewiseLinear, g: PiecewiseLinear) -> float:
    """Exact L2 norm of f - g over their (identical) domain.

    Works on the union of both breakpoint sets; within each union segment
    both functions are linear (one-sided values at jumps taken from inside
    the segment), so Simpson on the segment integrates (f-g)^2 exactly.
    """
    if f.domain != g.domain:
        raise ValueError(f"domain mismatch: {f.domain} vs {g.domain}")
    cuts = np.union1d(f.breakpoints, g.breakpoints)
    lo, hi = cuts[:-1], cuts[1:]
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    mid = 0.5 * (lo + hi)

    def on_segments(fun):
        s_lo, s_hi, v_lo, v_hi = _segments(fun)
        idx = np.searchsorted(s_lo, mid, side="right") - 1
        width = s_hi[idx] - s_lo[idx]
        slope = (v_hi[idx] - v_lo[idx]) / width
        at = lambda q: v_lo[idx] + slope * (q - s_lo[idx])
        return at(lo), at(mid), at(hi)

    fa, fm, fb = on_segments(f)
    ga, gm, gb = on_segments(g)
    da, dm, db = fa - ga, fm - gm, fb - gb
    total = np.sum((hi - lo) / 6.0 * (da * da + 4.0 * dm * dm + db * db))
    return float(math.sqrt(total))


# ---------------------------------------------------------------------------
# box-wave constructions on [-pi, pi]


def _check_box_args(delta: float, shift: float):
    if not 0.0 < delta < math.pi / 2:
        raise ValueError(f"ramp width delta must lie in (0, pi/2), got {delta}")
    if abs(shift) >= math.pi / 2 - delta / 2:
        raise ValueError(f"shift {shift} pushes the ramps outside the domain")


def sharp_box(shift: float = 0.0) -> PiecewiseLinear:
    """Discontinuous unit box of width pi centered at `shift` on [-pi, pi]."""
    e1, e2 = shift - math.pi / 2, shift + math.pi / 2
    return PiecewiseLinear([-math.pi, e1, e1, e2, e2, math.pi],
                           [0.0, 0.0, 1.0, 1.0, 0.0, 0.0])


def box_samples(x: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """Sharp box sampled pointwise (closed-interval convention at edges)."""
    return np.where(np.abs(np.asarray(x) - shift) <= math.pi / 2, 1.0, 0.0)


def mollified_box(delta: float, shift: float = 0.0) -> PiecewiseLinear:
    """Unit box with the two jumps replaced by linear ramps of width delta."""
    _check_box_args(delta, shift)
    e1, e2 = shift - math.pi / 2, shift + math.pi / 2
    return PiecewiseLinear(
        [-math.pi, e1 - delta / 2, e1 + delta / 2, e2 - delta / 2, e2 + delta / 2, math.pi],
        [0.0, 0.0, 1.0, 1.0, 0.0, 0.0])


def equidistributed_box_map(delta: float, shift: float = 0.0):
    """Closed-form arc-length-equidistributing map for the ramped box.

    Uses the density value (pi - delta)/delta on the ramps and 1 elsewhere,
    which makes total mass 4(pi - delta) regardless of shift. Returns the
    coordinate map x(xi) and the pulled-back profile u(x(xi)), both exactly
    piecewise linear on the reference domain [-pi, pi]. For a centered box
    the map's slopes are 2 - 2*delta/pi off-ramp and 2*delta/pi on-ramp,
    with kinks at -3pi/4, -pi/4, pi/4, 3pi/4 independent of delta.
    """
    _check_box_args(delta, shift)
    e1, e2 = shift - math.pi / 2, shift + math.pi / 2
    x_pts = np.array([-math.pi, e1 - delta / 2, e1 + delta / 2,
                      e2 - delta / 2, e2 + delta / 2, math.pi])
    rho_ramp = (math.pi - delta) / delta
    seg_rho = np.array([1.0, rho_ramp, 1.0, rho_ramp, 1.0])
    mass = np.concatenate([[0.0], np.cumsum(np.diff(x_pts) * seg_rho)])
    xi_pts = -math.pi + 2.0 * math.pi * mass / mass[-1]
    coord_map = PiecewiseLinear(xi_pts, x_pts)
    profile = PiecewiseLinear(xi_pts, [0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    return coord_map, profile


@dataclass
class AdaptiveBoxFit:
    """n-knot adaptive interpolant of a ramped box and its exact error."""

    x_knots: np.ndarray
    error: float


def adaptive_box_construct(delta: float, n: int, shift: float = 0.0) -> AdaptiveBoxFit:
    """Interpolate the equidistributed map and profile at n+1 uniform knots.

    The returned error is the exact L2 distance between the resulting graph
    (a piecewise-linear function of x) and the sharp box, so it combines the
    ramp-smoothing contribution with the interpolation contribution.
    """
    if n < 8:
        raise ValueError(f"need n >= 8 knots, got {n}")
    coord_map, profile = equidistributed_box_map(delta, shift)
    xi = np.linspace(-math.pi, math.pi, n + 1)
    x_knots = coord_map.eval(xi)
    u_knots = profile.eval(xi)
    err = pl_l2_diff(PiecewiseLinear(x_knots, u_knots), sharp_box(shift))
    return AdaptiveBoxFit(x_knots, err)


def fem_uniform_interp_error(u_fine: np.ndarray, n: int, domain=(0.0, 1.0)) -> float:
    """L2 error of piecewise-linear interpolation on a uniform n-interval mesh.

    u_fine samples the target on an inclusive uniform grid over `domain`;
    the error is integrated on that grid by the trapezoid rule, so the fine
    grid has to be much denser than the mesh under test.
    """
    u_fine = np.asarray(u_fine, dtype=np.float64)
    if u_fine.ndim != 1 or u_fine.size < 2:
        raise ValueError("u_fine must be a 1-d array of at least two samples")
    if n < 2:
        raise ValueError(f"need n >= 2 mesh intervals, got {n}")
    lo, hi = float(domain[0]), float(domain[1])
    x_fine = np.linspace(lo, hi, u_fine.size)
    knots = np.linspace(lo, hi, n + 1)
    interp = np.interp(x_fine, knots, np.interp(knots, x_fine, u_fine))
    res = u_fine - interp
    return float(math.sqrt(np.trapezoid(res * res, x_fine)))


def fem_rate_bytes(fine_points: int, n: int) -> int:
    """The peak bytes of fem_uniform_interp_error at n intervals on
    fine_points samples, with box_samples' target: 7 floats a fine point
    and 2 a knot."""
    return 8 * (7 * fine_points + 2 * (n + 1))


def adaptive_rate_bytes(n: int) -> int:
    """The peak bytes of adaptive_box_construct at n: 20 floats a knot."""
    return 8 * 20 * (n + 1)


# ---------------------------------------------------------------------------
# covariance spectra and rate fits


@dataclass
class SpectrumReport:
    """Descending eigenvalues of a dataset's empirical covariance."""

    eigenvalues: np.ndarray
    tag: str = ""
    n_grid: int = 0

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        if self.eigenvalues.ndim != 1 or self.eigenvalues.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d array")
        if np.any(self.eigenvalues < -1e-12):
            raise ValueError("eigenvalues must be nonnegative")
        if np.any(np.diff(self.eigenvalues) > 1e-12):
            raise ValueError("eigenvalues must be nonincreasing")


def covariance_spectrum(samples: np.ndarray, dx: float, tag: str = "") -> SpectrumReport:
    """Eigenvalues of the uncentered second-moment operator of a dataset.

    samples is (n_samples, n_grid); the spectrum is that of (1/N) X^T X
    weighted by the grid spacing dx, computed through singular values so no
    n_grid x n_grid matrix is ever formed. No mean is subtracted.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2 or samples.shape[1] < 2:
        raise ValueError(f"need a 2-d dataset with >= 2 samples, got {samples.shape}")
    if dx <= 0:
        raise ValueError(f"grid weight dx must be positive, got {dx}")
    s = np.linalg.svd(samples / math.sqrt(samples.shape[0]), compute_uv=False)
    return SpectrumReport(s * s * dx, tag=tag, n_grid=samples.shape[1])


def optimal_error_tail(report: SpectrumReport, n: int) -> float:
    """sqrt of the eigenvalue tail beyond the first n modes.

    This is the smallest error any reconstruction confined to a fixed
    n-dimensional span can average over the dataset.
    """
    if n < 0:
        raise ValueError(f"mode count must be >= 0, got {n}")
    return float(math.sqrt(max(np.sum(report.eigenvalues[n:]), 0.0)))


@dataclass
class RateFit:
    slope: float = 0.0
    intercept: float = 0.0
    residual: float = 0.0


def rate_fit(ns, errors) -> RateFit:
    """Least-squares slope of log(error) against log(n)."""
    ns = np.asarray(ns, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if ns.shape != errors.shape or ns.ndim != 1 or ns.size < 3:
        raise ValueError("need >= 3 matching (n, error) pairs")
    if np.any(ns <= 0) or np.any(errors <= 0):
        raise ValueError("rate fits need strictly positive sizes and errors")
    if np.any(np.diff(ns) <= 0):
        raise ValueError("sizes must be strictly increasing")
    log_n, log_e = np.log(ns), np.log(errors)
    slope, intercept = np.polyfit(log_n, log_e, 1)
    resid = log_e - (slope * log_n + intercept)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   residual=float(math.sqrt(np.mean(resid * resid))))
