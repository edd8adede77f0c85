"""Viscous Burgers solver: Fourier pseudospectral + ETDRK4 time stepping.

Exponential-integrator coefficients are evaluated with the contour-integral
averaging of Kassam & Trefethen (32 points on a unit circle around each
h * lambda), which stays accurate for the small |h * lambda| modes. The
quadratic term is dealiased with the 2/3 rule.
"""

from __future__ import annotations

import numpy as np

_CHECK_EVERY = 200  # steps between finiteness checks of the spectral solution


def _etdrk4_coeffs(lin: np.ndarray, dt: float, n_contour: int = 32):
    """E, E2 and the four phi-weights for step size dt on eigenvalues lin."""
    e_full = np.exp(dt * lin)
    e_half = np.exp(0.5 * dt * lin)
    r = np.exp(1j * np.pi * (np.arange(n_contour) + 0.5) / n_contour)
    lr = dt * lin[:, None] + r[None, :]
    q = dt * np.real(np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1))
    f1 = dt * np.real(np.mean(
        (-4.0 - lr + np.exp(lr) * (4.0 - 3.0 * lr + lr ** 2)) / lr ** 3, axis=1))
    f2 = dt * np.real(np.mean(
        (2.0 + lr + np.exp(lr) * (-2.0 + lr)) / lr ** 3, axis=1))
    f3 = dt * np.real(np.mean(
        (-4.0 - 3.0 * lr - lr ** 2 + np.exp(lr) * (4.0 - lr)) / lr ** 3, axis=1))
    return e_full, e_half, q, f1, f2, f3


def burgers_solve(u0: np.ndarray, nu: float, final_time: float, dt: float = 1e-4,
                  nonlinear: bool = True):
    """Integrate u_t + u u_x = nu u_xx on the periodic unit interval.

    u0 holds values on the uniform grid {j / n} and may be batched with
    shape (batch, n); all fields then advance together through batched FFTs.
    Returns the field at final_time, shaped like u0.
    Setting nonlinear=False drops the advection term, leaving the exactly
    integrated heat equation (used to validate the integrator).
    """
    u = np.asarray(u0, dtype=np.float64)
    squeeze = u.ndim == 1
    if squeeze:
        u = u[None, :]
    if u.ndim != 2 or u.shape[1] < 8:
        raise ValueError(f"u0 must be (n,) or (batch, n) with n >= 8, got {np.shape(u0)}")
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite initial data")
    if nu <= 0.0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    if dt <= 0.0 or final_time < 0.0:
        raise ValueError(f"bad time parameters dt={dt}, final_time={final_time}")
    n_steps = int(round(final_time / dt))
    if abs(n_steps * dt - final_time) > 1e-9 * max(1.0, final_time):
        raise ValueError(f"final_time {final_time} is not a multiple of dt {dt}")

    n = u.shape[1]
    k = 2.0 * np.pi * np.arange(n // 2 + 1)
    lin = -nu * k ** 2
    mask = np.arange(n // 2 + 1) <= n // 3
    e_full, e_half, q, f1, f2, f3 = _etdrk4_coeffs(lin, dt)

    def nonlin(spec):
        if not nonlinear:
            return 0.0
        field = np.fft.irfft(spec, n=n, axis=-1)
        return mask * (-0.5j * k) * np.fft.rfft(field * field, axis=-1)

    v = mask * np.fft.rfft(u, axis=-1)

    for step in range(1, n_steps + 1):
        nv = nonlin(v)
        a = e_half * v + q * nv
        na = nonlin(a)
        b = e_half * v + q * na
        nb = nonlin(b)
        c = e_half * a + q * (2.0 * nb - nv)
        nc = nonlin(c)
        v = e_full * v + f1 * nv + 2.0 * f2 * (na + nb) + f3 * nc
        if step % _CHECK_EVERY == 0 and not np.all(np.isfinite(v)):
            raise RuntimeError(
                f"spectral solution lost finiteness near t={step * dt:.6g} "
                f"(nu={nu}, n={n}); refine dt or resolution"
            )

    if not np.all(np.isfinite(v)):
        raise RuntimeError(f"spectral solution lost finiteness by t={final_time}")
    out = np.fft.irfft(v, n=n, axis=-1)
    return out[0] if squeeze else out
