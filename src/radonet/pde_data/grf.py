"""Periodic Gaussian random fields on [0, 1] with power-law spectra.

Fields are drawn in the real orthonormal Fourier basis
{1, sqrt(2) cos(2 pi k x), sqrt(2) sin(2 pi k x)} with mode standard
deviations sigma_k = amplitude (omega_k^2 + tau^2)^(-exponent/2), where
amplitude 25, tau 5 and exponent 4 are constants (the Burgers prior). The
`convention` flag picks omega_k = 2 pi k ("angular", the default) or
omega_k = k ("integer"); the choice is recorded in dataset manifests since
it controls how rough the sampled fields are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CONVENTIONS = ("angular", "integer")
_AMPLITUDE, _TAU, _EXPONENT = 25.0, 5.0, 4.0


def grf_mode_std(k: np.ndarray, convention: str = "angular") -> np.ndarray:
    """Standard deviation of Fourier mode k."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}, expected one of {_CONVENTIONS}")
    kv = np.asarray(k, dtype=np.float64)
    omega = 2.0 * np.pi * kv if convention == "angular" else kv
    return _AMPLITUDE * (omega ** 2 + _TAU ** 2) ** (-_EXPONENT / 2.0)


@dataclass
class GrfCoefficients:
    """One draw: mean coefficient plus cos/sin coefficients for k = 1..K."""

    mean: float
    cos: np.ndarray
    sin: np.ndarray

    def __post_init__(self):
        self.cos = np.asarray(self.cos, dtype=np.float64)
        self.sin = np.asarray(self.sin, dtype=np.float64)
        if self.cos.shape != self.sin.shape or self.cos.ndim != 1:
            raise ValueError("cos/sin coefficient arrays must be equal-length 1-d")


def grf_draw(rng: np.random.Generator, n_modes: int = 63,
             convention: str = "angular") -> GrfCoefficients:
    """Draw KL coefficients; draw order is mean, cos block, sin block."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    sigma = grf_mode_std(np.arange(n_modes + 1), convention)
    draws = rng.standard_normal(2 * n_modes + 1)
    return GrfCoefficients(
        mean=float(sigma[0] * draws[0]),
        cos=sigma[1:] * draws[1 : n_modes + 1],
        sin=sigma[1:] * draws[n_modes + 1 :],
    )


def grf_eval(coeffs: GrfCoefficients, x: np.ndarray) -> np.ndarray:
    """Evaluate a drawn field at arbitrary points of the unit interval."""
    xv = np.asarray(x, dtype=np.float64)
    k = np.arange(1, coeffs.cos.size + 1)
    phase = 2.0 * np.pi * np.outer(xv, k)
    values = coeffs.mean + np.sqrt(2.0) * (
        np.cos(phase) @ coeffs.cos + np.sin(phase) @ coeffs.sin
    )
    return values

