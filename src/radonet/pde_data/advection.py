"""Periodic linear advection of box waves, solved exactly by translation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class BoxWaveParams:
    """Square pulse of a given height and width centered at `shift`."""

    height: float
    width: float
    shift: float

    def __post_init__(self):
        if self.height <= 0.0 or self.width <= 0.0:
            raise ValueError(f"height and width must be positive, got {self}")


def sample_box_params(rng: np.random.Generator,
                      height_range=(0.2, 0.8),
                      width_range=(0.05, 0.3),
                      shift_range=(0.0, 0.5)) -> BoxWaveParams:
    """Draw box parameters uniformly; draw order is height, width, shift."""
    return BoxWaveParams(
        height=float(rng.uniform(*height_range)),
        width=float(rng.uniform(*width_range)),
        shift=float(rng.uniform(*shift_range)),
    )


def encode_box_params(params: BoxWaveParams) -> np.ndarray:
    """Branch-net encoding (height, width, shift)."""
    return np.array([params.height, params.width, params.shift], dtype=np.float64)


def advection_exact(params: BoxWaveParams, x: np.ndarray, speed: float = 1.0,
                    t: float = 0.25, period: float = 1.0) -> np.ndarray:
    """Exact solution at time t: the initial box, centered at params.shift,
    translated by speed * t on the periodic grid x."""
    if params.width >= period:
        raise ValueError(f"box width {params.width} does not fit in period {period}")
    # reduced into [0, period], so that the rounding of d does not grow
    # with the shift (see cli._box_meets_grid)
    center = np.mod(params.shift + speed * t, period)
    d = np.mod(np.asarray(x, dtype=np.float64) - center + 0.5 * period, period) - 0.5 * period
    return np.where(np.abs(d) <= 0.5 * params.width, params.height, 0.0)
