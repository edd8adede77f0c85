"""Exact Riemann solver for the 1-d compressible Euler equations.

Star-region pressure is found by Newton iteration on the standard pressure
function (Toro, "Riemann Solvers and Numerical Methods for Fluid Dynamics",
ch. 4); the self-similar solution is then sampled along rays x/t with full
shock / rarefaction / contact branching. Only the left wave is written out:
the right wave is the left wave of the mirrored problem (x, u -> -x, -u),
so the right side is sampled as the left side of the state (rho_r, -u_r,
p_r) at rays -s with star velocity -u*, and its velocities are negated
back. This is exact: IEEE negation is exact and rounding is symmetric,
fl(-a - b) = -fl(a + b), so the mirrored formulas give the bytes that
right-side ones would, but for the sign of a sum that is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RiemannState:
    """Left/right primitive states (rho, u, p), interface location, gas gamma."""

    rho_l: float
    u_l: float
    p_l: float
    rho_r: float
    u_r: float
    p_r: float
    x0: float = 0.0
    gamma: float = 1.4

    def __post_init__(self):
        if min(self.rho_l, self.rho_r, self.p_l, self.p_r) <= 0.0:
            raise ValueError(f"densities and pressures must be positive: {self}")
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")

    def sound_speeds(self) -> tuple[float, float]:
        return (
            float(np.sqrt(self.gamma * self.p_l / self.rho_l)),
            float(np.sqrt(self.gamma * self.p_r / self.rho_r)),
        )


def total_energy(rho, u, p, gamma: float = 1.4):
    """Volumetric total energy E = rho u^2 / 2 + p / (gamma - 1)."""
    rho = np.asarray(rho, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    return 0.5 * rho * u * u + p / (gamma - 1.0)


def _pressure_fn(p: float, rho_k: float, p_k: float, a_k: float,
                 gamma: float) -> tuple[float, float]:
    """Toro's f_K(p) and its derivative for one side of the interface."""
    if p > p_k:  # shock branch
        a_coef = 2.0 / ((gamma + 1.0) * rho_k)
        b_coef = (gamma - 1.0) / (gamma + 1.0) * p_k
        root = np.sqrt(a_coef / (p + b_coef))
        f = (p - p_k) * root
        df = root * (1.0 - 0.5 * (p - p_k) / (p + b_coef))
    else:  # rarefaction branch
        ratio = p / p_k
        f = 2.0 * a_k / (gamma - 1.0) * (ratio ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0)
        df = (1.0 / (rho_k * a_k)) * ratio ** (-(gamma + 1.0) / (2.0 * gamma))
    return f, df


def solve_star(state: RiemannState, tol: float = 1e-12,
               max_iter: int = 100) -> tuple[float, float]:
    """Newton iteration for the star-region pressure and velocity."""
    g = state.gamma
    a_l, a_r = state.sound_speeds()
    du = state.u_r - state.u_l
    if 2.0 * (a_l + a_r) / (g - 1.0) <= du:
        raise ValueError("initial states generate vacuum; no solution sampled")
    # two-rarefaction initial guess, positive by construction
    z = (g - 1.0) / (2.0 * g)
    p = (
        (a_l + a_r - 0.5 * (g - 1.0) * du)
        / (a_l / state.p_l ** z + a_r / state.p_r ** z)
    ) ** (1.0 / z)
    p = max(p, tol)
    for _ in range(max_iter):
        f_l, df_l = _pressure_fn(p, state.rho_l, state.p_l, a_l, g)
        f_r, df_r = _pressure_fn(p, state.rho_r, state.p_r, a_r, g)
        step = (f_l + f_r + du) / (df_l + df_r)
        p_new = p - step
        if p_new <= 0.0:
            p_new = tol
        if 2.0 * abs(p_new - p) / (p_new + p) < tol:
            p = p_new
            break
        p = p_new
    else:
        raise RuntimeError(f"star pressure iteration failed to converge for {state}")
    f_l, _ = _pressure_fn(p, state.rho_l, state.p_l, a_l, g)
    f_r, _ = _pressure_fn(p, state.rho_r, state.p_r, a_r, g)
    u = 0.5 * (state.u_l + state.u_r) + 0.5 * (f_r - f_l)
    return float(p), float(u)


def _left_wave(rho_k: float, u_k: float, p_k: float, a_k: float, p_star: float,
               u_star: float, g: float) -> tuple[str, float, object]:
    """Kind, star density and speed of the wave between a left state and the
    star region; a rarefaction's speed is its (head, tail) pair."""
    if p_star > p_k:
        g6 = (g - 1.0) / (g + 1.0)
        rho_star = rho_k * ((p_star / p_k + g6) / (g6 * p_star / p_k + 1.0))
        return "shock", rho_star, u_k - a_k * np.sqrt(
            (g + 1.0) / (2.0 * g) * p_star / p_k + (g - 1.0) / (2.0 * g))
    a_star = a_k * (p_star / p_k) ** ((g - 1.0) / (2.0 * g))
    return "rarefaction", rho_k * (p_star / p_k) ** (1.0 / g), (u_k - a_k, u_star - a_star)


def star_region(state: RiemannState) -> dict:
    """Star pressure/velocity, star densities, wave kinds and wave speeds."""
    a_l, a_r = state.sound_speeds()
    p, u = solve_star(state)
    kind_l, rho_l, speed_l = _left_wave(state.rho_l, state.u_l, state.p_l, a_l, p, u, state.gamma)
    kind_r, rho_r, speed_r = _left_wave(state.rho_r, -state.u_r, state.p_r, a_r, p, -u,
                                        state.gamma)
    return {"p_star": p, "u_star": u,
            "left_wave": kind_l, "rho_star_l": rho_l, "left_speed": speed_l,
            "right_wave": kind_r, "rho_star_r": rho_r,
            "right_speed": (-speed_r[0], -speed_r[1]) if kind_r == "rarefaction" else -speed_r}


def _sample_left(s: np.ndarray, rho_k: float, u_k: float, p_k: float, a_k: float,
                 p_star: float, u_star: float, g: float):
    """(rho, u, p) at rays s left of the contact, from the left state and the
    star pressure and velocity."""
    kind, rho_star, speed = _left_wave(rho_k, u_k, p_k, a_k, p_star, u_star, g)
    head, tail = speed if kind == "rarefaction" else (speed, speed)
    rho, u, p = (np.full_like(s, value) for value in (rho_star, u_star, p_star))
    pre = s < head
    rho[pre], u[pre], p[pre] = rho_k, u_k, p_k
    if kind == "rarefaction":
        fan = ~pre & (s <= tail)
        bracket = 2.0 / (g + 1.0) + (g - 1.0) / ((g + 1.0) * a_k) * (u_k - s[fan])
        rho[fan] = rho_k * bracket ** (2.0 / (g - 1.0))
        u[fan] = 2.0 / (g + 1.0) * (a_k + 0.5 * (g - 1.0) * u_k + s[fan])
        p[fan] = p_k * bracket ** (2.0 * g / (g - 1.0))
    return rho, u, p


def euler_riemann_exact(state: RiemannState, x: np.ndarray, t: float):
    """Exact (rho, u, p) at positions x and time t > 0."""
    if t <= 0.0:
        raise ValueError(f"need t > 0 to sample the self-similar solution, got {t}")
    s = (np.asarray(x, dtype=np.float64) - state.x0) / t
    a_l, a_r = state.sound_speeds()
    p_star, u_star = solve_star(state)
    rho, u, p = np.empty_like(s), np.empty_like(s), np.empty_like(s)
    left = s <= u_star
    right = ~left
    rho[left], u[left], p[left] = _sample_left(
        s[left], state.rho_l, state.u_l, state.p_l, a_l, p_star, u_star, state.gamma)
    rho[right], u_mirrored, p[right] = _sample_left(
        -s[right], state.rho_r, -state.u_r, state.p_r, a_r, p_star, -u_star, state.gamma)
    u[right] = -u_mirrored
    return rho, u, p


def riemann_state_from_z(z: np.ndarray) -> RiemannState:
    """Map a [0,1]^6 latent vector onto a randomized shock-tube problem."""
    zv = np.asarray(z, dtype=np.float64)
    if zv.shape != (6,):
        raise ValueError(f"z must have shape (6,), got {zv.shape}")
    if np.any(zv < 0.0) or np.any(zv > 1.0):
        raise ValueError("z components must lie in [0, 1]")
    g = 2.0 * zv - 1.0
    return RiemannState(
        rho_l=0.75 + 0.45 * g[0],
        rho_r=0.4 + 0.3 * g[1],
        u_l=0.5 + 0.5 * g[2],
        p_l=2.5 + 1.6 * g[3],
        p_r=0.375 + 0.325 * g[4],
        u_r=0.0,
        x0=0.5 * g[5],
    )


def sod_params_sample(rng: np.random.Generator) -> tuple[np.ndarray, RiemannState]:
    """Draw the 6-vector z and its randomized shock-tube state."""
    z = rng.uniform(0.0, 1.0, size=6)
    return z, riemann_state_from_z(z)
