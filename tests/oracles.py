"""Independent reference implementations used to check the package.

Everything in here is deliberately written the slow, obvious way (explicit
loops, dense refinement, bisection instead of Newton) so it shares no code
path with the implementations under test.
"""

import numpy as np


# ---------------------------------------------------------------------------
# network references


def mlp_forward_loops(params, batch):
    """Per-sample, per-layer loop evaluation of a dense net."""
    outs = []
    n_layers = len(params.weights)
    for row in np.asarray(batch, dtype=np.float64):
        h = row
        for layer in range(n_layers):
            z = params.weights[layer] @ h + params.biases[layer]
            if layer == n_layers - 1:
                h = z
            elif params.activation == "relu":
                h = np.maximum(z, 0.0)
            else:
                h = np.tanh(z)
        outs.append(h)
    return np.array(outs)


def deeponet_forward_loops(model, inputs, queries):
    """Dot-product head computed with explicit loops over samples/queries."""
    a = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    q = np.asarray(queries, dtype=np.float64).reshape(-1, model.d_query)
    qn = 2.0 * (q - model.query_lo) / (model.query_hi - model.query_lo) - 1.0
    b = mlp_forward_loops(model.branch, a)
    t = mlp_forward_loops(model.trunk, qn)
    out = np.empty((a.shape[0], q.shape[0]))
    for i in range(a.shape[0]):
        for j in range(q.shape[0]):
            out[i, j] = float(np.dot(b[i], t[j]))
    return out


def numerical_gradient(loss_of_params, params, eps=1e-6):
    """Central finite differences through every weight and bias entry.

    loss_of_params is a closure taking an MlpParams; returns (dW list,
    db list) matching the parameter shapes.
    """
    dw = [np.zeros_like(w) for w in params.weights]
    db = [np.zeros_like(b) for b in params.biases]
    for layer, w in enumerate(params.weights):
        flat = w.reshape(-1)
        grad = dw[layer].reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + eps
            up = loss_of_params(params)
            flat[idx] = keep - eps
            down = loss_of_params(params)
            flat[idx] = keep
            grad[idx] = (up - down) / (2.0 * eps)
    for layer, b in enumerate(params.biases):
        for idx in range(b.size):
            keep = b[idx]
            b[idx] = keep + eps
            up = loss_of_params(params)
            b[idx] = keep - eps
            down = loss_of_params(params)
            b[idx] = keep
            db[layer][idx] = (up - down) / (2.0 * eps)
    return dw, db


def flat_grad_rel_error(analytic_w, analytic_b, numeric_w, numeric_b):
    """Relative l2 distance between two full gradient vectors."""
    a = np.concatenate([g.reshape(-1) for g in analytic_w]
                       + [g.reshape(-1) for g in analytic_b])
    n = np.concatenate([g.reshape(-1) for g in numeric_w]
                       + [g.reshape(-1) for g in numeric_b])
    return float(np.linalg.norm(a - n) / max(np.linalg.norm(n), 1e-300))


# ---------------------------------------------------------------------------
# equidistribution reference


def equidistribute_refined(values, dx, n_xi, x0=0.0, periodic=False, refine=400):
    """Invert the cumulative density integral on a heavily refined grid.

    The density is linearly interpolated onto `refine` sub-points per original
    cell, the mass integral is accumulated with the trapezoid rule, and knot
    positions come from inverse interpolation of the mass curve. Converges to
    the exact piecewise-quadratic inversion as refine grows.
    """
    vals = np.asarray(values, dtype=np.float64)
    if periodic:
        xs = x0 + dx * np.arange(vals.size + 1)
        vals = np.append(vals, vals[0])
    else:
        xs = x0 + dx * np.arange(vals.size)
    fine_x = np.linspace(xs[0], xs[-1], (xs.size - 1) * refine + 1)
    fine_v = np.interp(fine_x, xs, vals)
    mass = np.concatenate([[0.0], np.cumsum(
        0.5 * (fine_v[1:] + fine_v[:-1]) * np.diff(fine_x))])
    targets = np.linspace(0.0, mass[-1], n_xi + 1)
    knots = np.interp(targets, mass, fine_x)
    knots[0], knots[-1] = xs[0], xs[-1]
    return knots


def limit_density_ratio_full_hull(values, dx, n_xi, periodic, max_log_ratio=0.3,
                                  cap_scale=8.0, smooth_cells=2.0):
    """limit_density_ratio's density values, its cone hull swept over all
    three copies of a periodic field, of which the middle one is kept (the
    package computes that copy alone). cap_scale and smooth_cells are the
    package's _CAP_SCALE and _SMOOTH_CELLS."""
    def domain_mass(v):
        closed = np.append(v, v[0]) if periodic else v
        return float(np.sum(dx * 0.5 * (closed[:-1] + closed[1:])))

    vals = np.asarray(values, dtype=np.float64)
    m = vals.size
    wanted = cap_scale * domain_mass(vals) / (n_xi * dx)
    if n_xi >= 64:
        wanted = min(np.exp(0.6 * max_log_ratio * n_xi / 4.0), wanted)
    vals = np.minimum(vals, max(2.0, wanted))

    recip = 1.0 / (np.concatenate([vals, vals, vals]) if periodic else vals)
    xs = dx * np.arange(recip.size)

    def cone_hull(c):
        fwd = c * xs + np.minimum.accumulate(recip - c * xs)
        bwd = -c * xs + np.minimum.accumulate((recip + c * xs)[::-1])[::-1]
        return np.minimum(fwd, bwd)

    def middle(extended):
        out = extended[m:2 * m] if periodic else extended
        return np.minimum(np.maximum(1.0 / out, 1.0), max(2.0, np.max(vals)))

    target = max_log_ratio * n_xi
    c = target / (2.0 * domain_mass(vals))
    dens = middle(cone_hull(c))
    for _ in range(4):
        c = target / domain_mass(dens)
        dens = middle(cone_hull(c))

    ext = np.concatenate([dens, dens, dens]) if periodic else dens
    dmu = dx * 0.5 * (ext[:-1] + ext[1:])
    mu = np.concatenate(([0.0], np.cumsum(dmu)))
    cell_mass = domain_mass(dens) / n_xi
    n_aux = max(16, int(round((mu[-1] / cell_mass) * 6)))
    mu_aux = np.linspace(mu[0], mu[-1], n_aux)
    log_aux = np.interp(mu_aux, mu, np.log(ext))
    sigma_pts = smooth_cells * 6
    half = int(np.ceil(4.0 * sigma_pts))
    t = np.arange(-half, half + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (t / sigma_pts) ** 2)
    kernel /= kernel.sum()
    padded = np.concatenate([np.full(half, log_aux[0]), log_aux, np.full(half, log_aux[-1])])
    log_smooth = np.convolve(padded, kernel, mode="valid")
    smoothed = np.exp(np.interp(mu, mu_aux, log_smooth))
    return np.maximum(smoothed[m:2 * m] if periodic else smoothed, 1.0)


# ---------------------------------------------------------------------------
# gas dynamics references


def sod_star_pressure_bisect(state, lo=1e-8, hi=10.0, iters=200):
    """Star pressure by bisection on the pressure equation (no Newton)."""
    g = state.gamma
    a_l, a_r = state.sound_speeds()

    def f_side(p, rho_k, p_k, a_k):
        if p > p_k:
            a_coef = 2.0 / ((g + 1.0) * rho_k)
            b_coef = (g - 1.0) / (g + 1.0) * p_k
            return (p - p_k) * np.sqrt(a_coef / (p + b_coef))
        return 2.0 * a_k / (g - 1.0) * ((p / p_k) ** ((g - 1.0) / (2.0 * g)) - 1.0)

    def total(p):
        return (f_side(p, state.rho_l, state.p_l, a_l)
                + f_side(p, state.rho_r, state.p_r, a_r)
                + (state.u_r - state.u_l))

    f_lo, f_hi = total(lo), total(hi)
    if f_lo * f_hi > 0.0:
        raise ValueError("bisection bracket does not straddle the root")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if total(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def rankine_hugoniot_residual(state, p_star, u_star, rho_star, side):
    """Max residual of the three Euler jump conditions across one shock.

    side is "left" or "right"; the pre-shock state is taken from `state` and
    the shock speed from the exact single-shock relation.
    """
    g = state.gamma
    if side == "left":
        rho0, u0, p0 = state.rho_l, state.u_l, state.p_l
        a0 = np.sqrt(g * p0 / rho0)
        s = u0 - a0 * np.sqrt((g + 1.0) / (2.0 * g) * p_star / p0
                              + (g - 1.0) / (2.0 * g))
    else:
        rho0, u0, p0 = state.rho_r, state.u_r, state.p_r
        a0 = np.sqrt(g * p0 / rho0)
        s = u0 + a0 * np.sqrt((g + 1.0) / (2.0 * g) * p_star / p0
                              + (g - 1.0) / (2.0 * g))

    def flux(rho, u, p):
        e = 0.5 * rho * u * u + p / (g - 1.0)
        return np.array([rho * u, rho * u * u + p, u * (e + p)])

    def cons(rho, u, p):
        return np.array([rho, rho * u, 0.5 * rho * u * u + p / (g - 1.0)])

    jump_f = flux(rho_star, u_star, p_star) - flux(rho0, u0, p0)
    jump_u = cons(rho_star, u_star, p_star) - cons(rho0, u0, p0)
    return float(np.max(np.abs(jump_f - s * jump_u)))


def godunov_hllc(state, x_lo, x_hi, n_cells, t_final, cfl=0.45):
    """First-order Godunov-type finite-volume solver with the HLLC flux.

    Independent cross-check for the exact solver: evolves the shock tube on
    n_cells uniform cells with outflow boundaries and returns cell-centre
    (rho, u, p) at t_final.
    """
    g = state.gamma
    dx = (x_hi - x_lo) / n_cells
    xc = x_lo + dx * (0.5 + np.arange(n_cells))
    rho = np.where(xc < state.x0, state.rho_l, state.rho_r)
    mom = rho * np.where(xc < state.x0, state.u_l, state.u_r)
    p0 = np.where(xc < state.x0, state.p_l, state.p_r)
    ene = 0.5 * mom ** 2 / rho + p0 / (g - 1.0)
    U = np.stack([rho, mom, ene])

    def primitives(U):
        rho = U[0]
        u = U[1] / rho
        p = (g - 1.0) * (U[2] - 0.5 * rho * u * u)
        return rho, u, p

    def hllc_flux(UL, UR):
        rl, ul, pl = primitives(UL)
        rr, ur, pr = primitives(UR)
        al = np.sqrt(g * pl / rl)
        ar = np.sqrt(g * pr / rr)
        # pressure-based wave speed estimates (Toro 10.5.2)
        p_pvrs = 0.5 * (pl + pr) - 0.125 * (ur - ul) * (rl + rr) * (al + ar)
        p_est = np.maximum(0.0, p_pvrs)
        ql = np.where(p_est <= pl, 1.0,
                      np.sqrt(1.0 + (g + 1.0) / (2.0 * g) * (p_est / pl - 1.0)))
        qr = np.where(p_est <= pr, 1.0,
                      np.sqrt(1.0 + (g + 1.0) / (2.0 * g) * (p_est / pr - 1.0)))
        sl = ul - al * ql
        sr = ur + ar * qr
        s_star = (pr - pl + rl * ul * (sl - ul) - rr * ur * (sr - ur)) \
            / (rl * (sl - ul) - rr * (sr - ur))

        def flux_of(U):
            rho, u, p = primitives(U)
            return np.stack([rho * u, rho * u * u + p, u * (U[2] + p)])

        def star_state(U, s_k, u_k, p_k, rho_k):
            factor = rho_k * (s_k - u_k) / (s_k - s_star)
            e_term = U[2] / rho_k + (s_star - u_k) * (
                s_star + p_k / (rho_k * (s_k - u_k)))
            return np.stack([factor,
                             factor * s_star,
                             factor * e_term])

        FL, FR = flux_of(UL), flux_of(UR)
        UL_star = star_state(UL, sl, ul, pl, rl)
        UR_star = star_state(UR, sr, ur, pr, rr)
        flux = np.where(sl >= 0.0, FL,
                        np.where(s_star >= 0.0, FL + sl * (UL_star - UL),
                                 np.where(sr >= 0.0, FR + sr * (UR_star - UR), FR)))
        return flux

    t = 0.0
    while t < t_final - 1e-14:
        rho, u, p = primitives(U)
        a = np.sqrt(g * p / rho)
        dt = min(cfl * dx / np.max(np.abs(u) + a), t_final - t)
        Ug = np.concatenate([U[:, :1], U, U[:, -1:]], axis=1)
        F = hllc_flux(Ug[:, :-1], Ug[:, 1:])
        U = U - dt / dx * (F[:, 1:] - F[:, :-1])
        t += dt
    rho, u, p = primitives(U)
    return xc, rho, u, p


# ---------------------------------------------------------------------------
# spectral references


def heat_exact_from_coeffs(coeffs, x, nu, t):
    """Closed-form heat solution for a field given by Fourier coefficients.

    Mode k of the periodic unit interval decays by exp(-nu (2 pi k)^2 t);
    evaluation is a direct trigonometric sum, no FFT involved.
    """
    xv = np.asarray(x, dtype=np.float64)
    k = np.arange(1, coeffs.cos.size + 1)
    decay = np.exp(-nu * (2.0 * np.pi * k) ** 2 * t)
    phase = 2.0 * np.pi * np.outer(xv, k)
    return coeffs.mean + np.sqrt(2.0) * (
        np.cos(phase) @ (decay * coeffs.cos) + np.sin(phase) @ (decay * coeffs.sin))


def pl_l2_diff_bruteforce(bp_f, v_f, bp_g, v_g, n_points=2_000_001):
    """L2 distance of two piecewise-linear graphs by dense trapezoid rule.

    Jump breakpoints (repeated abscissae) are perturbed by a vanishing nudge
    so np.interp picks the interior one-sided values.
    """
    def clean(bp, v):
        bp = np.asarray(bp, dtype=np.float64).copy()
        for i in range(1, bp.size):
            if bp[i] <= bp[i - 1]:
                bp[i] = bp[i - 1] + 1e-13
        return bp, np.asarray(v, dtype=np.float64)

    bf, vf = clean(bp_f, v_f)
    bg, vg = clean(bp_g, v_g)
    lo = max(bf[0], bg[0])
    hi = min(bf[-1], bg[-1])
    x = np.linspace(lo, hi, n_points)
    d = np.interp(x, bf, vf) - np.interp(x, bg, vg)
    return float(np.sqrt(np.trapezoid(d * d, x)))
