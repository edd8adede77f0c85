"""Release gate for the toolkit: ten end-to-end checks, one test each.

The first seven verify the numerical core against independent oracles and
closed forms. The last three train the desk-scale model battery through
the command-line pipeline and check that adaptive-coordinate training
actually pays off; they share one module-scoped fixture and dominate the
suite's runtime (tens of minutes on a single core).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from radonet.analysis import (
    adaptive_box_construct,
    box_samples,
    covariance_spectrum,
    equidistributed_box_map,
    fem_uniform_interp_error,
    mollified_box,
    optimal_error_tail,
    pl_l2_diff,
    rate_fit,
    sharp_box,
)
from radonet.equidistribution import (
    density_arclength,
    equidistribution_residual,
    limit_density_ratio,
    preprocess_sample,
)
from radonet.models import DeepOnetModel, deeponet_backward_batch, deeponet_forward_batch
from radonet.nn import mlp_init, substream
from radonet.pde_data import dataset_build
from radonet.pde_data.advection import advection_exact, sample_box_params
from radonet.pde_data.burgers import burgers_solve
from radonet.pde_data.grf import grf_draw, grf_eval
from radonet.pde_data.riemann import (
    RiemannState,
    euler_riemann_exact,
    riemann_state_from_z,
    sod_params_sample,
    solve_star,
    star_region,
    total_energy,
)

from oracles import (
    flat_grad_rel_error,
    godunov_hllc,
    numerical_gradient,
    rankine_hugoniot_residual,
    sod_star_pressure_bisect,
)


# ---------------------------------------------------------------------------
# 1. analytic gradients of both training losses vs central finite differences


def _relu_kink_margin(model, inputs, queries, dxi):
    """Distance of every relu argument from zero, minimized over the pass.

    Central differencing with step 1e-6 is meaningless within ~1e-6 of a
    relu kink (the two probes land on different linear pieces), so trial
    nets whose pre-activations or mesh slopes sit inside that window are
    redrawn rather than measured.
    """
    from radonet.equidistribution import fd_derivative

    margin = np.inf
    for params, data in ((model.branch, inputs),
                         (model.trunk, model.normalize_queries(queries))):
        h = np.asarray(data, dtype=np.float64)
        for k, (w, b) in enumerate(zip(params.weights, params.biases)):
            z = h @ w.T + b
            if params.activation == "relu" and k + 1 < len(params.weights):
                margin = min(margin, float(np.min(np.abs(z))))
                h = np.maximum(z, 0.0)
            elif k + 1 < len(params.weights):
                h = np.tanh(z)
            else:
                h = z
    pred, _ = deeponet_forward_batch(model, inputs, queries)
    margin = min(margin, float(np.min(np.abs(fd_derivative(pred, dxi)))))
    return margin


def test_01_training_gradients_match_finite_differences():
    from radonet.training import loss_coordinate, loss_weighted

    worst = 0.0
    for trial in range(20):
        for attempt in range(10):
            rng = substream(101, "gradgate", str(trial), str(attempt))
            n_in = int(rng.integers(2, 6))
            n_basis = int(rng.integers(3, 7))
            width = int(rng.integers(6, 13))
            model = DeepOnetModel(
                branch=mlp_init([n_in, width, n_basis], activation="tanh",
                                seed=int(rng.integers(0, 2**31))),
                trunk=mlp_init([1, width, n_basis],
                               activation="relu" if trial % 2 else "tanh",
                               seed=int(rng.integers(0, 2**31))),
                n_basis=n_basis, query_lo=[0.0], query_hi=[1.0])
            inputs = rng.standard_normal((3, n_in))
            n_q = int(rng.integers(5, 9))
            queries = np.linspace(0.0, 1.0, n_q).reshape(-1, 1)
            dxi = 1.0 / (n_q - 1)
            if _relu_kink_margin(model, inputs, queries, dxi) > 1e-4:
                break
        weights = 1.0 + rng.uniform(0.0, 2.0, size=(3, n_q))
        solution_target = rng.standard_normal((3, n_q))
        mesh_target = np.cumsum(rng.uniform(0.05, 0.3, size=(3, n_q)), axis=1)

        for loss_fn in (lambda p: loss_weighted(p, solution_target, weights),
                        lambda p: loss_coordinate(p, mesh_target, weights)):
            pred, cache = deeponet_forward_batch(model, inputs, queries)
            _, pred_grad = loss_fn(pred)
            bg, tg = deeponet_backward_batch(model, cache, pred_grad)

            def loss_of(which, params):
                probe = DeepOnetModel(
                    branch=params if which == "branch" else model.branch,
                    trunk=params if which == "trunk" else model.trunk,
                    n_basis=model.n_basis,
                    query_lo=model.query_lo, query_hi=model.query_hi)
                out, _ = deeponet_forward_batch(probe, inputs, queries)
                return loss_fn(out)[0]

            for which, grads, params in (("branch", bg, model.branch),
                                         ("trunk", tg, model.trunk)):
                nw, nb = numerical_gradient(lambda p: loss_of(which, p), params)
                err = flat_grad_rel_error(grads.weights, grads.biases, nw, nb)
                worst = max(worst, err)
    assert worst < 1e-4, f"worst analytic-vs-numeric gradient mismatch {worst:.3e}"


# ---------------------------------------------------------------------------
# 2. preprocessed meshes equidistribute the (regularised) arc-length monitor


def test_02_preprocessed_meshes_equidistribute_the_monitor():
    n_grid, n_xi = 2048, 64
    x = np.arange(n_grid) / n_grid
    worst = 0.0
    for i in range(100):
        rng = substream(77, "resid", str(i))
        u = advection_exact(sample_box_params(rng), x, speed=1.0, t=0.25)
        sample = preprocess_sample(u, (0.0, 1.0), n_xi, periodic=True)
        rho = density_arclength(u, 1.0 / n_grid, smoothing_passes=2,
                                periodic=True, beta=1.0)
        rho = limit_density_ratio(rho, n_xi, max_log_ratio=0.3)
        worst = max(worst, equidistribution_residual(sample["x"], rho))
    assert worst <= 0.05, f"worst equidistribution residual {worst:.4f} over 100 samples"


# ---------------------------------------------------------------------------
# 3. ramped-box closed forms: L2 gap and the equidistributing coordinate map


def _box_map_cell_masses(coord_map, delta, shift, n_cells):
    """Exact monitor mass inside each equal reference cell of the map.

    The monitor is piecewise constant ((pi - delta)/delta on the two ramps,
    1 elsewhere), so its integral between any two points is a sum of exact
    segment lengths -- no quadrature is involved.
    """
    rho_ramp = (math.pi - delta) / delta
    e1, e2 = shift - math.pi / 2, shift + math.pi / 2
    pieces = [(-math.pi, e1 - delta / 2, 1.0),
              (e1 - delta / 2, e1 + delta / 2, rho_ramp),
              (e1 + delta / 2, e2 - delta / 2, 1.0),
              (e2 - delta / 2, e2 + delta / 2, rho_ramp),
              (e2 + delta / 2, math.pi, 1.0)]

    def mass_upto(x):
        total = 0.0
        for lo, hi, rho in pieces:
            total += rho * (min(x, hi) - lo)
            if x <= hi:
                break
        return total

    xi = np.linspace(-math.pi, math.pi, n_cells + 1)
    pts = coord_map.eval(xi)
    return np.diff([mass_upto(p) for p in pts])


def test_03_ramped_box_closed_forms():
    for delta in (0.5, 0.1, 1e-3):
        gap = pl_l2_diff(mollified_box(delta), sharp_box()) ** 2
        assert gap == pytest.approx(delta / 6.0, rel=1e-6), \
            f"L2 gap {gap:.12e} vs delta/6 at delta={delta}"

    for delta, shift in ((0.25, 0.0), (0.1, -0.3), (0.05, 0.4)):
        coord, profile = equidistributed_box_map(delta, shift)
        masses = _box_map_cell_masses(coord, delta, shift, n_cells=64)
        spread = np.max(np.abs(masses - masses.mean()))
        assert spread <= 1e-8 * masses.mean(), \
            f"map fails exact equidistribution by {spread:.3e} (delta={delta})"
        # the pulled-back profile must hit the ramp corners exactly
        e1, e2 = shift - math.pi / 2, shift + math.pi / 2
        corners = np.array([e1 - delta / 2, e1 + delta / 2,
                            e2 - delta / 2, e2 + delta / 2])
        got = np.array(coord.values[1:-1])
        np.testing.assert_allclose(got, corners, atol=1e-8)
    # centered case: kink locations are independent of delta
    coord, _ = equidistributed_box_map(0.2)
    np.testing.assert_allclose(
        coord.breakpoints[1:-1],
        [-3 * math.pi / 4, -math.pi / 4, math.pi / 4, 3 * math.pi / 4], atol=1e-8)


# ---------------------------------------------------------------------------
# 4. adaptive interpolation rate beats the uniform-mesh rate on the box


def test_04_adaptive_beats_uniform_interpolation_rate():
    ns = [16, 32, 64, 128, 256, 512]
    adaptive = [adaptive_box_construct(float(n) ** -3.0, n).error for n in ns]
    fit = rate_fit(ns, adaptive)
    assert abs(fit.slope - (-1.5)) <= 0.15, \
        f"adaptive slope {fit.slope:.3f} not within -1.5 +/- 0.15"

    fine = np.linspace(-math.pi, math.pi, 2**16 + 1)
    u_fine = box_samples(fine)
    uniform = [fem_uniform_interp_error(u_fine, n, (-math.pi, math.pi)) for n in ns]
    ufit = rate_fit(ns, uniform)
    assert abs(ufit.slope - (-0.5)) <= 0.1, \
        f"uniform slope {ufit.slope:.3f} not within -0.5 +/- 0.1"
    assert adaptive[-1] < uniform[-1]


# ---------------------------------------------------------------------------
# 5. coordinate transformation flattens the dataset spectrum


def test_05_transformed_fields_have_dominated_spectra():
    ds = dataset_build("advection", seed=2026, counts={"train": 1000})["train"]
    raw = covariance_spectrum(ds.outputs, float(ds.x_grid[1] - ds.x_grid[0]))

    n_xi = 128
    u_rows, x_rows = [], []
    for row in ds.outputs:
        s = preprocess_sample(row, (0.0, 1.0), n_xi, periodic=True)
        u_rows.append(s["u"])
        x_rows.append(s["x"])
    dxi = 1.0 / n_xi
    spec_u = covariance_spectrum(np.array(u_rows), dxi)
    spec_x = covariance_spectrum(np.array(x_rows), dxi)

    for n in (8, 16, 32, 64):
        t_raw = optimal_error_tail(raw, n)
        t_u = optimal_error_tail(spec_u, n)
        t_x = optimal_error_tail(spec_x, n)
        assert t_u <= t_raw, f"u(xi) tail {t_u:.3e} exceeds raw {t_raw:.3e} at n={n}"
        assert t_x <= t_raw, f"x(xi) tail {t_x:.3e} exceeds raw {t_raw:.3e} at n={n}"


# ---------------------------------------------------------------------------
# 6. shock-tube solver: star state, jump conditions, finite-volume cross-check


def test_06_shock_tube_star_state_and_flux_crosscheck():
    sod = RiemannState(rho_l=1.0, u_l=0.0, p_l=1.0,
                       rho_r=0.125, u_r=0.0, p_r=0.1)
    p_star, u_star = solve_star(sod)
    assert p_star == pytest.approx(0.30313, abs=1e-4)
    assert p_star == pytest.approx(sod_star_pressure_bisect(sod), abs=1e-10)

    checked = 0
    for i in range(40):
        z, state = sod_params_sample(substream(31, "rh", str(i)))
        p_s, u_s = solve_star(state)
        region = star_region(state)
        for side, kind, rho_s in (("left", region["left_wave"], region["rho_star_l"]),
                                  ("right", region["right_wave"], region["rho_star_r"])):
            if kind != "shock":
                continue
            res = rankine_hugoniot_residual(state, p_s, u_s, rho_s, side)
            assert res <= 1e-8, f"jump-condition residual {res:.2e} on {side}"
            checked += 1
    assert checked >= 10, f"only {checked} shock sides among 40 draws"

    n_cells = 10_000
    t_final = 1.5
    # CFL 0.9: fewer steps means less contact smearing in the first-order
    # scheme, which is what limits the agreement at this resolution
    centers, rho, u, p = godunov_hllc(sod, -5.0, 5.0, n_cells, t_final, cfl=0.9)
    rho_e, u_e, p_e = euler_riemann_exact(sod, centers, t_final)
    gap = float(np.mean(np.abs(total_energy(rho, u, p) - total_energy(rho_e, u_e, p_e))))
    assert gap <= 1e-3, f"finite-volume energy cross-check L1 gap {gap:.2e}"


# ---------------------------------------------------------------------------
# 7. viscous solver: self-convergence in mode count, and the exact heat limit


def test_07_viscous_solver_self_convergence_and_heat_limit():
    coeffs = grf_draw(substream(9, "selfconv"), n_modes=63, convention="angular")
    u_lo = burgers_solve(grf_eval(coeffs, np.arange(256) / 256.0),
                         nu=1e-2, final_time=1.0, dt=1e-4)
    u_hi = burgers_solve(grf_eval(coeffs, np.arange(512) / 512.0),
                         nu=1e-2, final_time=1.0, dt=1e-4)
    diff = u_hi[::2] - u_lo
    rel = math.sqrt(float(np.mean(diff**2) / np.mean(u_lo**2)))
    assert rel < 1e-6, f"256 -> 512 mode refinement moved the solution by {rel:.2e}"

    nu, t_end = 1e-2, 1.0
    x = np.arange(256) / 256.0
    u0 = np.sin(2.0 * np.pi * x)
    u_T = burgers_solve(u0, nu=nu, final_time=t_end, dt=1e-3, nonlinear=False)
    exact = math.exp(-4.0 * math.pi**2 * nu * t_end) * u0
    assert float(np.max(np.abs(u_T - exact))) <= 1e-8


# ---------------------------------------------------------------------------
# 8-10. the desk-scale training battery, run through the shipped CLI configs
#
# These intentionally run the real pipeline at the real budgets from
# configs/, so they take tens of minutes on one core. The orderings are the
# paper's claims: adaptive below uniform, and adaptive insensitive to the
# output resolution where uniform degrades at 16 points. The 3e-2 ceiling
# and the factors of 2 are targets, not measured levels; the paper states
# an ordering and a rate, not an error level at this budget. Uniform-grid
# levels near 2.5e-2 are out of reach on this dataset and metric: no
# 64-function linear reconstruction of it gets below about 0.10, not even
# the test split's own best 64 modes.


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _cli(*argv) -> None:
    from radonet.cli import main as cli_main

    code = cli_main([str(a) for a in argv])
    assert code == 0, f"radonet {' '.join(str(a) for a in argv)} exited {code}"


def _summary(path) -> dict:
    return json.loads((Path(path) / "summary.json").read_text())


def _train_and_eval(cfg, data, out_root, tag, family, prep=None):
    model = Path(out_root) / f"model_{tag}"
    ev = Path(out_root) / f"eval_{tag}"
    train_args = ["train", "--config", cfg, "--dataset", data, "--out", model]
    eval_args = ["eval", "--config", cfg, "--model", model,
                 "--dataset", data, "--out", ev]
    if family == "radaptive":
        train_args += ["--set", "model.family=radaptive", "--prep", prep]
        eval_args += ["--set", "model.family=radaptive"]
    _cli(*train_args)
    _cli(*eval_args)
    return _summary(ev)


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    root = tmp_path_factory.mktemp("battery")
    cfg128 = str(CONFIGS / "advection_128.json")
    cfg16 = str(CONFIGS / "advection_16.json")
    cfgb = str(CONFIGS / "burgers_128.json")

    adv_data = root / "adv_data"
    _cli("datagen", "--config", cfg128, "--out", adv_data)
    prep128 = root / "adv_prep128"
    _cli("preprocess", "--config", cfg128, "--dataset", adv_data, "--out", prep128)
    prep16 = root / "adv_prep16"
    _cli("preprocess", "--config", cfg16, "--dataset", adv_data, "--out", prep16)

    bur_data = root / "bur_data"
    _cli("datagen", "--config", cfgb, "--out", bur_data)
    bur_prep = root / "bur_prep"
    _cli("preprocess", "--config", cfgb, "--dataset", bur_data, "--out", bur_prep)

    return {
        "van128": _train_and_eval(cfg128, adv_data, root, "van128", "vanilla"),
        "rad128": _train_and_eval(cfg128, adv_data, root, "rad128", "radaptive",
                                  prep=prep128),
        "van16": _train_and_eval(cfg16, adv_data, root, "van16", "vanilla"),
        "rad16": _train_and_eval(cfg16, adv_data, root, "rad16", "radaptive",
                                 prep=prep16),
        "bur_van": _train_and_eval(cfgb, bur_data, root, "bur_van", "vanilla"),
        "bur_rad": _train_and_eval(cfgb, bur_data, root, "bur_rad", "radaptive",
                                   prep=bur_prep),
    }


@pytest.mark.battery
def test_08_adaptive_training_beats_uniform_at_equal_budget(battery):
    adv_rad = battery["rad128"]["mean_rel_l2"]
    adv_van = battery["van128"]["mean_rel_l2"]
    bur_rad = battery["bur_rad"]["mean_rel_l2"]
    bur_van = battery["bur_van"]["mean_rel_l2"]
    assert adv_rad < adv_van, \
        f"transport: adaptive {adv_rad:.3e} not below uniform {adv_van:.3e}"
    assert bur_rad < bur_van, \
        f"viscous: adaptive {bur_rad:.3e} not below uniform {bur_van:.3e}"
    assert adv_rad <= 3e-2, f"transport adaptive error {adv_rad:.3e} above 3e-2"


@pytest.mark.battery
def test_09_adaptive_training_insensitive_to_output_resolution(battery):
    rad16 = battery["rad16"]["mean_rel_l2"]
    rad128 = battery["rad128"]["mean_rel_l2"]
    van16 = battery["van16"]["mean_rel_l2"]
    van128 = battery["van128"]["mean_rel_l2"]
    assert rad16 <= 2.0 * rad128, \
        f"adaptive at 16-point outputs {rad16:.3e} vs 128-point {rad128:.3e}"
    assert van16 > 2.0 * van128, \
        f"uniform should degrade at 16-point outputs: {van16:.3e} vs {van128:.3e}"


@pytest.mark.battery
def test_10_predicted_meshes_are_usable(battery):
    s = battery["rad128"]
    assert s["monotone_mesh_fraction"] == 1.0, \
        f"only {s['monotone_mesh_fraction']:.3f} of predicted meshes are increasing"
    assert s["prefix_jacobian_positive_fraction"] >= 0.99, \
        f"raw mesh slope positive at only {s['prefix_jacobian_positive_fraction']:.4f}"
