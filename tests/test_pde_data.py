import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radonet.nn import substream
from radonet.pde_data import PdeDataset, dataset_build, load_dataset, save_dataset
from radonet.pde_data.advection import (
    BoxWaveParams,
    advection_exact,
    encode_box_params,
    sample_box_params,
)
from radonet.pde_data.burgers import _etdrk4_coeffs, burgers_solve, step_count
from radonet.pde_data.grf import grf_draw, grf_eval, grf_mode_std
from radonet.pde_data.riemann import (
    RiemannState,
    euler_riemann_exact,
    riemann_state_from_z,
    sod_params_sample,
    solve_star,
    star_region,
    total_energy,
)

from containers import corrupt, join_npy, load_guarded, restore, snapshot, split_npy
from oracles import heat_exact_from_coeffs, rankine_hugoniot_residual, sod_star_pressure_bisect

SOD = RiemannState(rho_l=1.0, u_l=0.0, p_l=1.0, rho_r=0.125, u_r=0.0, p_r=0.1)


# --- advection ---------------------------------------------------------------


def test_box_wave_values_and_wrap():
    params = BoxWaveParams(height=0.7, width=0.2, shift=0.05)  # wraps around 0
    x = np.array([0.0, 0.1, 0.14, 0.16, 0.96, 0.5])
    np.testing.assert_array_equal(advection_exact(params, x, t=0.0),
                                  [0.7, 0.7, 0.7, 0.0, 0.7, 0.0])


def test_advection_translates_box():
    params = BoxWaveParams(height=0.5, width=0.25, shift=0.1)
    x = np.arange(512) / 512
    moved = advection_exact(params, x, speed=1.0, t=0.3)
    np.testing.assert_array_equal(
        moved, advection_exact(BoxWaveParams(0.5, 0.25, 0.4), x, t=0.0))
    # one full period returns the initial condition exactly
    np.testing.assert_array_equal(advection_exact(params, x, speed=1.0, t=1.0),
                                  advection_exact(params, x, t=0.0))


def test_box_param_sampling_ranges_and_encoding():
    rng = substream(3, "boxes")
    for _ in range(50):
        p = sample_box_params(rng)
        assert 0.2 <= p.height <= 0.8
        assert 0.05 <= p.width <= 0.3
        assert 0.0 <= p.shift <= 0.5
    np.testing.assert_array_equal(encode_box_params(BoxWaveParams(0.3, 0.2, 0.1)),
                                  [0.3, 0.2, 0.1])
    with pytest.raises(ValueError):
        BoxWaveParams(height=-1.0, width=0.2, shift=0.0)
    with pytest.raises(ValueError):
        advection_exact(BoxWaveParams(1.0, 2.0, 0.0), np.zeros(4))


# --- random fields -----------------------------------------------------------


def test_grf_mode_std_both_conventions():
    k = np.array([0.0, 1.0, 3.0])
    np.testing.assert_allclose(
        grf_mode_std(k, "angular"),
        25.0 * ((2.0 * np.pi * k) ** 2 + 25.0) ** -2.0)
    np.testing.assert_allclose(
        grf_mode_std(k, "integer"),
        25.0 * (k ** 2 + 25.0) ** -2.0)
    with pytest.raises(ValueError):
        grf_mode_std(k, "radial")


def test_grf_eval_discrete_parseval():
    # on a uniform grid finer than twice the top mode, the trig basis is
    # exactly orthonormal under the grid average: the field mean recovers the
    # mean coefficient and the field variance the coefficient energy
    rng = substream(11, "grf")
    coeffs = grf_draw(rng, n_modes=10)
    u = grf_eval(coeffs, np.arange(64) / 64)
    assert abs(np.mean(u) - coeffs.mean) < 1e-12
    energy = np.sum(coeffs.cos ** 2 + coeffs.sin ** 2)
    assert abs(np.var(u) - energy) < 1e-12 * max(1.0, energy)


def test_grf_population_variance():
    # E[u(x)^2] - E[u(x)]^2 = sigma_0^2 + 2 sum_k sigma_k^2, independent of x
    sigma = grf_mode_std(np.arange(21), "integer")
    expected = sigma[0] ** 2 + 2.0 * np.sum(sigma[1:] ** 2)
    rng = substream(12, "grf-var")
    x_probe = np.array([0.13, 0.5, 0.77])
    acc = np.zeros((2000, x_probe.size))
    for i in range(2000):
        acc[i] = grf_eval(grf_draw(rng, 20, "integer"), x_probe)
    np.testing.assert_allclose(np.var(acc, axis=0), expected, rtol=0.10)


def test_grf_determinism():
    x = np.arange(128) / 128
    a = grf_eval(grf_draw(substream(7, "x"), 20), x)
    b = grf_eval(grf_draw(substream(7, "x"), 20), x)
    np.testing.assert_array_equal(a, b)


# --- viscous Burgers ---------------------------------------------------------


def test_burgers_heat_mode_matches_kernel():
    # with the advection term off the integrator reduces to the exactly
    # integrated heat equation; compare against per-mode decay factors
    rng = substream(21, "heat")
    coeffs = grf_draw(rng, n_modes=40)
    x = np.arange(256) / 256
    u0 = grf_eval(coeffs, x)
    nu, t = 1e-2, 0.2
    got = burgers_solve(u0, nu, t, dt=1e-3, nonlinear=False)
    np.testing.assert_allclose(got, heat_exact_from_coeffs(coeffs, x, nu, t),
                               atol=1e-10)


def test_burgers_step_size_convergence():
    rng = substream(22, "dt")
    u0 = grf_eval(grf_draw(rng, 30), np.arange(256) / 256)
    coarse = burgers_solve(u0, 1e-2, 0.2, dt=1e-3)
    fine = burgers_solve(u0, 1e-2, 0.2, dt=2.5e-4)
    rel = np.linalg.norm(coarse - fine) / np.linalg.norm(fine)
    assert rel < 1e-8


def test_burgers_batched_equals_single():
    rng = substream(23, "batch")
    u0 = np.stack([grf_eval(grf_draw(rng, 20), np.arange(128) / 128)
                   for _ in range(3)])
    batch = burgers_solve(u0, 1e-2, 0.05, dt=5e-4)
    for i in range(3):
        np.testing.assert_array_equal(batch[i],
                                      burgers_solve(u0[i], 1e-2, 0.05, dt=5e-4))


def _textbook_etdrk4(u0, nu, dt, n_steps):
    """ETDRK4 as Kassam & Trefethen write it, one new array per operator."""
    n = u0.shape[1]
    k = 2.0 * np.pi * np.arange(n // 2 + 1)
    mask = np.arange(n // 2 + 1) <= n // 3
    e_full, e_half, q, f1, f2, f3 = _etdrk4_coeffs(-nu * k ** 2, dt)

    def nonlin(spec):
        field = np.fft.irfft(spec, n=n, axis=-1)
        return mask * (-0.5j * k) * np.fft.rfft(field * field, axis=-1)

    v = mask * np.fft.rfft(u0, axis=-1)
    for _ in range(n_steps):
        nv = nonlin(v)
        a = e_half * v + q * nv
        na = nonlin(a)
        b = e_half * v + q * na
        nb = nonlin(b)
        c = e_half * a + q * (2.0 * nb - nv)
        nc = nonlin(c)
        v = e_full * v + f1 * nv + 2.0 * f2 * (na + nb) + f3 * nc
    return np.fft.irfft(v, n=n, axis=-1)


def test_burgers_in_place_step_matches_the_textbook_step_bit_for_bit():
    rng = substream(29, "in-place")
    u0 = np.stack([grf_eval(grf_draw(rng, 63), np.arange(256) / 256) for _ in range(5)])
    got = burgers_solve(u0, 1e-3, 300 * 1e-4, dt=1e-4)
    assert got.tobytes() == _textbook_etdrk4(u0, 1e-3, 1e-4, 300).tobytes()


def test_burgers_step_count():
    assert step_count(1.0, 1e-4) == 10000 and step_count(0.0, 0.5) == 0
    for final_time, dt in ((0.00015, 1e-4), (-1.0, 0.1), (1.0, 0.0), (1.0, -0.1),
                           (1.0, 5e-324), (float("nan"), 0.1), (1.0, float("nan"))):
        assert step_count(final_time, dt) is None


def test_burgers_validation():
    u0 = np.zeros(64)
    with pytest.raises(ValueError):
        burgers_solve(u0, -1.0, 0.1)
    with pytest.raises(ValueError):
        burgers_solve(u0, 1e-2, 0.1, dt=3e-4)  # not a divisor
    with pytest.raises(ValueError):
        burgers_solve(np.zeros(4), 1e-2, 0.1)


# --- Riemann problems --------------------------------------------------------


def test_star_pressure_matches_bisection():
    p_newton, _ = solve_star(SOD)
    p_bisect = sod_star_pressure_bisect(SOD)
    assert abs(p_newton - p_bisect) < 1e-10
    rng = substream(31, "star")
    for _ in range(20):
        _, state = sod_params_sample(rng)
        p_n, _ = solve_star(state)
        assert abs(p_n - sod_star_pressure_bisect(state)) < 1e-9


def test_shock_satisfies_rankine_hugoniot():
    rng = substream(32, "rh")
    checked = 0
    for _ in range(40):
        _, state = sod_params_sample(rng)
        star = star_region(state)
        for side in ("left", "right"):
            if star[f"{side}_wave"] != "shock":
                continue
            res = rankine_hugoniot_residual(
                state, star["p_star"], star["u_star"], star[f"rho_star_{side[0]}"], side)
            assert res <= 1e-8
            checked += 1
    assert checked >= 10


def test_rarefaction_invariants():
    # Sod's left wave is a rarefaction: entropy p / rho^gamma and the Riemann
    # invariant u + 2 a / (gamma - 1) must be constant through the fan
    star = star_region(SOD)
    assert star["left_wave"] == "rarefaction"
    head, tail = star["left_speed"]
    t = 0.8
    x = np.linspace(head * t + 1e-6, tail * t - 1e-6, 50)
    rho, u, p = euler_riemann_exact(SOD, x, t)
    g = SOD.gamma
    a = np.sqrt(g * p / rho)
    np.testing.assert_allclose(p / rho ** g, SOD.p_l / SOD.rho_l ** g, rtol=1e-12)
    inv = u + 2.0 * a / (g - 1.0)
    a_l = np.sqrt(g * SOD.p_l / SOD.rho_l)
    np.testing.assert_allclose(inv, SOD.u_l + 2.0 * a_l / (g - 1.0), rtol=1e-12)


def test_contact_jump_and_far_field():
    star = star_region(SOD)
    t = 1.0
    eps = 1e-9
    u_c = star["u_star"] * t
    rho, u, p = euler_riemann_exact(SOD, np.array([-4.9, u_c - eps, u_c + eps, 4.9]), t)
    # far field untouched at t=1 on (-5, 5)
    assert (rho[0], u[0], p[0]) == (SOD.rho_l, SOD.u_l, SOD.p_l)
    assert (rho[3], u[3], p[3]) == (SOD.rho_r, SOD.u_r, SOD.p_r)
    # pressure and velocity continuous across the contact, density jumps
    assert abs(p[1] - p[2]) < 1e-9 and abs(u[1] - u[2]) < 1e-9
    assert abs(rho[1] - rho[2]) > 1e-2
    np.testing.assert_allclose(rho[1], star["rho_star_l"], rtol=1e-9)
    np.testing.assert_allclose(rho[2], star["rho_star_r"], rtol=1e-9)


def test_state_from_latent_vector():
    mid = riemann_state_from_z(np.full(6, 0.5))
    assert (mid.rho_l, mid.rho_r, mid.u_l) == (0.75, 0.4, 0.5)
    assert (mid.p_l, mid.p_r, mid.u_r, mid.x0) == (2.5, 0.375, 0.0, 0.0)
    with pytest.raises(ValueError):
        riemann_state_from_z(np.full(6, 1.5))
    with pytest.raises(ValueError):
        riemann_state_from_z(np.zeros(5))
    with pytest.raises(ValueError):
        euler_riemann_exact(SOD, np.zeros(3), 0.0)


def test_mirrored_problem_gives_the_mirrored_solution():
    # x, u -> -x, -u swaps the two waves, so the mirrored problem solved at -x
    # gives (rho, -u, p) bit for bit, but at the contact ray, which both
    # problems sample from their left side. General states sit at x0 = 0 and
    # t is a power of 2, so that their rays on each wave speed are exact
    def bits(*values):
        return [np.asarray(v, dtype=np.float64).tobytes() for v in values]

    rng = substream(36, "mirror")
    checked = 0
    for k in range(400):
        if k % 2:
            _, state = sod_params_sample(rng)
        else:
            rho_l, rho_r, p_l, p_r = rng.uniform(0.1, 3.0, 4)
            u_l, u_r = rng.normal(0.0, 1.5, 2)
            state = RiemannState(rho_l, u_l, p_l, rho_r, u_r, p_r)
        mirrored = RiemannState(state.rho_r, -state.u_r, state.p_r,
                                state.rho_l, -state.u_l, state.p_l, x0=-state.x0)
        try:
            star = star_region(state)
        except ValueError:  # vacuum
            continue
        flip = star_region(mirrored)
        assert (flip["left_wave"], flip["right_wave"]) == (star["right_wave"], star["left_wave"])
        assert bits(flip["p_star"], flip["u_star"], flip["rho_star_l"], flip["rho_star_r"]) == \
            bits(star["p_star"], -star["u_star"], star["rho_star_r"], star["rho_star_l"])
        # a shock's speed or a rarefaction's (head, tail), negated
        assert bits(flip["left_speed"], flip["right_speed"]) == \
            bits(-np.asarray(star["right_speed"]), -np.asarray(star["left_speed"]))
        speeds = np.hstack([star["left_speed"], star["right_speed"]])
        t = 0.5
        x = state.x0 + t * np.concatenate([rng.uniform(-4.0, 4.0, 64), speeds])
        on_contact = (x - state.x0) / t == star["u_star"]
        rho, u, p = (v[~on_contact] for v in euler_riemann_exact(state, x, t))
        m_rho, m_u, m_p = (v[~on_contact] for v in euler_riemann_exact(mirrored, -x, t))
        assert bits(m_rho, m_u, m_p) == bits(rho, -u, p)
        checked += 1
    assert checked >= 300


def test_vacuum_detection():
    with pytest.raises(ValueError):
        solve_star(RiemannState(rho_l=1.0, u_l=-20.0, p_l=1.0,
                                rho_r=1.0, u_r=20.0, p_r=1.0))


def test_total_energy_formula():
    np.testing.assert_allclose(total_energy(2.0, 3.0, 1.4), 0.5 * 2 * 9 + 1.4 / 0.4)


# --- dataset assembly --------------------------------------------------------


def test_advection_dataset_closed_loop(tmp_path):
    data = dataset_build("advection", seed=5, counts={"train": 4, "val": 2},
                         params={"n_grid": 256})
    ds = data["train"]
    assert ds.inputs.shape == (4, 3) and ds.outputs.shape == (4, 256)
    # outputs must be reproducible from the encoded inputs alone
    for i in range(4):
        h, w, s = ds.inputs[i]
        expect = advection_exact(BoxWaveParams(h, w, s), ds.x_grid,
                                 ds.params["speed"], ds.params["final_time"])
        np.testing.assert_array_equal(ds.outputs[i], expect)
    rebuilt = dataset_build("advection", seed=5, counts={"train": 4, "val": 2},
                            params={"n_grid": 256})
    np.testing.assert_array_equal(rebuilt["val"].outputs, data["val"].outputs)

    save_dataset(tmp_path / "d", data)
    back = load_dataset(tmp_path / "d")
    assert set(back) == {"train", "val"}
    np.testing.assert_array_equal(back["train"].inputs, ds.inputs)
    np.testing.assert_array_equal(back["train"].outputs, ds.outputs)
    assert back["train"].params["speed"] == 1.0


def test_burgers_dataset_inputs_match_draws():
    data = dataset_build("burgers", seed=9, counts={"test": 3},
                         params={"final_time": 0.01, "dt": 1e-3, "n_modes": 64,
                                 "sensors": 16, "grf_modes": 20,
                                 "grf_convention": "integer"})
    ds = data["test"]
    assert ds.inputs.shape == (3, 16) and ds.outputs.shape == (3, 64)
    sensor_grid = np.arange(16) / 16
    for i in range(3):
        rng = substream(9, "burgers", "test", str(i))
        coeffs = grf_draw(rng, 20, "integer")
        np.testing.assert_array_equal(ds.inputs[i], grf_eval(coeffs, sensor_grid))


def test_sod_dataset_closed_loop():
    data = dataset_build("sod", seed=2, counts={"test": 3}, params={"n_grid": 128})
    ds = data["test"]
    assert ds.inputs.shape == (3, 6)
    for i in range(3):
        state = riemann_state_from_z(ds.inputs[i])
        rho, u, p = euler_riemann_exact(state, ds.x_grid, ds.params["final_time"])
        np.testing.assert_array_equal(ds.outputs[i], total_energy(rho, u, p))


def test_dataset_validation(tmp_path):
    with pytest.raises(ValueError):
        dataset_build("poisson", seed=0, counts={"train": 1})
    with pytest.raises(ValueError):
        dataset_build("advection", seed=0, counts={"train": 0})
    with pytest.raises(ValueError):
        dataset_build("advection", seed=0, counts={"train": 1},
                      params={"viscosity": 1.0})
    with pytest.raises(ValueError):
        load_dataset(tmp_path)
    with pytest.raises(ValueError):
        PdeDataset("advection", np.zeros((2, 3)), np.zeros((3, 8)),
                   np.zeros(8), 0, {})
    with pytest.raises(ValueError):  # one field per sample, no time axis
        PdeDataset("burgers", np.zeros((2, 3)), np.zeros((2, 4, 8)),
                   np.zeros(8), 0, {})


# --- the dataset loader on corrupt directories --------------------------------


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """A scratch directory and the files of a small valid dataset."""
    root = tmp_path_factory.mktemp("data")
    save_dataset(root / "good", dataset_build("advection", seed=1, counts={"train": 4, "val": 2},
                                              params={"n_grid": 64}))
    return root, snapshot(root / "good")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_datasets_raise_value_error_without_large_reads(dataset_dir, data):
    root, good = dataset_dir
    restore(root / "corrupt", corrupt(good, data))
    try:
        datasets = load_guarded(load_dataset, root / "corrupt")
    except ValueError:
        # reading one split checks the files of the others all the same
        with pytest.raises(ValueError):
            load_guarded(lambda path: load_dataset(path, ("val",)), root / "corrupt")
        return
    # a corruption that keeps the dataset well formed loads as valid splits,
    # each with the row count its manifest entry gives
    splits = json.loads((root / "corrupt" / "manifest.json").read_text())["splits"]
    for split, ds in datasets.items():
        assert ds.inputs.ndim == ds.outputs.ndim == 2
        assert ds.inputs.shape[0] == ds.outputs.shape[0] == splits[split]["n_samples"]
        assert ds.x_grid.ndim == 1


def _with_outputs_shape(good, shape):
    files = dict(good)
    header, body = split_npy(files["outputs_train.npy"])
    files["outputs_train.npy"] = join_npy(dict(header, shape=shape), body)
    return files


def test_dataset_header_claiming_a_huge_array_is_refused_before_allocating(dataset_dir,
                                                                          tmp_path):
    restore(tmp_path, _with_outputs_shape(dataset_dir[1], (10**6, 10**6)))
    with pytest.raises(ValueError, match="bytes of data"):
        load_guarded(load_dataset, tmp_path)


def test_dataset_header_claiming_fewer_elements_than_the_file_is_refused(dataset_dir,
                                                                        tmp_path):
    restore(tmp_path, _with_outputs_shape(dataset_dir[1], (4, 63)))
    with pytest.raises(ValueError, match="bytes of data"):
        load_dataset(tmp_path)


def test_dataset_manifest_that_is_not_an_object_is_refused(dataset_dir, tmp_path):
    restore(tmp_path, dict(dataset_dir[1], **{"manifest.json": b'["train", "val"]'}))
    with pytest.raises(ValueError, match="JSON object"):
        load_dataset(tmp_path)


def test_reading_some_splits_loads_those_and_checks_the_rest(dataset_dir, tmp_path):
    root, good = dataset_dir
    full = load_dataset(root / "good")
    some = load_dataset(root / "good", ("val", "holdout"))  # a name it lacks is left out
    assert set(some) == {"val"}
    for name in ("inputs", "outputs", "x_grid"):
        np.testing.assert_array_equal(getattr(some["val"], name), getattr(full["val"], name))
    header, body = split_npy(good["outputs_train.npy"])
    three_rows = join_npy(dict(header, shape=(3, 64)), body[:3 * 64 * 8])
    for files, match in ((_with_outputs_shape(good, (10**6, 10**6)), "bytes of data"),
                         (_with_outputs_shape(good, (4, 63)), "bytes of data"),
                         (dict(good, **{"outputs_train.npy": three_rows}), "n_samples"),
                         (dict(good, **{"outputs_train.npy": join_npy(
                             dict(header, descr="<f4"), body)}), "expected <f8")):
        restore(tmp_path, files)
        with pytest.raises(ValueError, match=match):
            load_guarded(lambda path: load_dataset(path, ("val",)), tmp_path)


def test_reading_some_columns_loads_those_and_checks_the_rest(dataset_dir, tmp_path,
                                                              monkeypatch):
    from radonet import store

    root, good = dataset_dir
    read = []
    real_fromfile = np.fromfile

    def fromfile(fh, *args, **kwargs):
        read.append(Path(fh.name).name)
        return real_fromfile(fh, *args, **kwargs)

    monkeypatch.setattr(np, "fromfile", fromfile)

    def read_inputs(path, splits=("val",)):
        return store.read_splits(path, "dataset", 1, {}, {"x_grid": 1},
                                 {"inputs": 2, "outputs": 2}, splits, ("inputs",))[2]

    loaded = read_inputs(root / "good")
    assert set(loaded) == {"val"} and set(loaded["val"]) == {"inputs"}
    assert sorted(read) == ["inputs_val.npy", "x_grid.npy"]
    np.testing.assert_array_equal(loaded["val"]["inputs"],
                                  load_dataset(root / "good")["val"].inputs)
    inputs_only = load_dataset(root / "good", ("val",), outputs=False)["val"]
    assert inputs_only.outputs.shape == (len(inputs_only.inputs), 0)
    # a bad outputs column is refused in the split that is read and in the one that is not
    for split in ("val", "train"):
        name = f"outputs_{split}.npy"
        header, body = split_npy(good[name])
        rows = header["shape"][0]
        one_short = join_npy(dict(header, shape=(rows - 1, 64)), body[:(rows - 1) * 64 * 8])
        for blob, match in ((join_npy(dict(header, shape=(10**6, 10**6)), body), "bytes of data"),
                            (join_npy(dict(header, shape=(rows, 63)), body), "bytes of data"),
                            (one_short, "n_samples"),
                            (join_npy(dict(header, descr="<f4"), body), "expected <f8")):
            restore(tmp_path, dict(good, **{name: blob}))
            with pytest.raises(ValueError, match=match) as exc:
                load_guarded(read_inputs, tmp_path)
            assert name in str(exc.value) or match == "n_samples"
