import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radonet.equidistribution import (
    DensityField,
    PreprocessedSet,
    close_periodic,
    density_arclength,
    equidistribute_1d,
    equidistribution_residual,
    limit_density_ratio,
    load_preprocessed,
    preprocess_sample,
    save_preprocessed,
    weight_coordinate,
    weight_solution,
)
from radonet.nn import substream
from radonet.reconstruct import fd_derivative

from containers import corrupt, join_npy, load_guarded, restore, snapshot, split_npy
from oracles import equidistribute_refined, limit_density_ratio_full_hull


def box_signal(m=2048, lo_edge=0.3, hi_edge=0.55, height=0.8):
    """Sharp rectangular pulse on a periodic unit grid (right end excluded)."""
    x = np.arange(m) / m
    return x, np.where((x >= lo_edge) & (x < hi_edge), height, 0.0)


# --- density construction ---------------------------------------------------


@pytest.mark.parametrize("m", [2048, 256, 7])
def test_closed_periodic_table_interpolates_like_period(m):
    # on a grid starting at 0, plain np.interp on the closed table gives the
    # bits of np.interp(period=), for one field and for each row of a stack
    rng = np.random.default_rng(m)
    x = np.arange(m) / m
    fields = rng.standard_normal((3, m))
    q = np.concatenate([np.arange(128) / 128, rng.uniform(0.0, 1.0, 200), [x[-1], 1.0]])
    grid, closed = close_periodic(x, fields, 1.0)
    assert grid[-1] == 1.0 and closed.shape == (3, m + 1)
    for row, closed_row in zip(fields, closed):
        want = np.interp(q, x, row, period=1.0)
        assert np.interp(q, grid, closed_row).tobytes() == want.tobytes()
        assert np.interp(q, *close_periodic(x, row, 1.0)).tobytes() == want.tobytes()


def test_density_constant_slope():
    # u = g*x gives rho = sqrt(1 + g^2) everywhere, no smoothing needed
    g = 3.0
    x = np.linspace(0.0, 1.0, 101)
    rho = density_arclength(g * x, dx=0.01, smoothing_passes=0)
    np.testing.assert_allclose(rho.values, np.sqrt(1.0 + g * g), rtol=1e-12)


def test_density_beta_scaling():
    x = np.linspace(0.0, 1.0, 201)
    u = np.sin(2.0 * np.pi * x)
    r1 = density_arclength(u, dx=x[1], smoothing_passes=0, beta=4.0)
    du = np.gradient(u, x[1], edge_order=1)
    # interior points use the same central difference
    np.testing.assert_allclose(r1.values[1:-1], np.sqrt(1.0 + 4.0 * du[1:-1] ** 2),
                               rtol=1e-10)
    assert np.all(r1.values >= 1.0)


def test_density_validation():
    with pytest.raises(ValueError):
        density_arclength(np.array([1.0, 2.0]), dx=0.1)
    with pytest.raises(ValueError):
        density_arclength(np.array([1.0, np.nan, 2.0]), dx=0.1)
    with pytest.raises(ValueError):
        density_arclength(np.zeros(5), dx=0.1, beta=-1.0)
    with pytest.raises(ValueError):
        DensityField(values=np.array([1.0, -1.0, 1.0]), dx=0.1)


# --- equidistribution -------------------------------------------------------


def test_equidistribute_constant_density_is_uniform():
    rho = DensityField(values=np.full(64, 2.5), dx=1.0 / 63.0)
    x = equidistribute_1d(rho, 16)
    np.testing.assert_allclose(x, np.linspace(0.0, 1.0, 17), atol=1e-12)


def test_equidistribute_linear_density_closed_form():
    # rho(x) = 1 + x on [0, 1]: cumulative mass x + x^2/2 (trapezoid is exact
    # for a piecewise-linear density), so x(s) = sqrt(1 + 3 s) - 1 for
    # equal-mass fractions s in [0, 1].
    grid = np.linspace(0.0, 1.0, 401)
    rho = DensityField(values=1.0 + grid, dx=grid[1])
    for n_xi in (4, 16, 50):
        x = equidistribute_1d(rho, n_xi)
        s = np.linspace(0.0, 1.0, n_xi + 1)
        np.testing.assert_allclose(x, np.sqrt(1.0 + 3.0 * s) - 1.0, atol=1e-12)


def test_equidistribute_matches_refined_oracle():
    _, u = box_signal()
    rho = density_arclength(u, dx=1.0 / 2048, periodic=True)
    rho = limit_density_ratio(rho, 64)
    x = equidistribute_1d(rho, 64)
    x_ref = equidistribute_refined(rho.values, rho.dx, 64, x0=0.0, periodic=True)
    np.testing.assert_allclose(x, x_ref, atol=1e-7)


def test_equidistribute_equal_cell_masses():
    grid = np.linspace(0.0, 1.0, 1001)
    rho = DensityField(values=1.0 + 0.8 * np.sin(3.0 * np.pi * grid) ** 2, dx=grid[1])
    x = equidistribute_1d(rho, 20)
    # integrate the piecewise-linear density between consecutive knots on a
    # dense auxiliary grid; all cells should carry the same mass
    masses = []
    for a, b in zip(x[:-1], x[1:]):
        xx = np.linspace(a, b, 2000)
        masses.append(np.trapezoid(np.interp(xx, grid, rho.values), xx))
    masses = np.array(masses)
    assert np.max(np.abs(masses - masses.mean())) / masses.mean() < 1e-5


def _mass_at(rho: DensityField, x: np.ndarray) -> np.ndarray:
    """Integral of the piecewise-linear density from its first grid point to x,
    exact up to rounding (the wrap cell closes a periodic density)."""
    vals = np.append(rho.values, rho.values[0]) if rho.periodic else rho.values
    cells = np.concatenate(([0.0], np.cumsum(rho.dx * 0.5 * (vals[:-1] + vals[1:]))))
    i = np.clip(np.floor((x - rho.x0) / rho.dx).astype(int), 0, vals.size - 2)
    t = (x - rho.x0 - rho.dx * i) / rho.dx
    return cells[i] + rho.dx * t * (vals[i] + 0.5 * t * (vals[i + 1] - vals[i]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=60), st.floats(1e-3, 10.0),
       st.floats(-5.0, 5.0), st.booleans(), st.integers(1, 64))
def test_equidistribute_pins_the_ends_and_equalises_cell_masses(values, dx, x0, periodic,
                                                               n_xi):
    rho = DensityField(values=np.array(values), dx=dx, x0=x0, periodic=periodic)
    x = equidistribute_1d(rho, n_xi)
    assert x.shape == (n_xi + 1,) and np.all(np.diff(x) > 0.0)
    assert x[0] == x0 and x[-1] == x0 + dx * (len(values) - (0 if periodic else 1))
    masses = np.diff(_mass_at(rho, x))
    total = _mass_at(rho, x[-1:])[0]
    np.testing.assert_allclose(masses, total / n_xi, rtol=1e-10, atol=0.0)


def test_equidistribute_periodic_mass_includes_wrap_cell():
    # periodic density omits the right endpoint; the wrap cell must count
    vals = np.array([1.0, 1.0, 1.0, 3.0])
    rho = DensityField(values=vals, dx=0.25, periodic=True)
    x = equidistribute_1d(rho, 2)
    # total mass: cells (1,1),(1,1),(1,3),(3,1) -> 0.25*(1+1+2+2) = 1.5
    # half-mass point 0.75 sits where cumulative mass hits 0.75: inside the
    # third cell (starts at 0.5 with mass 0.5 already): 1*s + s^2 = 0.25/0.25
    # solve s + s^2 = 1 -> s = (sqrt(5)-1)/2, x = 0.5 + 0.25*s
    s = (np.sqrt(5.0) - 1.0) / 2.0
    np.testing.assert_allclose(x, [0.0, 0.5 + 0.25 * s, 1.0], atol=1e-12)


def test_equidistribute_validation():
    rho = DensityField(values=np.ones(8), dx=0.1)
    with pytest.raises(ValueError):
        equidistribute_1d(rho, 0)


# --- ratio limiting ---------------------------------------------------------


def test_limiter_keeps_flat_density_flat():
    rho = DensityField(values=np.full(256, 1.7), dx=1.0 / 255)
    out = limit_density_ratio(rho, 32)
    assert out.values.shape == rho.values.shape
    np.testing.assert_allclose(out.values, 1.7, rtol=0.05)


def test_limiter_bounds_adjacent_cell_ratio():
    _, u = box_signal()
    raw = density_arclength(u, dx=1.0 / 2048, periodic=True)

    x_raw = equidistribute_1d(raw, 64)
    log_ratio_raw = np.abs(np.diff(np.log(np.diff(x_raw))))
    assert np.max(log_ratio_raw) > 1.0  # untreated spike: wild cell jumps

    lam = 0.3
    x_lim = equidistribute_1d(limit_density_ratio(raw, 64, lam), 64)
    log_ratio = np.abs(np.diff(np.log(np.diff(x_lim))))
    assert np.max(log_ratio) < 1.6 * lam


def test_limiter_preserves_peak_resolution():
    # the jump cells should stay near raw-grid width so the reconstruction
    # accuracy of the adaptive interpolant is not lost
    _, u = box_signal()
    raw = density_arclength(u, dx=1.0 / 2048, periodic=True)
    x = equidistribute_1d(limit_density_ratio(raw, 128), 128)
    assert np.min(np.diff(x)) < 4.0 / 2048


@pytest.mark.parametrize("periodic", [True, False])
def test_limiter_matches_the_full_hull_bit_for_bit(periodic):
    # the package sweeps only the middle copy of a periodic field
    rng = substream(5, "limiter", str(periodic))
    for m, n_xi in ((3, 2), (64, 16), (256, 64), (1024, 128), (2048, 128)):
        for spread in (0.1, 2.0, 6.0):  # gentle to spiky: log-normal densities
            values = np.exp(spread * rng.standard_normal(m))
            dx = 1.0 / m if periodic else 1.0 / (m - 1)
            rho = DensityField(values=values, dx=dx, x0=-0.5, periodic=periodic)
            for lam in (0.1, 0.3):
                got = limit_density_ratio(rho, n_xi, lam)
                want = limit_density_ratio_full_hull(values, dx, n_xi, periodic, lam)
                assert got.values.tobytes() == want.tobytes(), (m, n_xi, spread, lam)


def test_limiter_takes_a_ratio_cap_past_float_range_as_no_cap():
    # exp(0.6 * 10 * 512 / 4) is past float range: np.exp overflowed with a
    # RuntimeWarning (an error under this suite's filter), and the min with
    # an infinite cap is the cap the mesh wants, as the oracle computes it
    _, u = box_signal(m=64)
    rho = density_arclength(u, dx=1.0 / 64, periodic=True)
    got = limit_density_ratio(rho, 512, max_log_ratio=10.0)
    with np.errstate(over="ignore"):
        want = limit_density_ratio_full_hull(rho.values, rho.dx, 512, True, 10.0)
    assert got.values.tobytes() == want.tobytes()


def test_limiter_validation():
    rho = DensityField(values=np.ones(16), dx=0.1)
    with pytest.raises(ValueError):
        limit_density_ratio(rho, 16, max_log_ratio=0.0)
    with pytest.raises(ValueError):
        limit_density_ratio(rho, 0)


# --- jacobian and weights ---------------------------------------------------


def test_jacobian_linear_mesh():
    # the mesh Jacobian dx/dxi is fd_derivative of the knots on the xi spacing
    x = np.linspace(0.0, 2.0, 33)
    np.testing.assert_allclose(fd_derivative(x, 1.0 / 32), 2.0, rtol=1e-12)


def test_weight_formulas_and_caps():
    d = np.array([0.0, 1.0, 50.0])
    np.testing.assert_allclose(weight_solution(d), [1.0, np.sqrt(2.0), 2.0])
    np.testing.assert_allclose(weight_solution(d, cap=10.0)[2], 10.0)
    g = np.array([0.0, 2.0, 30.0])
    expected = np.minimum(100.0, np.sqrt(1.0 + g ** 4 * d ** 2))
    np.testing.assert_allclose(weight_coordinate(g, d), expected)
    with pytest.raises(ValueError):
        weight_solution(d, cap=0.5)
    with pytest.raises(ValueError):
        weight_coordinate(g, d, cap=0.0)


# --- sample preprocessing ---------------------------------------------------


def test_preprocess_sample_shapes_and_invariants():
    _, u = box_signal()
    s = preprocess_sample(u, (0.0, 1.0), 64, periodic=True)
    assert set(s) == {"x", "u", "w_sol", "w_coord"}
    assert all(col.shape == (65,) for col in s.values())
    assert s["x"][0] == 0.0 and s["x"][-1] == 1.0
    assert np.all(np.diff(s["x"]) > 0.0)
    assert np.all((s["w_sol"] >= 1.0) & (s["w_sol"] <= 2.0))
    assert np.all((s["w_coord"] >= 1.0) & (s["w_coord"] <= 100.0))
    # the weights come from the mesh Jacobian on the computational grid
    det_j = fd_derivative(s["x"], 1.0 / 64)
    np.testing.assert_array_equal(s["w_sol"], weight_solution(det_j))
    # solution on the mesh is the raw field sampled at the adaptive knots
    grid = np.arange(2048) / 2048
    np.testing.assert_allclose(
        s["u"], np.interp(s["x"], np.append(grid, 1.0), np.append(u, u[0])), atol=1e-12)


def test_preprocess_residual_invariant_small():
    _, u = box_signal()
    rho = density_arclength(u, dx=1.0 / 2048, periodic=True)
    rho = limit_density_ratio(rho, 64)
    s = preprocess_sample(u, (0.0, 1.0), 64, periodic=True)
    assert equidistribution_residual(s["x"], rho) <= 0.05


def test_preprocess_raw_density_concentrates_knots():
    # without the ratio limiter, the arc-length monitor puts most knots into
    # the two jump layers: each jump carries mass ~ height >> flat mass
    _, u = box_signal(height=2.0)
    s = preprocess_sample(u, (0.0, 1.0), 64, periodic=True, ratio_limit=None)
    near_jump = (np.abs(s["x"] - 0.3) < 0.01) | (np.abs(s["x"] - 0.55) < 0.01)
    assert np.count_nonzero(near_jump) >= 33


def test_preprocess_sample_validation():
    with pytest.raises(ValueError):
        preprocess_sample(np.ones(10), (1.0, 0.0), 4)
    with pytest.raises(ValueError):
        preprocess_sample(np.ones((3, 4)), (0.0, 1.0), 4)


# --- container round trip ---------------------------------------------------


def _small_set(n_xi, offsets, m=2048, problem="unit-test"):
    _, u = box_signal(m=m)
    samples = [preprocess_sample(np.roll(u, k), (0.0, 1.0), n_xi, periodic=True)
               for k in offsets]
    return PreprocessedSet(problem, np.linspace(0.0, 1.0, n_xi + 1),
                           **{name: np.stack([s[name] for s in samples])
                              for name in PreprocessedSet.ROW_COLUMNS})


def test_preprocessed_container_roundtrip(tmp_path):
    sets = {"train": _small_set(16, (0, 100, 200)), "val": _small_set(16, (300,))}
    path = tmp_path / "set"
    save_preprocessed(path, sets)
    back = load_preprocessed(path)
    assert set(back) == {"train", "val"}
    for split, pset in sets.items():
        for name in ("xi", *PreprocessedSet.ROW_COLUMNS):
            np.testing.assert_array_equal(getattr(back[split], name), getattr(pset, name))
        assert back[split].problem == "unit-test"
    val = load_preprocessed(path, ("val",))  # one split's data only
    assert set(val) == {"val"}
    np.testing.assert_array_equal(val["val"].x, sets["val"].x)

    # byte-identical rewrite
    save_preprocessed(tmp_path / "again", back)
    assert snapshot(tmp_path / "again") == snapshot(path)


def test_preprocessed_container_rejects_junk(tmp_path):
    with pytest.raises(ValueError, match="manifest.json"):
        load_preprocessed(tmp_path)
    (tmp_path / "manifest.json").write_text("[" * 100_000)
    with pytest.raises(ValueError):
        load_preprocessed(tmp_path)
    (tmp_path / "manifest.json").write_text('{"format_version": 1, "meta": {}, "splits": {}}')
    with pytest.raises(ValueError, match="format version 1"):
        load_preprocessed(tmp_path)
    (tmp_path / "manifest.json").write_text('{"format_version": 3, "problem": "advection", '
                                             '"splits": {}}')
    with pytest.raises(ValueError, match="'splits' is empty"):
        load_preprocessed(tmp_path)
    pset = _small_set(8, (0,))
    save_preprocessed(tmp_path, {"train": pset})
    (tmp_path / "manifest.json").write_text('{"format_version": 3, "problem": "advection", '
                                             '"splits": {"train": {"n_samples": 2}}}')
    with pytest.raises(ValueError, match="n_samples"):  # one row per sample counted
        load_preprocessed(tmp_path)
    (tmp_path / "x_train.npy").write_bytes(b"\x93NUMPY not a header\n1234")
    with pytest.raises(ValueError, match="x_train.npy"):
        load_preprocessed(tmp_path)
    with pytest.raises(ValueError, match="share xi"):  # one xi per artifact
        save_preprocessed(tmp_path, {"train": pset, "val": _small_set(16, (0,))})
    with pytest.raises(ValueError, match="share xi and problem"):
        save_preprocessed(tmp_path, {"train": pset, "val": _small_set(8, (0,), problem="sod")})
    with pytest.raises(ValueError):  # one mesh per sample, no time axis
        PreprocessedSet("unit-test", pset.xi, **{name: getattr(pset, name)[:, None]
                                                 for name in PreprocessedSet.ROW_COLUMNS})


def test_format_2_preprocessed_set_is_refused(tmp_path):
    # format 2 also stored det_j, int64 sample_ids and a meta object; its
    # columns are not read as a format 3 set
    save_preprocessed(tmp_path, {"train": _small_set(8, (0, 40), m=256)})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest.update(format_version=2, meta={"problem": "unit-test", "n_xi": 8})
    del manifest["problem"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    np.save(tmp_path / "sample_ids_train.npy", np.arange(2, dtype="<i8"))
    np.save(tmp_path / "det_j_train.npy", np.ones((2, 9)))
    with pytest.raises(ValueError, match="format version 2 unsupported"):
        load_preprocessed(tmp_path)


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    """A scratch directory and the files of a small valid preprocessed set."""
    root = tmp_path_factory.mktemp("prep")
    save_preprocessed(root / "good", {"train": _small_set(8, (0, 40), m=256),
                                      "val": _small_set(8, (80,), m=256)})
    return root, snapshot(root / "good")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_containers_raise_value_error_without_large_reads(container, data):
    root, good = container
    restore(root / "corrupt", corrupt(good, data))
    try:
        sets = load_guarded(load_preprocessed, root / "corrupt")
    except ValueError:
        return
    # a corruption that keeps the container well formed loads as valid sets,
    # each with the row count its manifest entry gives
    splits = json.loads((root / "corrupt" / "manifest.json").read_text())["splits"]
    for split, pset in sets.items():
        assert pset.x.shape[0] == splits[split]["n_samples"]
        assert pset.x.shape == pset.u.shape == pset.w_sol.shape == pset.w_coord.shape
        assert pset.xi.shape == (pset.x.shape[1],)
        assert pset.x.dtype == np.float64


def test_container_header_cannot_claim_more_than_the_file(tmp_path, container):
    files = dict(container[1])
    header, body = split_npy(files["x_train.npy"])
    files["x_train.npy"] = join_npy(dict(header, shape=(10**12, 10**6)), body)
    restore(tmp_path / "huge", files)
    with pytest.raises(ValueError, match="bytes of data"):
        load_guarded(load_preprocessed, tmp_path / "huge")
