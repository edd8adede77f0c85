import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radonet import equidistribution
from radonet.equidistribution import (
    AdaptiveSample,
    DensityField,
    PreprocessedSet,
    density_arclength,
    equidistribute_1d,
    equidistribution_residual,
    jacobian_det_1d,
    limit_density_ratio,
    load_preprocessed,
    preprocess_sample,
    preprocess_spacetime,
    save_preprocessed,
    weight_coordinate,
    weight_solution,
)

from oracles import equidistribute_refined


def box_signal(m=2048, lo_edge=0.3, hi_edge=0.55, height=0.8):
    """Sharp rectangular pulse on a periodic unit grid (right end excluded)."""
    x = np.arange(m) / m
    return x, np.where((x >= lo_edge) & (x < hi_edge), height, 0.0)


# --- density construction ---------------------------------------------------


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


def test_limiter_validation():
    rho = DensityField(values=np.ones(16), dx=0.1)
    with pytest.raises(ValueError):
        limit_density_ratio(rho, 16, max_log_ratio=0.0)
    with pytest.raises(ValueError):
        limit_density_ratio(rho, 0)


# --- jacobian and weights ---------------------------------------------------


def test_jacobian_linear_mesh():
    x = np.linspace(0.0, 2.0, 33)
    det = jacobian_det_1d(x, dxi=1.0 / 32)
    np.testing.assert_allclose(det, 2.0, rtol=1e-12)
    with pytest.raises(ValueError):
        jacobian_det_1d(x[::-1], dxi=1.0 / 32)
    with pytest.raises(ValueError):
        jacobian_det_1d(x, dxi=0.0)


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
    assert s.x.shape == (65,)
    np.testing.assert_allclose(s.xi, np.linspace(0.0, 1.0, 65), atol=1e-15)
    assert s.x[0] == 0.0 and s.x[-1] == 1.0
    assert np.all(np.diff(s.x) > 0.0)
    assert np.all(s.det_j > 0.0)
    assert np.all((s.w_sol >= 1.0) & (s.w_sol <= 2.0))
    assert np.all((s.w_coord >= 1.0) & (s.w_coord <= 100.0))
    # solution on the mesh is the raw field sampled at the adaptive knots
    grid = np.arange(2048) / 2048
    np.testing.assert_allclose(
        s.u, np.interp(s.x, np.append(grid, 1.0), np.append(u, u[0])), atol=1e-12)


def test_preprocess_residual_invariant_small():
    _, u = box_signal()
    rho = density_arclength(u, dx=1.0 / 2048, periodic=True)
    rho = limit_density_ratio(rho, 64)
    s = preprocess_sample(u, (0.0, 1.0), 64, periodic=True)
    assert equidistribution_residual(s, rho) <= 0.05


def test_preprocess_raw_density_concentrates_knots():
    # without the ratio limiter, the arc-length monitor puts most knots into
    # the two jump layers: each jump carries mass ~ height >> flat mass
    _, u = box_signal(height=2.0)
    s = preprocess_sample(u, (0.0, 1.0), 64, periodic=True, ratio_limit=None)
    near_jump = (np.abs(s.x - 0.3) < 0.01) | (np.abs(s.x - 0.55) < 0.01)
    assert np.count_nonzero(near_jump) >= 33


def test_preprocess_sample_validation():
    with pytest.raises(ValueError):
        preprocess_sample(np.ones(10), (1.0, 0.0), 4)
    with pytest.raises(ValueError):
        preprocess_sample(np.ones((3, 4)), (0.0, 1.0), 4)


def test_preprocess_spacetime_rows_match_single():
    x = np.linspace(-5.0, 5.0, 513)
    rows = np.stack([np.tanh(4.0 * (x - c)) for c in (-1.0, 0.0, 2.0)])
    samples = preprocess_spacetime(rows, (-5.0, 5.0), 32)
    assert len(samples) == 3
    for i, s in enumerate(samples):
        ref = preprocess_sample(rows[i], (-5.0, 5.0), 32)
        np.testing.assert_array_equal(s.x, ref.x)
        np.testing.assert_array_equal(s.u, ref.u)
    with pytest.raises(ValueError):
        preprocess_spacetime(x, (-5.0, 5.0), 32)


def test_adaptive_sample_shape_check():
    xi = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        AdaptiveSample(xi=xi, x=xi, u=xi[:-1], det_j=xi, w_sol=xi, w_coord=xi)


# --- container round trip ---------------------------------------------------


def test_preprocessed_container_roundtrip(tmp_path):
    _, u = box_signal()
    samples = [preprocess_sample(np.roll(u, 100 * k), (0.0, 1.0), 16, periodic=True)
               for k in range(3)]
    pset = PreprocessedSet.from_samples(samples, sample_ids=[5, 9, 11],
                                        meta={"problem": "unit-test", "n_xi": 16})
    path = tmp_path / "set.rnp"
    save_preprocessed(path, pset)
    back = load_preprocessed(path)
    for name in PreprocessedSet._FLOAT_COLUMNS:
        np.testing.assert_array_equal(getattr(back, name), getattr(pset, name))
    np.testing.assert_array_equal(back.sample_ids, [5, 9, 11])
    assert back.meta == pset.meta

    # byte-identical rewrite
    save_preprocessed(tmp_path / "again.rnp", back)
    assert (tmp_path / "again.rnp").read_bytes() == path.read_bytes()


def test_preprocessed_container_rejects_junk(tmp_path):
    bad = tmp_path / "bad.rnp"
    bad.write_bytes(b"\x93NUMPY not a header\n1234")
    with pytest.raises(ValueError):
        load_preprocessed(bad)
    wrong = tmp_path / "wrong.rnp"
    wrong.write_bytes(b'{"format": "something-else", "columns": []}\n')
    with pytest.raises(ValueError):
        load_preprocessed(wrong)
    deep = tmp_path / "deep.rnp"
    deep.write_bytes(b"[" * 100_000 + b"\n")
    with pytest.raises(ValueError):
        load_preprocessed(deep)
    _, u = box_signal()
    pset = PreprocessedSet.from_samples(
        [preprocess_sample(u, (0.0, 1.0), 8, periodic=True)])
    good = tmp_path / "good.rnp"
    save_preprocessed(good, pset)
    truncated = tmp_path / "trunc.rnp"
    truncated.write_bytes(good.read_bytes()[:-40])
    with pytest.raises(ValueError):
        load_preprocessed(truncated)


class _ReadGuard:
    """A binary file that fails the test on any read longer than the file."""

    def __init__(self, path, mode="rb"):
        self._fh = open(path, mode)
        self._size = os.path.getsize(path)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def read(self, n=-1):
        assert 0 <= n <= self._size, f"read of {n} bytes from a {self._size}-byte file"
        return self._fh.read(n)


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    """A scratch directory and the bytes of a small valid container."""
    root = tmp_path_factory.mktemp("rnp")
    _, u = box_signal(m=256)
    pset = PreprocessedSet.from_samples(
        [preprocess_sample(np.roll(u, 40 * k), (0.0, 1.0), 8, periodic=True) for k in range(2)],
        meta={"problem": "unit-test"})
    save_preprocessed(root / "good.rnp", pset)
    return root, (root / "good.rnp").read_bytes()


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                          st.floats(allow_nan=False), st.text(max_size=6))
_SHAPES = st.one_of(st.lists(st.integers(-2**70, 2**70), max_size=4),
                    st.lists(st.integers(0, 40), min_size=1, max_size=3), _JSON_SCALARS)
_DTYPES = st.one_of(st.sampled_from(["<f8", "<i8", ">f8", "<f4", "|O", "O", "V8", "<U8", "x"]),
                    _JSON_SCALARS)
_NAMES = st.one_of(st.sampled_from(["xi", "x", "u", "sample_ids", "bogus"]), _JSON_SCALARS)


def _header_and_body(blob: bytes):
    line, _, body = blob.partition(b"\n")
    return json.loads(line), body


def _corrupt(blob: bytes, data) -> bytes:
    kind = data.draw(st.sampled_from(["truncate", "flip", "column", "header", "body"]))
    if kind == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        out = bytearray(blob)
        for pos in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4)):
            out[pos] = data.draw(st.integers(0, 255))
        return bytes(out)
    header, body = _header_and_body(blob)
    if kind == "column":
        col = header["columns"][data.draw(st.integers(0, len(header["columns"]) - 1))]
        key = data.draw(st.sampled_from(["shape", "dtype", "name", "drop"]))
        if key == "drop":
            header["columns"].remove(col)
        else:
            col[key] = data.draw({"shape": _SHAPES, "dtype": _DTYPES, "name": _NAMES}[key])
    elif kind == "header":
        key = data.draw(st.sampled_from(["format", "format_version", "columns", "meta"]))
        header[key] = data.draw(_JSON_SCALARS)
    else:
        cut = data.draw(st.integers(-len(body), 64))
        body = body[:cut] if cut < 0 else body + bytes(cut)
    return json.dumps(header).encode() + b"\n" + body


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_containers_raise_value_error_without_large_reads(container, data):
    root, good = container
    path = root / "corrupt.rnp"
    path.write_bytes(_corrupt(good, data))
    with mock.patch.object(equidistribution, "open", _ReadGuard, create=True):
        try:
            pset = load_preprocessed(path)
        except ValueError:
            return
    # a corruption that keeps the container well formed loads as a valid set
    assert pset.x.shape == pset.u.shape
    assert pset.sample_ids.shape == (pset.x.shape[0],)


def test_container_header_cannot_claim_more_than_the_file(tmp_path, container):
    header, body = _header_and_body(container[1])
    for col in header["columns"]:
        if col["name"] == "x":
            col["shape"] = [10**12, 10**6]
    path = tmp_path / "huge.rnp"
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    with mock.patch.object(equidistribution, "open", _ReadGuard, create=True):
        with pytest.raises(ValueError, match="bytes of columns"):
            load_preprocessed(path)
