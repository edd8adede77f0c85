import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radonet.reconstruct import ERROR_ROWS, monotone_fix, recover_uniform, rel_l2_error

finite_knots = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=40,
).map(np.array)


# meshes of [0, 1]: sorted interior knots, drawn so that they often repeat
# or touch an end
meshes = st.lists(st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0.0, 0.5, 1.0]),
                  min_size=0, max_size=38).map(
    lambda inner: np.concatenate([[0.0], np.sort(inner), [1.0]]))


@settings(max_examples=200, deadline=None)
@given(meshes)
def test_monotone_fix_accepts_every_mesh_as_is(mesh):
    assert monotone_fix(mesh, (0.0, 1.0)) is mesh


@settings(max_examples=200, deadline=None)
@given(finite_knots)
def test_monotone_fix_refuses_what_is_not_a_mesh(knots):
    # a fold, an end off the domain or fewer than 2 knots is refused
    if knots.size >= 2 and knots[0] == 0.0 and knots[-1] == 1.0 and np.all(np.diff(knots) >= 0):
        return
    with pytest.raises(ValueError):
        monotone_fix(knots, (0.0, 1.0))


@pytest.mark.parametrize("knots", [
    [0.0, 0.5, np.nan, 1.0], [-np.inf, 1.0], [0.0, 1.0, np.nan],
    [0.0, 0.5, np.nextafter(1.0, 2.0)], [-1e-300, 1.0], [], [[0.0, 1.0]],
])
def test_monotone_fix_refuses_off_ends_non_finite_and_short(knots):
    with pytest.raises(ValueError):
        monotone_fix(np.array(knots), (0.0, 1.0))


finite_values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(meshes, st.data())
def test_interp_bounded_by_values(mesh, data):
    # recover_uniform stays within the values' range, on any mesh (repeated
    # knots included) and at any query, inside the domain or not
    values = np.array(data.draw(st.lists(finite_values, min_size=mesh.size,
                                         max_size=mesh.size)))
    grid = np.array(data.draw(st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=20)))
    out = recover_uniform(mesh, values, grid, (0.0, 1.0))
    tol = 1e-12 * np.ptp(values)  # rounding in a + t * (b - a)
    assert np.all(values.min() - tol <= out) and np.all(out <= values.max() + tol)


def test_interp_in_a_subnormal_cell_stays_bounded():
    # the cell [0, 2e-305] is so narrow that the slope 3756 / 2e-305 overflows
    mesh = np.array([0.0, 0.0, 2.0889942354722377e-305, 1.0])
    values = np.array([0.0, 0.0, 3756.0, 0.0])
    query = np.array([2.225073858507e-311, 1e-305, 0.5])
    out = recover_uniform(mesh, values, query, (0.0, 1.0))
    assert np.all((0.0 <= out) & (out <= 3756.0))
    np.testing.assert_allclose(out, [3756.0 * query[0] / mesh[2], 3756.0 * 1e-305 / mesh[2],
                                     np.interp(0.5, mesh, values)], rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=30),
       finite_values, finite_values)
def test_recover_uniform_reproduces_linear_functions_on_the_knots(inner, slope, offset):
    # a graph of a linear function on a valid mesh comes back exactly at the knots
    knots = np.unique(np.concatenate([[0.0, 1.0], inner]))
    values = slope * knots + offset
    np.testing.assert_array_equal(recover_uniform(knots, values, knots, (0.0, 1.0)), values)


def test_monotone_fix_identity_on_valid_mesh():
    mesh = np.linspace(0.0, 1.0, 17)
    out = monotone_fix(mesh, (0.0, 1.0))
    assert out is mesh  # untouched, not copied


def test_monotone_fix_refuses_a_fold():
    with pytest.raises(ValueError, match="without decreasing"):
        monotone_fix(np.array([0.0, 0.3, 0.2, 0.25, 1.0]), (0.0, 1.0))


def test_monotone_fix_validation():
    with pytest.raises(ValueError):
        monotone_fix(np.array([0.5]), (0.0, 1.0))
    with pytest.raises(ValueError):
        monotone_fix(np.array([0.0, np.inf]), (0.0, 1.0))
    with pytest.raises(ValueError):
        monotone_fix(np.zeros(4), (1.0, 1.0))


def test_interp_matches_manual_bracketing():
    knots = np.array([0.0, 0.1, 0.4, 1.0])
    values = np.array([1.0, -1.0, 0.5, 2.0])
    queries = np.array([0.0, 0.05, 0.25, 0.7, 1.0])
    got = recover_uniform(knots, values, queries, (0.0, 1.0))
    # bracket each query by hand
    expected = []
    for q in queries:
        j = np.searchsorted(knots, q, side="right") - 1
        j = min(max(j, 0), knots.size - 2)
        t = (q - knots[j]) / (knots[j + 1] - knots[j])
        expected.append((1.0 - t) * values[j] + t * values[j + 1])
    np.testing.assert_allclose(got, expected, rtol=1e-14)


def test_interp_modes():
    # the one mode left is clamping: queries outside the domain take the end values
    knots = np.array([0.0, 0.1, 0.4, 1.0])
    values = np.array([1.0, -1.0, 0.5, 2.0])
    np.testing.assert_array_equal(
        recover_uniform(knots, values, np.array([-0.3, 1.2]), (0.0, 1.0)), [1.0, 2.0])


def test_graph_prediction_validation():
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        recover_uniform(np.zeros(3), np.zeros(4), grid, (0.0, 1.0))
    with pytest.raises(ValueError):
        recover_uniform(np.zeros(1), np.zeros(1), grid, (0.0, 1.0))


def test_recover_uniform_equals_fix_then_interp():
    # monotone_fix passes a mesh through, so a repeated knot reaches np.interp,
    # which takes it as a jump
    knots = np.array([0.0, 0.6, 0.6, 0.6, 1.0])
    values = np.array([0.0, 1.0, 2.0, 3.0, 0.0])
    grid = np.linspace(0.0, 1.0, 33)
    got = recover_uniform(knots, values, grid, (0.0, 1.0))
    np.testing.assert_array_equal(got, np.interp(grid, knots, values))
    # left of the knot the graph rises to 1, right of it it falls from 3
    left, right = recover_uniform(knots, values, np.array([0.6 - 1e-9, 0.6 + 1e-9]),
                                  (0.0, 1.0))
    assert abs(left - 1.0) < 1e-6 and abs(right - 3.0) < 1e-6


def test_rel_l2_error_hand_value():
    ref = np.array([[3.0, 4.0], [1.0, 0.0]])
    pred = ref + np.array([[3.0, -4.0], [0.0, 1.0]])
    # one entry per sample, in the rms norm: first err sqrt(12.5) over ref
    # sqrt(12.5), second err sqrt(0.5) over ref sqrt(0.5)
    np.testing.assert_allclose(rel_l2_error(pred, ref), [1.0, 1.0])
    with pytest.raises(ValueError):
        rel_l2_error(pred, ref[:1])
    with pytest.raises(ValueError):
        rel_l2_error(np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        rel_l2_error(np.zeros(3), np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(rows=st.sampled_from([1, ERROR_ROWS - 1, ERROR_ROWS, ERROR_ROWS + 1, 3 * ERROR_ROWS + 5]),
       field=st.sampled_from([(1,), (7,), (2048,), (3, 5)]), seed=st.integers(0, 2**32 - 1))
def test_rel_l2_error_in_row_blocks_is_the_whole_array_formula_to_the_bit(rows, field, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4, size=(rows,) + (1,) * len(field))
    ref = rng.normal(size=(rows, *field)) * scale
    pred = ref + rng.normal(size=ref.shape) * rng.uniform(0.0, 2.0)
    p, r = pred.reshape(rows, -1), ref.reshape(rows, -1)
    whole = np.sqrt(np.mean((p - r) ** 2, axis=1)) / np.sqrt(np.mean(r * r, axis=1))
    got = rel_l2_error(pred, ref)
    assert got.shape == (rows,) and got.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), whole.view(np.int64))


def test_rel_l2_error_refuses_a_zero_norm_reference_in_a_later_block():
    ref = np.ones((2 * ERROR_ROWS + 3, 4))
    ref[ERROR_ROWS + 2] = 0.0
    with pytest.raises(ValueError, match="zero norm"):
        rel_l2_error(np.ones_like(ref), ref)
