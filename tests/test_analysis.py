import math

import numpy as np
import pytest

from radonet.analysis import (
    PiecewiseLinear,
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

from oracles import pl_l2_diff_bruteforce


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        PiecewiseLinear([1.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        PiecewiseLinear([0.0, 0.0], [0.0, 1.0])
    f = PiecewiseLinear([0.0, 0.5, 0.5, 1.0], [0.0, 0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        f.eval([0.25])  # jumps make pointwise eval ambiguous


def test_pl_l2_diff_hand_case():
    # |x - (1-x)| = |2x - 1| on [0,1]: integral of (2x-1)^2 is 1/3
    f = PiecewiseLinear([0.0, 1.0], [0.0, 1.0])
    g = PiecewiseLinear([0.0, 1.0], [1.0, 0.0])
    assert pl_l2_diff(f, g) == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-14)
    assert pl_l2_diff(f, f) == 0.0


def test_pl_l2_diff_with_jumps_vs_bruteforce():
    f = sharp_box(0.2)
    g = mollified_box(0.5, -0.3)
    exact = pl_l2_diff(f, g)
    brute = pl_l2_diff_bruteforce(f.breakpoints, f.values, g.breakpoints, g.values)
    # brute force carries O(dx) trapezoid error at the two jump points
    assert abs(exact - brute) < 5e-6
    # asymmetric breakpoint sets, no jumps
    h1 = PiecewiseLinear([-math.pi, 0.1, math.pi], [0.0, 2.0, -1.0])
    h2 = PiecewiseLinear([-math.pi, -1.0, 2.0, math.pi], [1.0, 0.0, 0.5, 0.0])
    exact = pl_l2_diff(h1, h2)
    brute = pl_l2_diff_bruteforce(h1.breakpoints, h1.values, h2.breakpoints, h2.values)
    assert abs(exact - brute) < 1e-7
    with pytest.raises(ValueError):
        pl_l2_diff(f, PiecewiseLinear([0.0, 1.0], [0.0, 0.0]))


def test_mollification_gap_is_delta_over_six():
    # the squared L2 distance between the ramped and the sharp box
    for delta in (0.5, 0.1, 1e-3):
        gap = pl_l2_diff(mollified_box(delta), sharp_box()) ** 2
        assert gap == pytest.approx(delta / 6.0, rel=1e-12)
    # shift-invariant as long as the ramps stay inside the domain
    gap = pl_l2_diff(mollified_box(0.2, 0.4), sharp_box(0.4)) ** 2
    assert gap == pytest.approx(0.2 / 6.0, rel=1e-12)


def test_box_samples_edges():
    x = np.array([-math.pi / 2 - 1e-9, -math.pi / 2, 0.0, math.pi / 2, math.pi / 2 + 1e-9])
    np.testing.assert_array_equal(box_samples(x), [0.0, 1.0, 1.0, 1.0, 0.0])


def test_equidistributed_map_centered_slopes_and_kinks():
    delta = 0.3
    coord, profile = equidistributed_box_map(delta)
    np.testing.assert_allclose(
        coord.breakpoints,
        [-math.pi, -3 * math.pi / 4, -math.pi / 4, math.pi / 4, 3 * math.pi / 4, math.pi],
        atol=1e-13)
    widths = np.diff(coord.breakpoints)
    slopes = np.diff(coord.values) / widths
    np.testing.assert_allclose(slopes[[0, 2, 4]], 2.0 - 2.0 * delta / math.pi, rtol=1e-13)
    np.testing.assert_allclose(slopes[[1, 3]], 2.0 * delta / math.pi, rtol=1e-13)
    # profile rises exactly across the ramp images
    np.testing.assert_array_equal(profile.values, [0.0, 0.0, 1.0, 1.0, 0.0, 0.0])


def test_equidistributed_map_total_mass_shift_invariant():
    # the construction normalizes by total density mass 4(pi - delta)
    for shift in (0.0, 0.3, -0.5):
        coord, _ = equidistributed_box_map(0.25, shift)
        np.testing.assert_allclose(coord.breakpoints[[0, -1]], [-math.pi, math.pi],
                                   rtol=1e-15)
        assert coord.values[0] == -math.pi and coord.values[-1] == math.pi
        assert np.all(np.diff(coord.values) > 0.0)
    with pytest.raises(ValueError):
        equidistributed_box_map(0.0)
    with pytest.raises(ValueError):
        equidistributed_box_map(0.3, shift=2.0)


def test_adaptive_box_error_decreases_and_beats_uniform():
    # composite interpolant error at matched n, with delta tied to n^-3
    errs = []
    for n in (16, 64, 256):
        fit = adaptive_box_construct(float(n) ** -3.0, n)
        assert fit.x_knots.size == n + 1
        assert np.all(np.diff(fit.x_knots) > 0.0)
        errs.append(fit.error)
    assert errs[0] > errs[1] > errs[2]

    x_fine = np.linspace(-math.pi, math.pi, 2 ** 16 + 1)
    u_fine = box_samples(x_fine)
    uni = fem_uniform_interp_error(u_fine, 64, domain=(-math.pi, math.pi))
    ada = adaptive_box_construct(64.0 ** -3.0, 64).error
    assert ada < 0.2 * uni
    with pytest.raises(ValueError):
        adaptive_box_construct(0.1, 4)


def test_fem_uniform_error_smooth_target_rate():
    # for a smooth target the uniform-mesh error decays ~ n^-2
    x = np.linspace(0.0, 1.0, 2 ** 14 + 1)
    u = np.sin(2.0 * math.pi * x)
    ns = [8, 16, 32, 64]
    errs = [fem_uniform_interp_error(u, n) for n in ns]
    fit = rate_fit(ns, errs)
    assert fit.slope == pytest.approx(-2.0, abs=0.05)
    with pytest.raises(ValueError):
        fem_uniform_interp_error(u, 1)


def test_covariance_spectrum_matches_direct_eigendecomposition():
    rng = np.random.default_rng(42)
    samples = rng.standard_normal((20, 15))
    dx = 1.0 / 15
    got = covariance_spectrum(samples, dx).eigenvalues
    direct = np.linalg.eigvalsh(samples.T @ samples / 20.0 * dx)[::-1]
    np.testing.assert_allclose(got[:15], direct, atol=1e-12)


def test_spectrum_of_rank_one_dataset():
    # identical samples: one eigenvalue carries everything
    v = np.sin(np.linspace(0.0, math.pi, 33))
    samples = np.tile(v, (6, 1))
    rep = covariance_spectrum(samples, dx=1.0 / 32)
    assert rep.eigenvalues[0] == pytest.approx(np.sum(v * v) / 32.0, rel=1e-12)
    assert np.all(rep.eigenvalues[1:] < 1e-12 * rep.eigenvalues[0])


def test_optimal_error_tail_total_energy():
    rng = np.random.default_rng(1)
    samples = rng.standard_normal((10, 8))
    dx = 0.125
    rep = covariance_spectrum(samples, dx)
    # n = 0 tail equals the dataset's mean squared norm (Parseval)
    total = np.mean(np.sum(samples * samples, axis=1)) * dx
    assert optimal_error_tail(rep, 0) == pytest.approx(math.sqrt(total), rel=1e-12)
    assert optimal_error_tail(rep, 8) == 0.0
    tails = [optimal_error_tail(rep, n) for n in range(9)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    with pytest.raises(ValueError):
        optimal_error_tail(rep, -1)


def test_rate_fit_exact_power_law():
    ns = np.array([8.0, 16.0, 32.0, 64.0])
    errs = 3.0 * ns ** -1.5
    fit = rate_fit(ns, errs)
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.residual < 1e-14
    with pytest.raises(ValueError):
        rate_fit([1.0, 2.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        rate_fit([1.0, 2.0, 2.0], [1.0, 0.5, 0.2])
    with pytest.raises(ValueError):
        rate_fit([1.0, 2.0, 3.0], [1.0, -0.5, 0.2])
