import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from poissontv.blur import gaussian_psf, motion_psf
from poissontv.constraints import FeasibleSet
from poissontv.solver import acquire_solve, AcquireConfig
from poissontv.testbed import (MssimReference, load_problem, make_problem,
                               measured_snr, mssim, poisson_sample,
                               relative_error, render_ellipses, save_problem,
                               shepp_logan, shepp_logan_ellipses,
                               snr_scale_factor)


# -------------------------------------------------------------- phantom


def test_phantom_guards():
    with pytest.raises(ValueError):
        shepp_logan(16)
    with pytest.raises(ValueError):
        shepp_logan_ellipses("bogus")


def test_phantom_deterministic_and_bounded():
    a = shepp_logan(64)
    b = shepp_logan(64)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_phantom_corners_are_background():
    img = shepp_logan(128)
    assert img[0, 0] == 0.0 and img[0, -1] == 0.0
    assert img[-1, 0] == 0.0 and img[-1, -1] == 0.0


def test_renderer_reflection_equivariance():
    # Mirroring every ellipse left-right mirrors the rendering exactly.
    ellipses = shepp_logan_ellipses("modified")
    mirrored = tuple((amp, a, b, -x0, y0, -phi)
                     for amp, a, b, x0, y0, phi in ellipses)
    img = render_ellipses(ellipses, 96)
    assert np.array_equal(render_ellipses(mirrored, 96), img[:, ::-1])


def full_grid_render(ellipses, n):
    """Every ellipse evaluated on the whole grid: the renderer's oracle."""
    half = (n - 1) / 2.0
    coords = (np.arange(n) - half) / half
    xg = coords[None, :]
    yg = -coords[:, None]
    img = np.zeros((n, n))
    for amp, a, b, x0, y0, phi_deg in ellipses:
        phi = np.deg2rad(phi_deg)
        xr = (xg - x0) * np.cos(phi) + (yg - y0) * np.sin(phi)
        yr = -(xg - x0) * np.sin(phi) + (yg - y0) * np.cos(phi)
        img += amp * ((xr / a) ** 2 + (yr / b) ** 2 <= 1.0)
    return img


@pytest.mark.parametrize("variant", ("original", "modified"))
def test_phantom_has_the_full_grid_bits(variant):
    ellipses = shepp_logan_ellipses(variant)
    for n in [*range(32, 81), 127, 128, 129, 255, 256, 257, 512]:
        want = np.maximum(full_grid_render(ellipses, n), 0.0)
        assert np.array_equal(shepp_logan(n, variant), want), n


def test_renderer_has_the_full_grid_bits_off_center_and_rotated():
    # Ellipses at any angle, some straddling the border or off the grid.
    rng = np.random.default_rng(5)
    ellipses = [(rng.uniform(-1, 1), *rng.uniform(0.01, 1.2, 2),
                 *rng.uniform(-1.6, 1.6, 2), rng.uniform(-180, 180))
                for _ in range(40)]
    for n in (2, 7, 33, 64):
        assert np.array_equal(render_ellipses(ellipses, n),
                              full_grid_render(ellipses, n)), n


@pytest.mark.parametrize("bad", [
    (np.nan, 0.5, 0.5, 0.0, 0.0, 0.0), (1.0, np.inf, 0.5, 0.0, 0.0, 0.0),
    (1.0, 0.5, np.nan, 0.0, 0.0, 0.0), (1.0, 0.5, 0.5, -np.inf, 0.0, 0.0),
    (1.0, 0.5, 0.5, 0.0, np.nan, 0.0), (1.0, 0.5, 0.5, 0.0, 0.0, np.inf),
    (1.0, 0.0, 0.5, 0.0, 0.0, 0.0), (1.0, 0.5, -0.1, 0.0, 0.0, 0.0)])
def test_renderer_rejects_non_finite_or_flat_ellipses(bad):
    # A NaN would taint only its own box, and a zero half-axis divides by
    # zero: both are errors, not images.
    with pytest.raises(ValueError, match="ellipse parameters"):
        render_ellipses([(1.0, 0.9, 0.9, 0.0, 0.0, 0.0), bad], 16)


def test_phantom_values_at_ellipse_centers():
    # Independent scalar membership evaluation at the grid pixel nearest
    # each ellipse center.
    n = 256
    for variant in ("original", "modified"):
        ellipses = shepp_logan_ellipses(variant)
        img = shepp_logan(n, variant)
        half = (n - 1) / 2.0
        for _, _, _, cx, cy, _ in ellipses:
            col = round(cx * half + half)
            row = round(-cy * half + half)
            x = (col - half) / half
            y = -(row - half) / half
            expected = 0.0
            for amp, a, b, x0, y0, phi_deg in ellipses:
                phi = math.radians(phi_deg)
                xr = (x - x0) * math.cos(phi) + (y - y0) * math.sin(phi)
                yr = -(x - x0) * math.sin(phi) + (y - y0) * math.cos(phi)
                if (xr / a) ** 2 + (yr / b) ** 2 <= 1.0:
                    expected += amp
            assert img[row, col] == pytest.approx(expected, abs=1e-12)


def test_phantom_variants_differ():
    assert not np.array_equal(shepp_logan(64, "original"),
                              shepp_logan(64, "modified"))


# -------------------------------------------------------------- scaling


def test_snr_scale_factor_closed_form_no_background():
    x = np.ones((10, 10))
    # b_total = 0: t = r^2, i.e. 1e8 counts at 40 dB and 1e7 at 35 dB.
    assert snr_scale_factor(x, 0.0, 40.0) * x.sum() == pytest.approx(1e8)
    assert snr_scale_factor(x, 0.0, 35.0) * x.sum() == pytest.approx(1e7)


def test_snr_scale_factor_rejects_nonfinite_target():
    for snr in (math.nan, math.inf):
        with pytest.raises(ValueError):
            snr_scale_factor(np.ones((4, 4)), 0.0, snr)


def test_snr_scale_factor_plugs_back():
    x = np.full((7, 9), 0.3)
    b_total = 100.0
    beta = snr_scale_factor(x, b_total, 20.0)
    t = beta * x.sum()
    assert 10.0 * np.log10(t / np.sqrt(t + b_total)) == pytest.approx(
        20.0, abs=1e-10)


def test_snr_scale_factor_guard():
    with pytest.raises(ValueError):
        snr_scale_factor(np.zeros((2, 2)), 0.0, 30.0)


# ------------------------------------------------------------- sampling


def test_poisson_zero_mean_is_zero():
    assert not poisson_sample(np.zeros((4, 4)), seed=1).any()


def test_poisson_rejects_negative_mean():
    with pytest.raises(ValueError):
        poisson_sample(np.array([[-1.0]]), seed=1)


def test_poisson_deterministic():
    mean = np.full((16, 16), 12.3)
    a = poisson_sample(mean, seed=42)
    b = poisson_sample(mean, seed=42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, poisson_sample(mean, seed=43))


def test_poisson_mean_and_variance():
    draws = poisson_sample(np.full(100000, 7.0).reshape(1000, 100), seed=7)
    assert abs(draws.mean() - 7.0) <= 0.05
    assert abs(draws.var() - 7.0) <= 0.2


# ------------------------------------------------------------- problems


def test_make_problem_rejects_a_non_finite_reference():
    # NaN used to reach the Poisson sampler ("lam value too large").
    for bad in (math.nan, math.inf):
        reference = shepp_logan(32)
        reference[3, 4] = bad
        with pytest.raises(ValueError, match="reference image must be finite"):
            make_problem(reference, gaussian_psf(5, 1.0), 30.0, seed=1)


def test_make_problem_unit_max_and_flux_bookkeeping():
    problem = make_problem(shepp_logan(64), gaussian_psf(9, 2.0),
                           snr_db=30.0, seed=5)
    assert problem.observed.max() == pytest.approx(1.0)
    assert problem.counts.max() == problem.scale
    n = problem.observed.size
    expected_flux = problem.observed.sum() - n * problem.scaled_background
    assert problem.flux == pytest.approx(expected_flux, rel=1e-14)
    # Ground truth is scaled by the same unit-max factor as the counts.
    assert problem.ground_truth.max() * problem.scale == pytest.approx(
        snr_scale_factor(shepp_logan(64),
                         problem.background * n, 30.0) * 1.0, rel=1e-12)


def test_measured_snr_close_to_target():
    for snr in (30.0, 35.0):
        problem = make_problem(shepp_logan(128), gaussian_psf(9, 2.0),
                               snr_db=snr, seed=3)
        assert abs(measured_snr(problem) - snr) <= 0.1


def test_problem_determinism():
    a = make_problem(shepp_logan(64), gaussian_psf(5, 1.0), 30.0, seed=9)
    b = make_problem(shepp_logan(64), gaussian_psf(5, 1.0), 30.0, seed=9)
    assert np.array_equal(a.observed, b.observed)
    assert np.array_equal(a.counts, b.counts)


def test_noiseless_problem_recovers_reference():
    # Pass-through mode: y = A x* + b; a barely-regularized solve should
    # recover the reference almost exactly.
    rng = np.random.default_rng(11)
    reference = 0.2 + rng.random((16, 16))
    problem = make_problem(reference, gaussian_psf(3, 0.7), snr_db=30.0,
                           seed=0, background=1e-6, sample_noise=False)
    mean = problem.op.apply(problem.ground_truth * problem.scale)
    assert np.allclose(problem.counts, mean + problem.background, rtol=1e-12)
    config = AcquireConfig(lam=1e-10, tol=0.0, max_outer_iters=300,
                           max_time=15.0, inner_max_iters=20)
    x, _ = acquire_solve(problem.data(), FeasibleSet.nonneg(),
                         problem.observed, config)
    assert relative_error(x, problem.ground_truth) <= 1e-3


def test_problem_bundle_round_trip(tmp_path):
    problem = make_problem(shepp_logan(64), gaussian_psf(5, 1.5), 32.0, seed=2)
    save_problem(problem, tmp_path / "bundle", extra_meta={"note": "x"})
    back = load_problem(tmp_path / "bundle")
    assert np.array_equal(back.observed, problem.observed)
    assert np.array_equal(back.ground_truth, problem.ground_truth)
    assert np.array_equal(back.psf.kernel, problem.psf.kernel)
    assert back.snr_db == problem.snr_db and back.seed == problem.seed
    assert back.flux == pytest.approx(problem.flux, rel=1e-14)


def test_loaded_bundle_is_c_ordered_and_keeps_its_flux(tmp_path):
    # F64IMG files are column-major, but loaded images are C-ordered like
    # every array the solvers make, so the flux a loaded bundle sums is
    # the one recorded at generation: a column-major copy summed 1 ulp
    # off on this problem.
    problem = make_problem(shepp_logan(256), motion_psf(11, 45.0), 35.0, 5)
    save_problem(problem, tmp_path)
    back = load_problem(tmp_path)
    with open(tmp_path / "meta.json") as fh:
        meta = json.load(fh)
    for image in (back.observed, back.ground_truth, back.psf.kernel):
        assert image.flags.c_contiguous
    assert back.flux == meta["flux"] == problem.flux


# -------------------------------------------------------------- metrics


def test_relative_error_basic():
    x = shepp_logan(64)
    assert relative_error(x, x) == 0.0
    assert relative_error(2.0 * x, x) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relative_error(x, np.zeros_like(x))
    with pytest.raises(ValueError):
        relative_error(x[:32], x)


def test_mssim_identity():
    x = shepp_logan(64)
    assert mssim(x, x) == pytest.approx(1.0)


def test_mssim_constant_shift_penalized():
    rng = np.random.default_rng(12)
    x_star = rng.random((32, 32))
    data_range = x_star.max() - x_star.min()
    value = mssim(x_star + 0.1 * data_range, x_star)
    assert 0.0 < value < 1.0


def test_mssim_single_window_scalar_oracle():
    # On 11x11 images the valid-mode filter leaves exactly one window;
    # compare against a direct weighted-moment evaluation.
    rng = np.random.default_rng(13)
    x = rng.random((11, 11))
    y = rng.random((11, 11))
    u = np.arange(11) - 5
    g = np.exp(-(u * u) / (2 * 1.5**2))
    w = np.outer(g, g)
    w /= w.sum()
    mu1 = float((w * x).sum())
    mu2 = float((w * y).sum())
    var1 = float((w * x * x).sum()) - mu1**2
    var2 = float((w * y * y).sum()) - mu2**2
    cov = float((w * x * y).sum()) - mu1 * mu2
    data_range = y.max() - y.min()
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    expected = ((2 * mu1 * mu2 + c1) * (2 * cov + c2)
                / ((mu1**2 + mu2**2 + c1) * (var1 + var2 + c2)))
    assert mssim(x, y) == pytest.approx(expected, rel=1e-10)


def test_mssim_matches_direct_convolution_on_small_images():
    # Images smaller than the 11x11 window slide over it, as in the valid
    # mode of scipy.signal that MSSIM once used.
    def valid(a, w):
        if a.shape[0] < w.shape[0]:
            a, w = w, a
        m = a.shape[0] - w.shape[0] + 1
        return np.array([[np.sum(a[p:p + w.shape[0], q:q + w.shape[1]]
                                 * w[::-1, ::-1]) for q in range(m)]
                         for p in range(m)])

    u = np.arange(11) - 5
    g = np.exp(-(u * u) / (2 * 1.5**2))
    w = np.outer(g, g) / np.outer(g, g).sum()
    rng = np.random.default_rng(14)
    for n in (8, 20):
        x, y = rng.random((n, n)), rng.random((n, n))
        mu1, mu2 = valid(x, w), valid(y, w)
        var1 = valid(x * x, w) - mu1**2
        var2 = valid(y * y, w) - mu2**2
        cov = valid(x * y, w) - mu1 * mu2
        c1, c2 = (0.01 * np.ptp(y)) ** 2, (0.03 * np.ptp(y)) ** 2
        expected = np.mean((2 * mu1 * mu2 + c1) * (2 * cov + c2)
                           / ((mu1**2 + mu2**2 + c1) * (var1 + var2 + c2)))
        assert mssim(x, y) == pytest.approx(expected, rel=1e-12)


def ssim_formula(reference, x):
    """The SSIM map's formula as written, from the reference's filter."""
    mu1, mu2 = reference._filter(x), reference.mu2
    var1 = reference._filter(x * x) - mu1 * mu1
    cov = reference._filter(x * reference.x_star) - mu1 * mu2
    num = (2 * mu1 * mu2 + reference.c1) * (2 * cov + reference.c2)
    den = ((mu1 * mu1 + mu2 * mu2 + reference.c1)
           * (var1 + reference.var2 + reference.c2))
    return float(np.mean(num / den))


def test_mssim_reference_scores_like_mssim():
    # One reference scores many images; each score is the bits mssim
    # gives, and the bits of the formula, though the map is formed in
    # place.
    rng = np.random.default_rng(15)
    truth = shepp_logan(256)
    reference = MssimReference(truth)
    for _ in range(3):
        x = np.maximum(truth + 0.05 * rng.standard_normal(truth.shape), 0.0)
        assert reference(x) == mssim(x, truth)
        assert np.array_equal(reference(x), ssim_formula(reference, x))
    truth = rng.random((8, 8))          # smaller than the window: it slides
    reference = MssimReference(truth)
    for _ in range(3):
        x = rng.random((8, 8))
        assert reference(x) == mssim(x, truth)
        assert np.array_equal(reference(x), ssim_formula(reference, x))


def test_mssim_dimension_guard():
    with pytest.raises(ValueError):
        mssim(np.zeros((12, 12)), np.zeros((11, 11)))


def test_package_import_leaves_scipy_signal_unloaded():
    # MSSIM filters and the blur transforms with numpy, so neither the
    # import nor a solve loads any part of scipy: scipy.signal alone
    # doubles the resident size of a CLI process (about 54 to 103 MB),
    # and scipy.fft adds about 27 MB.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    code = ("import sys, poissontv, poissontv.cli, poissontv.testbed\n"
            "from poissontv import AcquireConfig, FeasibleSet, acquire_solve,"
            " gaussian_psf\n"
            "from poissontv.testbed import make_problem, mssim, shepp_logan\n"
            "p = make_problem(shepp_logan(32), gaussian_psf(5, 1.0), 30.0, 1)\n"
            "x, _ = acquire_solve(p.data(), FeasibleSet.nonneg(), p.observed,\n"
            "                     AcquireConfig(lam=1e-2, max_outer_iters=3),\n"
            "                     p.ground_truth)\n"
            "mssim(x, p.ground_truth)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.check_output([sys.executable, "-c", code], env=env)
    assert out.decode().strip() == "[]"
