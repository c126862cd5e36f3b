import itertools
import warnings

import numpy as np
import pytest

from poissontv.blur import (BlurOperator, Psf, disk_psf, disk_support,
                            gaussian_psf, motion_psf, motion_support)


def dense_matrix(op):
    """Build the dense circulant matrix column by column (basis vectors)."""
    n = op.r * op.s
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols.append(op.apply(e.reshape((op.r, op.s), order="F")).ravel(order="F"))
    return np.array(cols).T


# ----------------------------------------------------------------- Psf


def test_psf_rejects_even_negative_unnormalized():
    with pytest.raises(ValueError):
        Psf(np.full((2, 3), 1.0 / 6.0))
    with pytest.raises(ValueError):
        Psf(np.array([[1.5, 0.0, -0.5]]))
    with pytest.raises(ValueError):
        Psf(np.full((3, 3), 1.0))
    with pytest.raises(ValueError):
        Psf(np.array([[0.5, np.nan, 0.5]]))


def test_psf_save_load_round_trip(tmp_path):
    psf = gaussian_psf(5, 1.4)
    path = tmp_path / "psf.f64img"
    psf.save(path)
    assert np.array_equal(Psf.load(path).kernel, psf.kernel)


# ----------------------------------------------------------- gaussian


def test_gaussian_degenerate_sigma_is_delta():
    k = gaussian_psf(5, 1e-6).kernel
    assert k[2, 2] == pytest.approx(1.0)
    assert k.sum() == pytest.approx(1.0)
    assert np.all(np.delete(k.ravel(), 12) < 1e-300)


def test_gaussian_3x3_radial_decay():
    k = gaussian_psf(3, 1.0).kernel
    assert k[1, 1] > k[0, 1] > k[0, 0]
    assert k.sum() == pytest.approx(1.0, abs=1e-15)


def test_gaussian_5x5_matches_direct_evaluation():
    sigma = 1.4
    k = gaussian_psf(5, sigma).kernel
    # Independent scalar evaluation of exp(-((k-c)^2+(l-c)^2)/(2 sigma^2)).
    raw = np.empty((5, 5))
    for i in range(5):
        for j in range(5):
            raw[i, j] = np.exp(-((i - 2) ** 2 + (j - 2) ** 2)
                               / (2.0 * sigma * sigma))
    expected = raw / raw.sum()
    assert np.allclose(k, expected, rtol=1e-14, atol=0)


def full_support_gaussian(size, sigma):
    """The Gaussian formula on the whole support: the quadrant kernel's
    oracle."""
    u = np.arange(size, dtype=np.float64) - size // 2
    k = np.exp(-(u[:, None] ** 2 + u[None, :] ** 2) / (2.0 * sigma**2))
    return k / k.sum()


def test_gaussian_has_the_full_support_bits():
    for size in range(3, 258, 2):
        for sigma in (0.5, 1.0, 2.0, 3.7):
            assert np.array_equal(gaussian_psf(size, sigma).kernel,
                                  full_support_gaussian(size, sigma)), \
                (size, sigma)


def test_gaussian_guards():
    with pytest.raises(ValueError):
        gaussian_psf(4, 1.0)
    with pytest.raises(ValueError):
        gaussian_psf(5, 0.0)


# ------------------------------------------------------------- motion


def test_motion_length_one_is_delta():
    assert motion_psf(1, 37.0).kernel.tolist() == [[1.0]]


def test_motion_horizontal_is_uniform_row():
    k = motion_psf(5, 0.0).kernel
    row = k[k.shape[0] // 2]
    assert np.allclose(row[row > 0], 0.2)
    assert k.sum() == pytest.approx(1.0)
    assert np.count_nonzero(k) == 5


def test_motion_diagonal_matches_rasterization_oracle():
    length, angle, ss = 11, 45.0, 64
    k = motion_psf(length, angle).kernel
    # Independent midpoint-rule rasterization of the segment.
    theta = np.deg2rad(angle)
    nsamp = round(ss * length)
    counts = {}
    for j in range(nsamp):
        t = (j + 0.5) / nsamp * length - length / 2.0
        x = t * np.cos(theta)
        y = -t * np.sin(theta)
        key = (round(y), round(x))
        counts[key] = counts.get(key, 0) + 1
    m = k.shape[0] // 2
    expected = np.zeros_like(k)
    for (iy, ix), c in counts.items():
        expected[iy + m, ix + m] = c
    expected /= expected.sum()
    assert np.allclose(k, expected, rtol=0, atol=1e-15)


def test_motion_kernel_is_normalized_and_nonneg():
    for length, angle in ((11, 45.0), (7, 30.0), (15, 120.0)):
        k = motion_psf(length, angle).kernel
        assert k.sum() == pytest.approx(1.0)
        assert np.all(k >= 0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_generators_reject_non_finite_parameters(bad):
    # A NaN angle used to reach an integer cast, and an infinite radius
    # raised OverflowError.
    for make, name in ((lambda: gaussian_psf(5, bad), "sigma"),
                       (lambda: motion_psf(bad, 45.0), "length"),
                       (lambda: motion_psf(11, bad), "angle"),
                       (lambda: disk_psf(bad), "radius")):
        with pytest.raises(ValueError, match=name):
            make()


def test_support_matches_the_kernel():
    # The sides the CLI checks against the grid before building a kernel.
    # Radii m - 1.5 + 1/66 sit where the disk just reaches, or just
    # misses, the subpixels of the row m - 1 from the center.
    radii = [0.01, 0.4, 0.5, 1, 2.5, 4, 15.515, 15.516]
    radii += [m - 1.5 + 1 / 66 + e for m in range(2, 12)
              for e in (-1e-12, 0.0, 1e-12)]
    for radius in radii:
        assert disk_support(radius) == disk_psf(radius).kernel.shape[0]
    for length in (1, 1.4, 2, 5, 11, 31.7):
        for angle in (0.0, 30.0, 45.0, 90.0, 137.0, -20.0):
            assert (motion_support(length, angle)
                    == motion_psf(length, angle).kernel.shape[0])
    for bad in (float("nan"), 0.0):
        with pytest.raises(ValueError, match="radius"):
            disk_support(bad)
        with pytest.raises(ValueError, match="length"):
            motion_support(bad, 45.0)
    # Offsets past the integer range used to wrap in the cast, with a
    # RuntimeWarning and a meaningless (negative) side.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert motion_support(1.8e19, 0.0) == 18000000000000000001
        for bad in (2.0**64, 1e20, 1e308):
            with pytest.raises(ValueError, match="length"):
                motion_support(bad, 30.0)


# --------------------------------------------------------------- disk


def test_disk_tiny_radius_is_delta():
    assert disk_psf(0.4).kernel.tolist() == [[1.0]]


def test_disk_symmetries():
    k = disk_psf(4).kernel
    assert np.allclose(k, np.rot90(k))
    assert np.allclose(k, k[::-1])
    assert np.allclose(k, k[:, ::-1])


def test_disk_boundary_coverage_matches_supersampling_oracle():
    radius, ss = 4, 33
    k = disk_psf(radius).kernel
    m = k.shape[0] // 2
    sub = (np.arange(ss) + 0.5) / ss - 0.5
    total = 0.0
    cover = np.zeros_like(k)
    for i in range(k.shape[0]):
        for j in range(k.shape[1]):
            xs = (j - m) + sub
            ys = (i - m) + sub
            inside = (xs[None, :] ** 2 + ys[:, None] ** 2) <= radius**2
            cover[i, j] = inside.sum() / ss**2
            total += cover[i, j]
    assert np.allclose(k, cover / total, rtol=0, atol=1e-14)


# ----------------------------------------------------------- operator


def test_delta_psf_gives_identity():
    op = BlurOperator(Psf(np.array([[1.0]])), 8, 8)
    rng = np.random.default_rng(0)
    x = rng.random((8, 8))
    assert np.allclose(op.apply(x), x, atol=1e-12)


def test_apply_delta_reproduces_psf_unshifted():
    psf = gaussian_psf(5, 1.4)
    op = BlurOperator(psf, 16, 16)
    delta = np.zeros((16, 16))
    delta[0, 0] = 1.0
    out = op.apply(delta)
    # The kernel shows up circularly centered at the origin.
    rolled = np.roll(out, (2, 2), axis=(0, 1))
    assert np.allclose(rolled[:5, :5], psf.kernel, atol=1e-12)


def test_constant_image_is_fixed_point():
    op = BlurOperator(gaussian_psf(7, 2.0), 12, 12)
    c = np.full((12, 12), 3.7)
    assert np.allclose(op.apply(c), c, atol=1e-10)
    assert np.allclose(op.apply_adjoint(c), c, atol=1e-10)


def test_linearity_and_flux_conservation():
    op = BlurOperator(disk_psf(2), 10, 10)
    rng = np.random.default_rng(1)
    x, z = rng.random((2, 10, 10))
    lhs = op.apply(0.7 * x + 1.3 * z)
    rhs = 0.7 * op.apply(x) + 1.3 * op.apply(z)
    assert np.allclose(lhs, rhs, rtol=1e-12)
    assert op.apply(x).sum() == pytest.approx(x.sum(), rel=1e-9)


def test_nonnegativity_up_to_roundoff():
    op = BlurOperator(gaussian_psf(5, 1.0), 16, 16)
    rng = np.random.default_rng(2)
    x = rng.random((16, 16))
    assert op.apply(x).min() >= -1e-12 * x.max()


def test_adjoint_identity_random_pairs():
    op = BlurOperator(motion_psf(5, 30.0), 8, 8)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x, y = rng.random((2, 8, 8))
        lhs = float(np.vdot(op.apply(x), y))
        rhs = float(np.vdot(x, op.apply_adjoint(y)))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_fft_apply_matches_dense_circulant():
    # Odd and non-square grids check that the half-spectrum inverse
    # transforms get the grid shape; single rows and columns check the
    # one-point transforms along the other axis.
    shapes = ((8, 8), (7, 9), (9, 8), (9, 11), (8, 13), (1, 9), (1, 12),
              (9, 1), (12, 1))
    row = Psf(np.array([[0.2, 0.5, 0.3]]))     # asymmetric: A^T != A
    psfs = (gaussian_psf(3, 1.0), motion_psf(5, 45.0), disk_psf(1.5), row,
            Psf(row.kernel.T))
    for (r, s), psf in itertools.product(shapes, psfs):
        if psf.kernel.shape[0] > r or psf.kernel.shape[1] > s:
            continue
        op = BlurOperator(psf, r, s)
        a = dense_matrix(op)
        rng = np.random.default_rng(4)
        x = rng.random((r, s))
        v = x.ravel(order="F")
        assert np.allclose(op.apply(x).ravel(order="F"), a @ v, atol=1e-10)
        assert np.allclose(op.apply_adjoint(x).ravel(order="F"), a.T @ v,
                           atol=1e-10)
        # Doubly stochastic: rows and columns sum to one.
        assert np.allclose(a.sum(axis=0), 1.0, atol=1e-10)
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-10)


def test_results_survive_later_applies():
    # The spectrum buffer is reused by every call; the results are not.
    op = BlurOperator(motion_psf(5, 30.0), 12, 15)
    rng = np.random.default_rng(5)
    x, y, z = rng.random((3, 12, 15))
    ax = op.apply(x)
    ay = op.apply(y)
    aty = op.apply_adjoint(z)
    assert not np.shares_memory(ax, ay)
    assert np.array_equal(ax, op.apply(x))
    assert np.array_equal(ay, op.apply(y))
    assert np.array_equal(aty, op.apply_adjoint(z))


def rfft2_otf(psf, r, s):
    """The kernel rolled to the origin and transformed by rfft2: the
    operator's OTF oracle."""
    kh, kw = psf.kernel.shape
    padded = np.zeros((r, s))
    padded[:kh, :kw] = psf.kernel
    return np.fft.rfft2(np.roll(padded, (-(kh // 2), -(kw // 2)),
                                axis=(0, 1)))


def largest_odd(n):
    return n - 1 + n % 2


@pytest.mark.parametrize("r, s", [(256, 256), (255, 257), (64, 33), (9, 11),
                                  (1, 12), (32, 80), (129, 127)])
def test_otf_has_the_rfft2_bits(r, s):
    side = largest_odd(min(r, s))
    rng = np.random.default_rng(r * s)
    asym = rng.random((largest_odd(r), largest_odd(s)))
    psfs = [Psf(asym / asym.sum())]      # asymmetric, spanning the grid
    if side >= 3:
        psfs += [gaussian_psf(side, 2.0), gaussian_psf(3, 0.7)]
    if side >= 9:
        psfs += [motion_psf(9, 30.0), disk_psf(4.0)]
    if side >= 23:
        psfs += [motion_psf(21, -60.0), disk_psf(9.5)]
    for psf in psfs:
        op = BlurOperator(psf, r, s)
        want = rfft2_otf(psf, r, s)
        assert np.array_equal(op._otf, want), psf.kernel.shape
        assert np.array_equal(op._otf_conj, np.conj(want))


def test_operator_shape_guards():
    op = BlurOperator(gaussian_psf(3, 1.0), 8, 8)
    with pytest.raises(ValueError):
        op.apply(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        BlurOperator(gaussian_psf(9, 1.0), 4, 4)
