import itertools

import numpy as np
import pytest

from poissontv.blur import (BlurOperator, Psf, disk_psf, gaussian_psf,
                            motion_psf)


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
    # transforms get the grid shape.
    shapes = ((8, 8), (7, 9), (9, 8))
    psfs = (gaussian_psf(3, 1.0), motion_psf(5, 45.0), disk_psf(1.5))
    for (r, s), psf in itertools.product(shapes, psfs):
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


def test_operator_shape_guards():
    op = BlurOperator(gaussian_psf(3, 1.0), 8, 8)
    with pytest.raises(ValueError):
        op.apply(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        BlurOperator(gaussian_psf(9, 1.0), 4, 4)
