import numpy as np
import pytest

from poissontv.testbed import shepp_logan
from poissontv.tv import (TvQuadraticModel, TvStencil, diff_adjoint,
                          forward_diff, huber_derivative_factor,
                          tv_mu_gradient, tv_mu_value)


def tv_value(x):
    """Plain isotropic TV, the smoothed TV's limit as mu -> 0."""
    return float(TvStencil(x).fill(x).norms.sum())


def huber(n, mu):
    """The smoothed TV's Huber value of one gradient magnitude n >= 0: on
    the stripes [[0, n], [0, n]] all four pixels have magnitude n."""
    return tv_mu_value(np.array([[0.0, n], [0.0, n]]), mu) / 4


def brute_force_diffs(x):
    """Explicit per-pixel periodic stencils (the <=8x8 oracle)."""
    r, s = x.shape
    dv = np.empty_like(x)
    dh = np.empty_like(x)
    for k in range(r):
        for l in range(s):
            dv[k, l] = x[(k + 1) % r, l] - x[k, l]
            dh[k, l] = x[k, (l + 1) % s] - x[k, l]
    return dv, dh


def central_difference_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        step = h * (1.0 + abs(x[idx]))
        xp = x.copy()
        xm = x.copy()
        xp[idx] += step
        xm[idx] -= step
        g[idx] = (f(xp) - f(xm)) / (2.0 * step)
    return g


# ------------------------------------------------------------ stencils


def roll_diffs(x):
    """The shift-subtract stencil the slice version replaced."""
    return np.roll(x, -1, axis=0) - x, np.roll(x, -1, axis=1) - x


def roll_adjoint(pv, ph):
    return (np.roll(pv, 1, axis=0) - pv) + (np.roll(ph, 1, axis=1) - ph)


# Degenerate grids (one row, one column, 2x2) put the wrap slice on the
# only row or column; 7x9 has odd, unequal sides.
GRIDS = [(5, 4), (1, 5), (5, 1), (2, 2), (7, 9)]


def test_forward_diff_matches_brute_force():
    rng = np.random.default_rng(0)
    for shape in GRIDS:
        x = rng.random(shape)
        dv, dh = forward_diff(x)
        bv, bh = brute_force_diffs(x)
        assert np.array_equal(dv, bv)
        assert np.array_equal(dh, bh)
        # Bit for bit the roll stencil, also into caller buffers.
        rv, rh = roll_diffs(x)
        out = (np.full(shape, np.nan), np.full(shape, np.nan))
        for got in (forward_diff(x), forward_diff(x, out)):
            assert np.array_equal(got[0], rv) and np.array_equal(got[1], rh)


def test_diff_of_constant_is_zero():
    dv, dh = forward_diff(np.full((6, 6), 2.5))
    assert not dv.any() and not dh.any()


def test_diff_adjoint_identity():
    rng = np.random.default_rng(1)
    for shape in [(6, 7)] + GRIDS:
        x = rng.random(shape)
        pv, ph = rng.random((2,) + shape)
        dv, dh = forward_diff(x)
        lhs = float(np.vdot(dv, pv) + np.vdot(dh, ph))
        rhs = float(np.vdot(x, diff_adjoint(pv, ph)))
        assert lhs == pytest.approx(rhs, abs=1e-12)
        # Bit for bit the roll adjoint, also into caller buffers, with
        # the inputs left as they were.
        keep = pv.copy(), ph.copy()
        ref = roll_adjoint(pv, ph)
        out, work = np.full(shape, np.nan), np.full(shape, np.nan)
        assert np.array_equal(diff_adjoint(pv, ph), ref)
        assert diff_adjoint(pv, ph, out=out, work=work) is out
        assert np.array_equal(out, ref)
        assert np.array_equal(pv, keep[0]) and np.array_equal(ph, keep[1])


# ------------------------------------------------------------ tv value


def test_tv_of_constant_is_zero():
    assert tv_value(np.full((4, 4), 7.0)) == 0.0


def test_tv_of_2x2_stripes():
    # X = [[0, 1], [0, 1]]: every pixel has horizontal difference of
    # magnitude 1 (the wrap doubles the seam) and zero vertical difference.
    assert tv_value(np.array([[0.0, 1.0], [0.0, 1.0]])) == pytest.approx(4.0)


def test_tv_positive_homogeneity():
    rng = np.random.default_rng(2)
    x = rng.random((8, 8))
    assert tv_value(3.5 * x) == pytest.approx(3.5 * tv_value(x), rel=1e-12)
    assert tv_value(-2.0 * x) == pytest.approx(2.0 * tv_value(x), rel=1e-12)


# --------------------------------------------------------------- huber


def test_huber_linear_branch():
    assert float(huber(0.5, 0.01)) == pytest.approx(0.5)


def test_huber_quadratic_branch_at_zero():
    assert float(huber(0.0, 0.01)) == pytest.approx(0.005)


def test_huber_continuity_at_breakpoint():
    mu = 0.01
    assert float(huber(mu, mu)) == pytest.approx(mu)
    # One-sided difference quotients approach slope 1 from both sides.
    eps = 1e-9
    left = (float(huber(mu, mu)) - float(huber(mu - eps, mu))) / eps
    right = (float(huber(mu + eps, mu)) - float(huber(mu, mu))) / eps
    assert left == pytest.approx(1.0, abs=1e-6)
    assert right == pytest.approx(1.0, abs=1e-6)


def test_huber_derivative_factor():
    assert huber_derivative_factor(2.0, 0.01) == pytest.approx(0.5)
    assert huber_derivative_factor(0.001, 0.01) == pytest.approx(100.0)


# ------------------------------------------------------- smoothed tv


def test_tv_mu_constant_image():
    mu = 1e-2
    x = np.full((4, 5), 1.0)
    assert tv_mu_value(x, mu) == pytest.approx(x.size * mu / 2.0)
    assert np.allclose(tv_mu_gradient(x, mu), 0.0)


def test_tv_mu_close_to_tv():
    rng = np.random.default_rng(3)
    mu = 1e-2
    for _ in range(3):
        x = rng.random((8, 8))
        gap = tv_mu_value(x, mu) - tv_value(x)
        assert 0.0 <= gap <= x.size * mu / 2.0 + 1e-12


def test_tv_mu_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    mu = 1e-2
    x = rng.random((8, 8))
    # Keep all gradient magnitudes well away from the Huber kink.
    assert np.all(np.abs(TvStencil(x).fill(x).norms - mu) > 1e-3)
    g = tv_mu_gradient(x, mu)
    fd = central_difference_gradient(lambda z: tv_mu_value(z, mu), x)
    assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)


def test_kept_stencil_gives_the_same_bits():
    # A value that keeps its stencil gives the bits of one that does not,
    # and a gradient started from it those of a gradient computed anew,
    # in a fresh array.  One stencil serves point after point of the
    # layout it was made for (a solve's iterates keep one layout, and the
    # sums follow it).  The phantom has magnitudes on both sides of mu.
    mu = 1e-2
    for layout in (np.ascontiguousarray, np.asfortranarray):
        x = layout(shepp_logan(32))
        stencil = TvStencil(x)
        for point in (x + 0.3, x * x):
            assert tv_mu_value(point, mu, stencil) == tv_mu_value(point, mu)
            g = tv_mu_gradient(point, mu, stencil)
            assert np.array_equal(g, tv_mu_gradient(point, mu))
            assert not any(np.shares_memory(g, a)
                           for a in vars(stencil).values())


def test_mu_guards():
    with pytest.raises(ValueError):
        huber(1.0, 0.0)
    with pytest.raises(ValueError):
        huber_derivative_factor(1.0, -1.0)


# ------------------------------------------------------------- model


def test_model_weights_branches():
    # A 2x2 stripe image has every |D_i x| = 1 > mu -> w = 1/1; a
    # constant image has every norm 0 -> capped at 1/mu.
    mu = 0.01
    stripes = np.array([[0.0, 1.0], [0.0, 1.0]])
    model = TvQuadraticModel(stripes, mu)
    assert np.allclose(model.weights, 1.0)
    # Scaling the anchor by 2 halves the reciprocal-norm weights.
    assert np.allclose(TvQuadraticModel(2.0 * stripes, mu).weights, 0.5)
    flat = TvQuadraticModel(np.zeros((2, 2)), mu)
    assert np.allclose(flat.weights, 1.0 / mu)


def test_model_gradient_tangency():
    rng = np.random.default_rng(5)
    mu = 1e-2
    for _ in range(3):
        x = rng.random((8, 8))
        model = TvQuadraticModel(x, mu)
        assert np.allclose(model.gradient(x), tv_mu_gradient(x, mu),
                           atol=1e-12)


def test_model_value_tangency_in_large_norm_regime():
    # An image with all gradient magnitudes above mu: value tangency holds.
    mu = 1e-2
    x = np.add.outer(np.arange(6) * 0.5, np.arange(6) * 0.3) % 2.0
    assert np.all(TvStencil(x).fill(x).norms > mu)
    model = TvQuadraticModel(x, mu)
    assert model.value(x) == pytest.approx(tv_mu_value(x, mu), rel=1e-10)


def test_model_value_tangency_with_small_norms():
    # Most gradient magnitudes below mu, as on a piecewise-constant
    # image: the majorizer's constant, half the sum of max(norm, mu),
    # still makes the model equal the smoothed TV at its anchor.  Half
    # the sum of Huber values left it 2.5% low here.
    mu = 1e-2
    x = shepp_logan(64)
    assert np.mean(TvStencil(x).fill(x).norms < mu) > 0.8
    model = TvQuadraticModel(x, mu)
    assert model.value(x) == pytest.approx(tv_mu_value(x, mu), rel=1e-12)


def test_model_curvature_spsd():
    rng = np.random.default_rng(6)
    x = rng.random((6, 6))
    model = TvQuadraticModel(x, 1e-2)
    for _ in range(3):
        v = rng.standard_normal((6, 6))
        assert float(np.vdot(v, model.hessian_vec(v))) >= -1e-12
    # Constant directions lie in the nullspace.
    c = np.ones((6, 6))
    assert np.allclose(model.hessian_vec(c), 0.0, atol=1e-12)


def test_model_am_gm_majorization():
    # Per-term: z^2/(2a) + a/2 >= z for a = |D_i x_k| > mu.
    rng = np.random.default_rng(7)
    a = rng.uniform(0.02, 2.0, 100)
    z = rng.uniform(0.0, 3.0, 100)
    assert np.all(0.5 * z * z / a + 0.5 * a >= z - 1e-12)


def test_model_hessian_diagonal_matches_probed_curvature():
    # The diagonal that scales ACQUIRE's inner steps: 2w plus w shifted
    # down one row and right one column, against H e_i for every pixel.
    rng = np.random.default_rng(8)
    x = rng.random((8, 8))
    x[2:5, 3:6] = 0.4               # norms below mu: weights at 1/mu
    model = TvQuadraticModel(x, 5e-2)
    assert np.ptp(model.weights) > 1.0
    probed = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        e = np.zeros_like(x)
        e[idx] = 1.0
        probed[idx] = model.hessian_vec(e)[idx]
    diag = model.hessian_diag()
    assert np.max(np.abs(diag - probed)) <= 1e-12 * np.max(probed)
    out = np.empty_like(x)
    assert model.hessian_diag(out) is out
    assert np.array_equal(out, diag)
