import numpy as np
import pytest

from poissontv.blur import BlurOperator, Psf, gaussian_psf
from poissontv.kl import KlQuadraticModel, PoissonData, kl_gradient, kl_value


def identity_data(y, b):
    """PoissonData with A = identity on a grid matching y."""
    y = np.asarray(y, dtype=np.float64)
    op = BlurOperator(Psf(np.array([[1.0]])), *y.shape)
    return PoissonData(y, b, op)


def random_instance(seed=0, n=8):
    rng = np.random.default_rng(seed)
    op = BlurOperator(gaussian_psf(3, 1.0), n, n)
    x = rng.random((n, n)) + 0.1
    y = np.floor(10.0 * rng.random((n, n)))
    data = PoissonData(y, 0.5, op)
    return data, x


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


# ------------------------------------------------------------- guards


def test_data_validation():
    op = BlurOperator(Psf(np.array([[1.0]])), 2, 2)
    with pytest.raises(ValueError):
        PoissonData(np.full((2, 2), -1.0), 1.0, op)
    with pytest.raises(ValueError):
        PoissonData(np.ones((2, 2)), 0.0, op)
    with pytest.raises(ValueError):
        PoissonData(np.ones((3, 3)), 1.0, op)
    for bad in (np.nan, np.inf):
        y = np.ones((2, 2))
        y[0, 1] = bad
        with pytest.raises(ValueError):
            PoissonData(y, 1.0, op)
    with pytest.raises(ValueError):
        PoissonData(np.ones((2, 2)), np.nan, op)


# -------------------------------------------------------------- value


def test_value_zero_at_perfect_fit():
    data, x = random_instance()
    y = data.forward(x)
    fit = PoissonData(y, data.b, data.op)
    assert kl_value(fit, x) == pytest.approx(0.0, abs=1e-12)


def test_value_zero_counts_convention():
    # y = 0 leaves only the linear terms: (2+1) + (3+1) = 7.
    data = identity_data(np.array([[0.0, 0.0]]), 1.0)
    assert kl_value(data, np.array([[2.0, 3.0]])) == pytest.approx(7.0)


def test_value_scalar_oracle():
    # 4 ln(4/2) + (2-4) + 2 ln(2/2) + (2-2) = 4 ln 2 - 2.
    data = identity_data(np.array([[4.0, 2.0]]), 1.0)
    val = kl_value(data, np.array([[1.0, 1.0]]))
    assert val == pytest.approx(4.0 * np.log(2.0) - 2.0)
    assert val == pytest.approx(0.7725887, abs=1e-7)


def test_value_nonnegative_and_convex_along_segments():
    data, x = random_instance(1)
    rng = np.random.default_rng(2)
    z = rng.random(x.shape) + 0.1
    assert kl_value(data, x) >= 0.0
    for t in (0.25, 0.5, 0.75):
        mid = kl_value(data, t * x + (1 - t) * z)
        assert mid <= t * kl_value(data, x) + (1 - t) * kl_value(data, z) + 1e-10


# ----------------------------------------------------------- gradient


def test_gradient_zero_at_perfect_fit():
    data, x = random_instance(3)
    fit = PoissonData(data.forward(x), data.b, data.op)
    assert np.allclose(kl_gradient(fit, x), 0.0, atol=1e-12)


def test_gradient_scalar_oracle():
    data = identity_data(np.array([[4.0, 2.0]]), 1.0)
    g = kl_gradient(data, np.array([[1.0, 1.0]]))
    assert np.allclose(g, [[-1.0, 0.0]], atol=1e-14)


def test_gradient_matches_finite_differences():
    data, x = random_instance(4)
    g = kl_gradient(data, x)
    fd = central_difference_gradient(lambda z: kl_value(data, z), x)
    assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)


# ------------------------------------------------------------ hessian


def kl_hessian_vec(data, x, v):
    """A^T U(x)^2 A v: the Hessian action of the model with no shift."""
    return KlQuadraticModel(data, x, 0.0).hessian_vec(v)


def test_hessian_zero_counts():
    data = identity_data(np.zeros((2, 2)), 1.0)
    v = np.arange(4.0).reshape(2, 2)
    assert np.allclose(kl_hessian_vec(data, np.ones((2, 2)), v), 0.0)


def test_hessian_scalar_oracle():
    data = identity_data(np.array([[4.0, 2.0]]), 1.0)
    hv = kl_hessian_vec(data, np.array([[1.0, 1.0]]),
                        np.array([[1.0, 0.0]]))
    assert np.allclose(hv, [[1.0, 0.0]], atol=1e-14)


def test_hessian_matches_gradient_differences():
    data, x = random_instance(5)
    rng = np.random.default_rng(6)
    v = rng.standard_normal(x.shape)
    h = 1e-6
    fd = (kl_gradient(data, x + h * v) - kl_gradient(data, x - h * v)) / (2 * h)
    hv = kl_hessian_vec(data, x, v)
    assert np.allclose(hv, fd, rtol=1e-5, atol=1e-7)


def test_hessian_symmetry():
    data, x = random_instance(7)
    rng = np.random.default_rng(8)
    v, w = rng.standard_normal((2, *x.shape))
    lhs = float(np.vdot(kl_hessian_vec(data, x, v), w))
    rhs = float(np.vdot(v, kl_hessian_vec(data, x, w)))
    assert lhs == pytest.approx(rhs, rel=1e-10)


# -------------------------------------------------------------- model


def test_model_tangency():
    data, x = random_instance(9)
    model = KlQuadraticModel(data, x, gamma=1e-5)
    assert model.value(x) == pytest.approx(kl_value(data, x), rel=1e-14)
    assert np.allclose(model.gradient(x), kl_gradient(data, x), atol=1e-14)


def test_model_curvature_shift_bound():
    data, x = random_instance(10)
    gamma = 1e-5
    model = KlQuadraticModel(data, x, gamma)
    rng = np.random.default_rng(11)
    for _ in range(3):
        v = rng.standard_normal(x.shape)
        quad = float(np.vdot(v, model.hessian_vec(v)))
        assert quad >= gamma * float(np.vdot(v, v)) - 1e-12


def test_model_quadratic_exactness():
    data, x = random_instance(12)
    model = KlQuadraticModel(data, x, gamma=1e-5)
    rng = np.random.default_rng(13)
    v = rng.standard_normal(x.shape)
    g_v = float(np.vdot(model.gradient(x), v))
    h_v = float(np.vdot(v, model.hessian_vec(v)))
    f0 = model.value(x)
    for t in (0.5, 1.0, 2.0):
        expected = f0 + t * g_v + 0.5 * t * t * h_v
        assert model.value(x + t * v) == pytest.approx(expected, rel=1e-12)


def test_model_rejects_negative_gamma():
    data, x = random_instance(14)
    with pytest.raises(ValueError):
        KlQuadraticModel(data, x, gamma=-1.0)
