"""Allocation budgets of the hot elementwise kernels.

Each budget is the peak traced memory of one call, after one warm-up
call, in units of one 256 x 256 float64 image.  tracemalloc sees numpy's
data buffers, so the counts do not depend on the machine's speed.  A
kernel that brings back per-call temporaries (np.roll copies, masks,
products formed twice) goes over its budget.
"""

from concurrent.futures import ThreadPoolExecutor
import tracemalloc

import numpy as np
import pytest

from poissontv.blur import BlurOperator, gaussian_psf
from poissontv.kl import PoissonData
from poissontv.sgp import SteplengthState, abbmin_steplength, scaling_matrix
from poissontv.solver import OuterModel
from poissontv.testbed import MssimReference
from poissontv.tv import TvQuadraticModel, TvStencil, tv_mu_value

N = 256


def peak_images(call):
    """Peak traced memory of one call, in images, after a warm-up."""
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (N * N * 8)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(0)
    x = rng.random((N, N)) + 0.01
    x_prev = x + 0.01 * rng.random((N, N))
    return x, x_prev


# Measured with the in-place kernels (before them, in parentheses):
# TV model gradient 1.38 (6.02), value 0.38 (4.00), OuterModel Hessian
# action 2.01 with or without a worker, its TV term written into the
# model's own array (2.38 with a fresh TV term and no worker, 3.01 with
# one; 7.02 before the in-place kernels), ABBmin steplength 0.00 with the
# work arrays its state owns (3.00 without them, 4.00 before the in-place
# products).  The fractions are numpy's iteration buffers over the
# non-contiguous stencil slices; the Hessian action holds A v and the
# adjoint's result, while the half spectra live in the blur operator's
# own buffer.
def test_tv_model_budget(images):
    x, x_prev = images
    model = TvQuadraticModel(x, 1e-2)
    assert peak_images(lambda: model.gradient(x_prev)) <= 2.0
    assert peak_images(lambda: model.value(x_prev)) <= 1.0


# Measured with the stencil an objective owns: 0.38, numpy's iteration
# buffers alone (2.38 when each value formed its differences and norms
# in arrays of its own, as ACQUIRE's line-search trials did).
def test_tv_value_budget_with_a_warm_stencil(images):
    x, x_prev = images
    stencil = TvStencil(x)
    assert peak_images(lambda: tv_mu_value(x_prev, 1e-2, stencil)) <= 0.5


def test_outer_hessian_budget(images):
    x, x_prev = images
    op = BlurOperator(gaussian_psf(9, 2.0), N, N)
    data = PoissonData(op.apply(x) + 1e-3, 1e-3, op)
    v = x - x_prev
    model = OuterModel(data, x, 6e-3, 1e-2, 1e-5)
    assert peak_images(lambda: model.hessian_vec(v)) <= 2.5
    # With a live worker the TV half runs while the KL half holds A v and
    # the adjoint's result, so it writes into an array the model owns.
    with ThreadPoolExecutor(max_workers=1) as pool:
        model = OuterModel(data, x, 6e-3, 1e-2, 1e-5, pool=pool)
        assert peak_images(lambda: model.hessian_vec(v)) <= 2.5


# Measured with the operator's own half-spectrum buffer: 1.00, the
# returned image (2.01 when each call allocated its spectra).
def test_blur_budget(images):
    x, _ = images
    op = BlurOperator(gaussian_psf(9, 2.0), N, N)
    assert peak_images(lambda: op.apply(x)) <= 1.1
    assert peak_images(lambda: op.apply_adjoint(x)) <= 1.1


def test_abbmin_steplength_budget(images):
    x, x_prev = images
    g, g_prev = np.sin(x), np.sin(x_prev)
    metric = scaling_matrix(x)
    # One state across the warm-up and the measured call: it owns the
    # work arrays, so the measured call allocates none.
    state = SteplengthState()
    state.record(x_prev, g_prev)
    assert peak_images(lambda: abbmin_steplength(state, metric, x, g)) <= 0.5


# Measured with the SSIM map formed in place and x's own window means
# filtered after the product image is freed: 4.86 (5.78 before).  One
# filter holds its first pass, its result and one tap scratch; at the
# peak the call also holds the product image and one earlier result.
# The CLI scores once per summary row, inside the solver's hook, while
# the solver's own temporaries are live.
def test_mssim_budget(images):
    x, x_prev = images
    reference = MssimReference(x_prev)
    assert peak_images(lambda: reference(x)) <= 5.0
