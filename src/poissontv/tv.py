"""Discrete total variation, its Huber smoothing, and reweighted models.

Per-pixel forward differences (vertical, horizontal) with periodic wrap
are realized as slice differences, the wrap row and column as one-row
slices.  The smoothed functional replaces each gradient magnitude by a
Huber value; its reweighted quadratic model freezes the per-pixel
weights at an anchor image.

The stencil passes write into caller-owned buffers where they are
given one, so the hot paths allocate only the arrays they return.
"""

import numpy as np


def forward_diff(x, out=None):
    """Per-pixel (vertical, horizontal) forward differences, periodic wrap.

    `out`, when given, is a pair of float64 arrays of x's shape that
    receive the differences; they must not overlap x.
    """
    x = np.asarray(x, dtype=np.float64)
    dv, dh = (np.empty_like(x), np.empty_like(x)) if out is None else out
    np.subtract(x[1:], x[:-1], out=dv[:-1])
    np.subtract(x[:1], x[-1:], out=dv[-1:])
    np.subtract(x[:, 1:], x[:, :-1], out=dh[:, :-1])
    np.subtract(x[:, :1], x[:, -1:], out=dh[:, -1:])
    return dv, dh


def diff_adjoint(pv, ph, out=None, work=None):
    """Adjoint of forward_diff: sum of per-pixel stencil transposes.

    The result goes into `out` (fresh when None); `work`, when given, is
    a scratch array of the same shape.  Neither may overlap pv or ph.
    """
    out = np.empty_like(pv) if out is None else out
    work = np.empty_like(ph) if work is None else work
    np.subtract(pv[:-1], pv[1:], out=out[1:])
    np.subtract(pv[-1:], pv[:1], out=out[:1])
    np.subtract(ph[:, :-1], ph[:, 1:], out=work[:, 1:])
    np.subtract(ph[:, -1:], ph[:, :1], out=work[:, :1])
    out += work
    return out


def _squares_into(dv, dh):
    """Overwrite dv with dv^2 + dh^2 (dh with dh^2); return dv."""
    np.multiply(dv, dv, out=dv)
    np.multiply(dh, dh, out=dh)
    dv += dh
    return dv


def _norms_into(dv, dh):
    """Overwrite dv with sqrt(dv^2 + dh^2) (dh with dh^2); return dv."""
    return np.sqrt(_squares_into(dv, dh), out=dv)


def grad_norms(x):
    return _norms_into(*forward_diff(x))


def huber_derivative_factor(norm, mu, out=None):
    """Per-pixel factor 1/max(norm, mu) multiplying the stencil term.

    `out`, when given, receives the factor (it may be `norm` itself).
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    return np.divide(1.0, np.maximum(norm, mu, out=out), out=out)


class TvStencil:
    """Image-sized arrays for one point's stencil: its forward differences
    `dv` and `dh`, its gradient magnitudes `norms`, and a `work` array.

    `tv_mu_value(x, mu, stencil)` leaves x's differences and norms here,
    and `tv_mu_gradient(x, mu, stencil)` starts from them and uses them
    up, so a gradient at an evaluated point repeats none of its stencil.
    The arrays take the shape and memory layout of `like`, which the
    points must share for the bits of a fresh evaluation: sums follow the
    layout.
    """

    def __init__(self, like):
        self.dv, self.dh, self.norms, self.work = (
            np.empty_like(like, dtype=np.float64) for _ in range(4))

    def fill(self, x):
        """Compute x's differences and norms into the arrays; return self."""
        forward_diff(x, (self.dv, self.dh))
        np.multiply(self.dv, self.dv, out=self.norms)
        np.multiply(self.dh, self.dh, out=self.work)
        self.norms += self.work
        np.sqrt(self.norms, out=self.norms)
        return self


def tv_mu_value(x, mu, stencil=None):
    """Smoothed TV: the sum over pixels of the Huber value of the gradient
    magnitude n, which is n above mu and (n^2 / mu + mu) / 2 below.

    Summed as n + (mu - min(n, mu))^2 / (2 mu): one sum of the norms and
    one of the squared shortfalls, with no branch mask.  `stencil`, when
    given, is a `TvStencil` that keeps x's differences and norms.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if stencil is None:
        norms = work = grad_norms(x)
    else:
        norms, work = stencil.fill(x).norms, stencil.work
    total = float(norms.sum())
    np.minimum(norms, mu, out=work)
    np.subtract(mu, work, out=work)
    np.multiply(work, work, out=work)
    return total + float(work.sum()) / (2.0 * mu)


def tv_mu_gradient(x, mu, stencil=None):
    """The smoothed TV's gradient at x, fresh.  `stencil`, when given, is
    the `TvStencil` that `tv_mu_value(x, mu, stencil)` filled; the
    gradient starts from it, with the same bits, and uses it up."""
    kept = stencil is not None
    if not kept:
        stencil = TvStencil(x).fill(x)
    f = huber_derivative_factor(stencil.norms, mu, out=stencil.norms)
    stencil.dv *= f
    stencil.dh *= f
    # Unkept, the work array is fresh and becomes the result.
    return diff_adjoint(stencil.dv, stencil.dh,
                        out=None if kept else stencil.work, work=f)


class TvQuadraticModel:
    """Weighted quadratic surrogate of the smoothed TV, anchored at x_k.

    Weights are 1/max(norm, mu) for the anchor's per-pixel gradient
    magnitudes, and the constant is half the sum of max(norm, mu): the
    iteratively reweighted norm majorizer.  Its value and gradient at the
    anchor match the smoothed TV's; the curvature operator is constant
    and positive semidefinite.

    The model owns three image-sized scratch arrays; `value`, `gradient`
    and `hessian_vec` reuse them, and the latter two return a fresh array
    unless given one to write into.
    """

    def __init__(self, x_k, mu):
        if mu <= 0:
            raise ValueError("mu must be positive")
        self._dv, self._dh = forward_diff(x_k)
        self._work = np.empty_like(self._dv)
        # A fresh array, not the scratch: value and gradient overwrite that.
        clamped = np.maximum(_norms_into(self._dv, self._dh), mu)
        self.mu = mu
        self.constant = 0.5 * float(clamped.sum())
        self.weights = huber_derivative_factor(clamped, mu, out=clamped)

    def value(self, x):
        q = _squares_into(*forward_diff(x, (self._dv, self._dh)))
        q *= self.weights
        return float(0.5 * q.sum() + self.constant)

    def gradient(self, x, out=None):
        """The model gradient at x, in `out` when given, else fresh."""
        dv, dh = forward_diff(x, (self._dv, self._dh))
        dv *= self.weights
        dh *= self.weights
        return diff_adjoint(dv, dh, out=out, work=self._work)

    # The model is quadratic: its Hessian action equals the gradient map.
    hessian_vec = gradient
