"""Generalized Kullback-Leibler data fidelity for Poisson counts.

Provides the divergence value, gradient and matrix-free Hessian action
for observed counts y, background b > 0 and a linear blur operator, plus
the anchored second-order quadratic model used by the outer solver.
"""

import numpy as np

from .constraints import _dot


class PoissonData:
    """Observed counts, positive background and blur operator.

    Immutable after construction.  The background may be passed as a
    scalar and is broadcast to the image grid.
    """

    def __init__(self, y, background, op):
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (op.r, op.s):
            raise ValueError("observed image shape does not match operator")
        b = np.broadcast_to(np.asarray(background, dtype=np.float64), y.shape).copy()
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(b))):
            raise ValueError("observed counts and background must be finite")
        if np.any(b <= 0):
            raise ValueError("background must be positive everywhere")
        if np.any(y < 0):
            raise ValueError("observed counts must be nonnegative")
        self.y = y
        self.b = b
        self.op = op
        # y with ones where y = 0: y ln(_y_log / t) is then 0 there, so
        # the divergence is one pass over every pixel, with no mask.
        self._y_log = np.where(y > 0, y, 1.0)
        # Floor for A x + b: only FFT round-off can push it this low on
        # feasible input, so results at working precision are unaffected.
        self._den_floor = 1e-15 * float(b.max())

    def forward(self, x, ax=None):
        """A x + b, floored away from zero against FFT round-off.

        `ax` is A x when the caller already holds it; x is then unused.
        """
        t = (self.op.apply(x) if ax is None else ax) + self.b
        return np.maximum(t, self._den_floor, out=t)


def kl_value(data, x, ax=None):
    """Sum of y ln(y/(Ax+b)) + (Ax+b) - y, with 0 ln(...) = 0 where y = 0.

    `ax`, when given, is A x (see `PoissonData.forward`).
    """
    t = data.forward(x, ax)
    val = float((t - data.y).sum())
    np.divide(data._y_log, t, out=t)
    np.log(t, out=t)
    t *= data.y
    return val + float(t.sum())


def _residual_into(data, t):
    """Overwrite t = A x + b with 1 - y / t, the adjoint's input."""
    np.divide(data.y, t, out=t)
    return np.subtract(1.0, t, out=t)


def kl_gradient(data, x, ax=None):
    return data.op.apply_adjoint(_residual_into(data, data.forward(x, ax)))


class KlQuadraticModel:
    """Second-order Taylor model of the divergence, anchored at x_k.

    The curvature operator A^T U(x_k)^2 A + gamma I is frozen at the
    anchor; gamma >= 0 shifts it to guarantee strong convexity.  `ax`,
    when given, is A x_k; building the model then costs one adjoint.
    `gradient` and `hessian_vec` return fresh arrays; the model owns one
    image-sized scratch array.  `av` is the A v of the latest Hessian
    action, fresh, kept for its caller.  Each `value` call evaluates KL
    at x_k.
    """

    def __init__(self, data, x_k, gamma, ax=None):
        if gamma < 0:
            raise ValueError("gamma must be nonnegative")
        x_k = np.asarray(x_k, dtype=np.float64)
        t_k = data.forward(x_k, ax)
        self.data = data
        self.gamma = gamma
        self.x_k = x_k
        self.ax = ax
        self.u2 = data.y / (t_k * t_k)
        self.g_k = data.op.apply_adjoint(_residual_into(data, t_k))
        self._work = np.empty_like(x_k)
        self.av = None

    def hessian_vec(self, v):
        self.av = self.data.op.apply(v)
        hv = self.data.op.apply_adjoint(
            np.multiply(self.av, self.u2, out=self._work))
        hv += np.multiply(self.gamma, v, out=self._work)
        return hv

    def hessian_diag(self):
        """A fresh estimate of the curvature operator's diagonal,
        ||k||^2 u2 + gamma with ||k||^2 the PSF's sum of squares: exact
        wherever u2 is constant over a PSF footprint, and free of blurs."""
        h = np.multiply(self.data.op.psf_sq_norm, self.u2)
        h += self.gamma
        return h

    def _curvature(self, d):
        """H d; at the anchor (d = 0) it is zero and costs no blur."""
        return self.hessian_vec(d) if d.any() else np.zeros_like(d)

    def value(self, x):
        d = x - self.x_k
        return (kl_value(self.data, self.x_k, self.ax) + _dot(self.g_k, d)
                + 0.5 * _dot(d, self._curvature(d)))

    def gradient(self, x):
        g = self._curvature(x - self.x_k)
        g += self.g_k
        return g
