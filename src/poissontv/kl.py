"""Generalized Kullback-Leibler data fidelity for Poisson counts.

Provides the divergence value, gradient and matrix-free Hessian action
for observed counts y, background b > 0 and a linear blur operator, plus
the anchored second-order quadratic model used by the outer solver.
"""

import numpy as np


def _dot(a, b):
    return float(np.vdot(a, b))


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
        # Floor for A x + b: only FFT round-off can push it this low on
        # feasible input, so results at working precision are unaffected.
        self._den_floor = 1e-15 * float(b.max())

    def forward(self, x, ax=None):
        """A x + b, floored away from zero against FFT round-off.

        `ax` is A x when the caller already holds it; x is then unused.
        """
        t = (self.op.apply(x) if ax is None else ax) + self.b
        return np.maximum(t, self._den_floor)


def kl_value(data, x, ax=None):
    """Sum of y ln(y/(Ax+b)) + (Ax+b) - y, with 0 ln(...) = 0 where y = 0.

    `ax`, when given, is A x (see `PoissonData.forward`).
    """
    t = data.forward(x, ax)
    y = data.y
    val = float((t - y).sum())
    pos = y > 0
    val += float((y[pos] * np.log(y[pos] / t[pos])).sum())
    return val


def kl_gradient(data, x, ax=None):
    t = data.forward(x, ax)
    return data.op.apply_adjoint(1.0 - data.y / t)


def kl_hessian_vec(data, x, v):
    t = data.forward(x)
    return data.op.apply_adjoint(data.y / (t * t) * data.op.apply(v))


class KlQuadraticModel:
    """Second-order Taylor model of the divergence, anchored at x_k.

    The curvature operator A^T U(x_k)^2 A + gamma I is frozen at the
    anchor; gamma >= 0 shifts it to guarantee strong convexity.  `ax`,
    when given, is A x_k; building the model then costs one adjoint.
    """

    def __init__(self, data, x_k, gamma, ax=None):
        if gamma < 0:
            raise ValueError("gamma must be nonnegative")
        x_k = np.asarray(x_k, dtype=np.float64)
        if ax is None:
            ax = data.op.apply(x_k)
        t_k = data.forward(x_k, ax)
        self.op = data.op
        self.gamma = gamma
        self.x_k = x_k
        self.g_k = data.op.apply_adjoint(1.0 - data.y / t_k)
        self.u2 = data.y / (t_k * t_k)
        self.value_k = kl_value(data, x_k, ax)

    def hessian_vec(self, v):
        return self.op.apply_adjoint(self.u2 * self.op.apply(v)) + self.gamma * v

    def _curvature(self, d):
        """H d; at the anchor (d = 0) it is zero and costs no blur."""
        return self.hessian_vec(d) if d.any() else np.zeros_like(d)

    def value(self, x):
        d = x - self.x_k
        return (self.value_k + _dot(self.g_k, d)
                + 0.5 * _dot(d, self._curvature(d)))

    def gradient(self, x):
        return self.g_k + self._curvature(x - self.x_k)
