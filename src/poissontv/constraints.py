"""Feasible sets (nonnegativity, optionally with a flux equality) and
their exact Euclidean / diagonally-weighted projections, tangent-cone
projections and projected gradients.

All operations accept arrays of any shape (vectors or images) and
return an array of the same shape.  Active constraints are identified
by exact zeros: every feasible iterate comes out of a projection, which
produces exact zeros by construction.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DiagonalMetric:
    """Diagonal positive definite scaling with entries in [d_min, d_max]."""

    d: np.ndarray
    d_min: float
    d_max: float

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        if not (0 < self.d_min <= self.d_max):
            raise ValueError("require 0 < d_min <= d_max")
        if np.any(d < self.d_min) or np.any(d > self.d_max):
            raise ValueError("metric entries outside [d_min, d_max]")
        object.__setattr__(self, "d", d)


class FeasibleSet:
    """Nonnegative orthant, optionally intersected with a flux equality.

    The flux variant constrains the total intensity to a positive
    constant c (sum of observed counts minus background).
    """

    def __init__(self, flux=None):
        if flux is not None and not (np.isfinite(flux) and flux > 0):
            raise ValueError("flux constant must be positive and finite")
        self.flux = flux

    @classmethod
    def nonneg(cls):
        return cls()

    @classmethod
    def nonneg_flux(cls, c):
        return cls(flux=float(c))

    def contains(self, x):
        x = np.asarray(x)
        if np.any(x < 0):
            return False
        if self.flux is not None:
            return abs(float(x.sum()) - self.flux) <= 1e-10 * self.flux
        return True

    def project(self, v):
        """Exact Euclidean projection onto the set."""
        v = np.asarray(v, dtype=np.float64)
        if self.flux is None:
            return np.maximum(v, 0.0)
        return _project_sum_constrained(v, np.ones_like(v), self.flux)

    def project_weighted(self, metric, v):
        """Projection in the norm with weights 1/d_i (metric C^-1).

        Returns a fresh array, never v itself.
        """
        v = np.asarray(v, dtype=np.float64)
        if self.flux is None:
            # The diagonal metric is separable over the box; the weighted
            # and Euclidean projections coincide.
            return np.maximum(v, 0.0)
        d = np.broadcast_to(metric.d, v.shape)
        return _project_sum_constrained(v, d, self.flux)

    def projected_gradient(self, x, grad):
        """Projection of -grad onto the tangent cone at feasible x."""
        x = np.asarray(x, dtype=np.float64)
        if not self.contains(x):
            raise ValueError("point is not feasible")
        w = -np.asarray(grad, dtype=np.float64)
        active = x == 0
        if self.flux is None:
            return np.maximum(w, 0.0, out=w, where=active)
        return _project_tangent_flux(w, active)

    def is_stationary(self, x, grad, tol):
        return float(np.linalg.norm(self.projected_gradient(x, grad))) <= tol


def _project_sum_constrained(v, d, c):
    """argmin sum (x_i - v_i)^2 / d_i  s.t.  x >= 0, sum x = c.

    The KKT solution is x = max(v - tau*d, 0) with tau the root of the
    decreasing piecewise-linear map tau -> sum max(v_i - tau*d_i, 0) - c,
    found exactly by a scan over the sorted breakpoints v_i / d_i.
    """
    shape = v.shape
    v = v.ravel()
    d = d.ravel()
    t = v / d
    order = np.argsort(t)
    t_s = t[order]
    v_s = v[order]
    d_s = d[order]
    # Suffix sums over the still-positive entries for tau in each segment.
    suff_v = np.cumsum(v_s[::-1])[::-1]
    suff_d = np.cumsum(d_s[::-1])[::-1]
    taus = (suff_v - c) / suff_d
    ok = np.nonzero(taus <= t_s)[0]
    # c > 0 guarantees a root with a nonempty positive set.
    j = ok[0]
    tau = taus[j]
    return np.maximum(v - tau * d, 0.0).reshape(shape)


def _project_tangent_flux(w, active):
    """Project w onto {v : sum v = 0, v_i >= 0 where active_i}.

    Iterative active-set reduction: project onto the zero-sum hyperplane
    over the tentatively-free coordinates, pin the sign-violating active
    coordinates to zero, repeat.  Each pass only adds pins, so it
    terminates in at most n passes.
    """
    shape = w.shape
    w = w.ravel()
    active = active.ravel()
    pinned = np.zeros_like(active)
    while True:
        free = ~pinned
        tau = w[free].sum() / free.sum()
        v = np.where(free, w - tau, 0.0)
        violating = free & active & (v < 0)
        if not violating.any():
            return v.reshape(shape)
        pinned |= violating
