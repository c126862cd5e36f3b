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
        # Written so that a NaN entry fails the check too.
        if not (np.all(d >= self.d_min) and np.all(d <= self.d_max)):
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
        if not np.all(x >= 0):      # also false on a NaN entry
            return False
        if self.flux is not None:
            return abs(float(x.sum()) - self.flux) <= 1e-10 * self.flux
        return True

    def project(self, v):
        """Exact Euclidean projection onto the set."""
        v = np.asarray(v, dtype=np.float64)
        if self.flux is None:
            return np.maximum(v, 0.0)
        # Unit weights as a zero-stride view: no image-sized array.
        return _project_flux(v, np.broadcast_to(1.0, v.shape), self.flux)

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
        return _project_flux(v, d, self.flux)

    def projected_gradient(self, x, grad):
        """Projection of -grad onto the tangent cone at feasible x."""
        x = np.asarray(x, dtype=np.float64)
        if not self.contains(x):
            raise ValueError("point is not feasible")
        w = -np.asarray(grad, dtype=np.float64)
        active = x == 0
        if self.flux is None:
            return np.maximum(w, 0.0, out=w, where=active)
        return _project_flux(w, np.broadcast_to(1.0, w.shape), 0.0, active)

    def pg_norm(self, x, grad):
        """Euclidean norm of the projected gradient at feasible x."""
        return float(np.linalg.norm(self.projected_gradient(x, grad)))


def _project_flux(v, d, c, bounded=None):
    """argmin sum (x_i - v_i)^2 / d_i  s.t.  sum x = c, x_i >= 0 wherever
    bounded is true (everywhere when it is None).

    The solution is x = v - tau*d, clipped at 0 on bounded entries, with
    tau the root of the decreasing piecewise-linear map tau -> sum x - c.
    Each round works on the candidates, the bounded entries not yet known
    to be zero or positive at the root.  A Michelot step (JOTA 1986)
    solves the sum with no candidate clipped.  Clipping only raises the
    sum, so that tau is at or below the root, and candidates breaking at
    or below it end at zero.  If none breaks there, tau is the root.  If
    the step drops fewer than half of the candidates, a median split over
    the breakpoints v_i / d_i of the rest (Kiwiel, JOTA 2008) follows.
    Every round thus at least halves the candidates and partitions at
    most once: at most floor(log2 n) + 1 rounds, O(n) work in all, with
    no sort.
    """
    vr, dr = v.reshape(-1), d.reshape(-1)
    s_v = s_d = 0.0             # sums over entries positive at the root
    if bounded is not None:     # unbounded entries are never clipped
        b = bounded.reshape(-1)
        free = ~b
        s_v, s_d = vr[free].sum(), dr[free].sum()
        vr, dr = vr[b], dr[b]
    t = vr / dr
    while t.size:
        n = t.size
        sum_v, sum_d = s_v + vr.sum(), s_d + dr.sum()
        up = t > (sum_v - c) / sum_d
        n_up = np.count_nonzero(up)
        if n_up == n:           # no candidate clips: the Michelot root
            s_v, s_d = sum_v, sum_d
            break
        if n_up:                # the rest end at zero
            t, vr, dr = t[up], vr[up], dr[up]
            if 2 * n_up <= n:
                continue
        k = t.size // 2
        idx = np.argpartition(t, k)
        m = t[idx[k]]
        hi = idx[k + 1:]        # breakpoints at or above the median m
        hi_v, hi_d = vr[hi].sum(), dr[hi].sum()
        if s_v + hi_v - m * (s_d + hi_d) - c > 0:
            keep = hi           # root above m: the rest end at zero
        else:                   # root at or below m: hi and m stay positive
            s_v += hi_v + vr[idx[k]]
            s_d += hi_d + dr[idx[k]]
            keep = idx[:k]
        t, vr, dr = t[keep], vr[keep], dr[keep]
    x = d * ((c - s_v) / s_d)
    x += v
    return np.maximum(x, 0.0, out=x,
                      where=True if bounded is None else bounded)
