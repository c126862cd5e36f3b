"""Feasible sets (nonnegativity, optionally with a flux equality) and
their exact Euclidean / diagonally-weighted projections, tangent-cone
projections and projected gradients.

All operations accept arrays of any shape (vectors or images) and
return an array of the same shape.  Active constraints are identified
by exact zeros: every feasible iterate comes out of a projection, which
produces exact zeros by construction.
"""

from dataclasses import dataclass
import math

import numpy as np


def _dot(a, b):
    """a'b over arrays of one shape, summed by numpy's einsum loop, not
    BLAS: BLAS sums in an order that follows its thread count, so the
    bits (and every iterate they steer) would depend on it.  The arrays
    go in as they are; flattening a column-major image would copy it."""
    axes = list(range(np.ndim(a)))
    return float(np.einsum(a, axes, b, axes, []))


def _norm(a):
    """Euclidean norm of an array, by `_dot`."""
    return math.sqrt(_dot(a, a))


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
        return _project_flux(v, None, self.flux)

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
        return _project_flux(w, None, 0.0, active)

    def pg_norm(self, x, grad):
        """Euclidean norm of the projected gradient at feasible x."""
        return _norm(self.projected_gradient(x, grad))


def _project_flux(v, d, c, bounded=None):
    """argmin sum (x_i - v_i)^2 / d_i  s.t.  sum x = c, x_i >= 0 wherever
    bounded is true (everywhere when it is None).  d None stands for unit
    weights: their sums are counts, and the breakpoints are v itself.

    The solution is x = v - tau*d, clipped at 0 on bounded entries, with
    tau the root of the decreasing piecewise-linear map tau -> sum x - c.
    Each round works on the candidates, the bounded entries not yet known
    to be zero or positive at the root.  A Michelot step (JOTA 1986)
    solves the sum with no candidate clipped.  Clipping only raises the
    sum, so that tau is at or below the root, and candidates breaking at
    or below it end at zero.  If none breaks there, tau is the root; if
    all do, the entries already known to be positive, where there are
    any, fix the root.  If the step drops fewer than half of the
    candidates, a median split over the breakpoints v_i / d_i of the rest
    (Kiwiel, JOTA 2008) follows.
    Every round thus at least halves the candidates and partitions at
    most once: at most floor(log2 n) + 1 rounds, O(n) work in all, with
    no sort.
    """
    unit = d is None
    vr = v.reshape(-1)
    dr = None if unit else d.reshape(-1)
    s_v = s_d = 0.0             # sums over entries positive at the root
    if bounded is not None:     # unbounded entries are never clipped
        b = bounded.reshape(-1)
        free = ~b
        s_v = vr[free].sum()
        s_d = np.count_nonzero(free) if unit else dr[free].sum()
        vr = vr[b]
        dr = None if unit else dr[b]
    t = vr if unit else vr / dr

    def take(idx):              # the candidates at idx: t, v and d
        if unit:
            u = vr[idx]
            return u, u, None
        return t[idx], vr[idx], dr[idx]

    while t.size:
        n = t.size
        sum_v = s_v + vr.sum()
        sum_d = s_d + (n if unit else dr.sum())
        up = t > (sum_v - c) / sum_d
        n_up = np.count_nonzero(up)
        if n_up == n:           # no candidate clips: the Michelot root
            s_v, s_d = sum_v, sum_d
            break
        if n_up:                # the rest end at zero
            t, vr, dr = take(up)
            if 2 * n_up <= n:
                continue
        elif s_d > 0:           # all end at zero
            break
        k = t.size // 2
        idx = np.argpartition(t, k)
        m = t[idx[k]]
        hi = idx[k + 1:]        # breakpoints at or above the median m
        hi_v = vr[hi].sum()
        hi_d = hi.size if unit else dr[hi].sum()
        if s_v + hi_v - m * (s_d + hi_d) - c > 0:
            keep = hi           # root above m: the rest end at zero
        else:                   # root at or below m: hi and m stay positive
            s_v += hi_v + vr[idx[k]]
            s_d += hi_d + (1.0 if unit else dr[idx[k]])
            keep = idx[:k]
        t, vr, dr = take(keep)
    # Unit weights give a C-ordered x too, as d * shift does for a d that
    # is C-ordered or broadcast: the iterates keep the blur's layout.
    shift = (c - s_v) / s_d
    x = np.full(v.shape, shift) if unit else d * shift
    x += v
    return np.maximum(x, 0.0, out=x,
                      where=True if bounded is None else bounded)
