"""Checks made apart from the program.

The objective is recomputed by direct circular convolution (separable
circulant products for a rank-one kernel, a sum of shifted copies for a
sparse one) and by this file's own KL and Huber-TV formulas; nothing
here calls the FFT blur operator or the program's objective code.
"""

import numpy as np

# Relative round-off allowance for a sum of 256 x 256 terms (about n * eps;
# the direct and FFT objectives of a solve agree to about 1e-16).
ROUNDOFF = 1e-12
# Kernels with at most this many nonzero taps are applied tap by tap.
_MAX_TAPS = 1024


def _circulant(taps, center, n):
    """n x n matrix C with (C v)[i] = sum_u taps[u] v[(i - (u - center)) % n]."""
    c = np.zeros((n, n))
    rows = np.arange(n)[:, None]
    cols = (rows - (np.arange(taps.size)[None, :] - center)) % n
    np.add.at(c, (np.broadcast_to(rows, cols.shape), cols),
              np.broadcast_to(taps, cols.shape))
    return c


class DirectBlur:
    """y = k (*) x, circular, with the kernel centered at (h//2, w//2)."""

    def __init__(self, kernel, shape):
        kernel = np.asarray(kernel, dtype=np.float64)
        cy, cx = kernel.shape[0] // 2, kernel.shape[1] // 2
        r, s = shape
        self._taps = None
        if np.count_nonzero(kernel) <= _MAX_TAPS:
            self._taps = [(kernel[i, j], (i - cy, j - cx))
                          for i, j in zip(*np.nonzero(kernel))]
            return
        u, sv, vt = np.linalg.svd(kernel)
        if sv[1] <= 1e-14 * sv[0]:
            a = u[:, 0] * np.sqrt(sv[0])
            b = vt[0] * np.sqrt(sv[0])
            if a.sum() < 0:
                a, b = -a, -b
            self._rows = _circulant(a, cy, r)
            self._cols = _circulant(b, cx, s).T
        else:
            raise ValueError("kernel is neither sparse nor separable")

    def __call__(self, x):
        if self._taps is not None:
            out = np.zeros_like(x)
            for weight, shift in self._taps:
                out += weight * np.roll(x, shift, axis=(0, 1))
            return out
        return self._rows @ x @ self._cols


def objective(blur, y, background, x, lam, mu):
    """(value, round-off scale) of KL(Ax + b, y) + lam * TV_mu(x)."""
    t = blur(x) + background
    pos = y > 0
    log_terms = y[pos] * np.log(y[pos] / t[pos])
    kl = float((t - y).sum() + log_terms.sum())
    dv = np.vstack([x[1:], x[:1]]) - x
    dh = np.hstack([x[:, 1:], x[:, :1]]) - x
    norm = np.sqrt(dv ** 2 + dh ** 2)
    tv = float(np.where(norm > mu, norm, (norm ** 2 / mu + mu) / 2).sum())
    scale = float(np.abs(t).sum() + y.sum() + np.abs(log_terms).sum()
                  + lam * tv)
    return kl + lam * tv, scale


def rel_error(x, truth):
    return float(np.sqrt(((x - truth) ** 2).sum() / (truth ** 2).sum()))


def check_output(x, values, memory, f0, f0_scale, f_final, flux=None):
    """What is wrong with one returned solve, as a list of strings.

    `values` are the objective values the solver traced, one per
    iteration; `f0` is this module's objective at the start image and
    `f_final` (value, scale) at `x`.  With memory > 1 each value must
    pass the nonmonotone Armijo test against the last `memory` values,
    the start included; with memory 1 values must never increase.
    """
    problems = []
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        problems.append("returned image has a negative or nonfinite pixel")
    if flux is not None and abs(float(x.sum()) - flux) > ROUNDOFF * flux:
        problems.append(f"image sums to {float(x.sum())!r}, not {flux!r}")
    f, scale = f_final
    if values and abs(f - values[-1]) > ROUNDOFF * scale:
        problems.append(f"objective {values[-1]!r} does not match the "
                        f"direct recomputation {f!r}")
    history = [f0]
    for k, f in enumerate(values, 1):
        # f0 is recomputed here, so comparisons against it allow round-off.
        slack = ROUNDOFF * f0_scale if k <= memory else 0.0
        if f > max(history[-memory:]) + slack:
            rule = "increased" if memory == 1 else "failed the Armijo test"
            problems.append(f"objective {rule} at iteration {k}")
            break
        history.append(f)
    return problems
