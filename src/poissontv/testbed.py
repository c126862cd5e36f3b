"""Synthetic test-problem generation and image quality metrics.

Builds blurred, Poisson-noisy observations at a target signal-to-noise
ratio from a reference image, with full determinism from the recorded
seed, and provides the relative error and mean structural similarity
metrics used to score restorations.
"""

from dataclasses import dataclass
import json
import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blur import BlurOperator, Psf
from .constraints import _norm
from .image import load_f64img, save_f64img
from .kl import PoissonData

PHANTOM_MIN_SIZE = 32

# MATLAB-convention ellipse tables: intensity, half-axes a (x) and b (y),
# center (x0, y0), rotation in degrees.  The "original" intensities follow
# the 1974 head phantom; "modified" is the common high-contrast variant.
_ELLIPSE_GEOMETRY = (
    (0.69, 0.92, 0.0, 0.0, 0.0),
    (0.6624, 0.8740, 0.0, -0.0184, 0.0),
    (0.1100, 0.3100, 0.22, 0.0, -18.0),
    (0.1600, 0.4100, -0.22, 0.0, 18.0),
    (0.2100, 0.2500, 0.0, 0.35, 0.0),
    (0.0460, 0.0460, 0.0, 0.1, 0.0),
    (0.0460, 0.0460, 0.0, -0.1, 0.0),
    (0.0460, 0.0230, -0.08, -0.605, 0.0),
    (0.0230, 0.0230, 0.0, -0.606, 0.0),
    (0.0230, 0.0460, 0.06, -0.605, 0.0),
)
_INTENSITIES = {
    "original": (1.0, -0.98, -0.02, -0.02, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01),
    "modified": (1.0, -0.8, -0.2, -0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1),
}


def shepp_logan_ellipses(variant="modified"):
    """(intensity, a, b, x0, y0, phi_deg) rows of the head phantom."""
    if variant not in _INTENSITIES:
        raise ValueError(f"unknown phantom variant {variant!r}")
    return tuple((A, *geom) for A, geom in
                 zip(_INTENSITIES[variant], _ELLIPSE_GEOMETRY))


def render_ellipses(ellipses, n):
    """Sum of constant-intensity ellipses rasterized on an n x n grid, each
    evaluated on its bounding box plus two pixels, outside which it adds 0."""
    half = (n - 1) / 2.0
    coords = (np.arange(n) - half) / half
    # Pixels within r of pixel c; pixel j lies at coordinate j / half - 1.
    span = lambda c, r: slice(int(max(c - r, 0)), int(min(np.ceil(c + r), n)))
    img = np.zeros((n, n))
    for amp, a, b, x0, y0, phi_deg in ellipses:
        if not (np.isfinite([amp, a, b, x0, y0, phi_deg]).all()
                and min(a, b) > 0):
            raise ValueError("ellipse parameters must be finite, half-axes > 0")
        phi = np.deg2rad(phi_deg)
        ex = np.hypot(a * np.cos(phi), b * np.sin(phi))
        ey = np.hypot(a * np.sin(phi), b * np.cos(phi))
        rows = span(half * (1 - y0), ey * half + 2)
        cols = span(half * (1 + x0), ex * half + 2)
        xg = coords[None, cols]       # columns: x increases rightward
        yg = -coords[rows, None]      # rows: y decreases downward
        xr = (xg - x0) * np.cos(phi) + (yg - y0) * np.sin(phi)
        yr = -(xg - x0) * np.sin(phi) + (yg - y0) * np.cos(phi)
        img[rows, cols] += amp * ((xr / a) ** 2 + (yr / b) ** 2 <= 1.0)
    return img


def shepp_logan(n, variant="modified"):
    """Deterministic head phantom on an n x n grid, intensities in [0, 1]."""
    if n < PHANTOM_MIN_SIZE:
        raise ValueError(f"phantom size must be at least {PHANTOM_MIN_SIZE}")
    # Summed intensities can dip a few ulp below zero where ellipse
    # contributions cancel exactly; clamp to keep the range contract.
    return np.maximum(render_ellipses(shepp_logan_ellipses(variant), n), 0.0)


def snr_scale_factor(x_ref, b_total, target_snr_db):
    """Scale factor beta so the total exact flux t = beta*sum(x_ref)
    satisfies 10 log10(t / sqrt(t + b_total)) = target_snr_db.

    Closed form: with r = 10^(snr/10), t solves t^2 = r^2 (t + b_total).
    """
    if not np.isfinite(target_snr_db):
        raise ValueError("target SNR must be finite")
    n0 = float(np.sum(x_ref))
    if n0 <= 0:
        raise ValueError("reference image must have positive total flux")
    r = 10.0 ** (target_snr_db / 10.0)
    t = 0.5 * (r * r + r * np.sqrt(r * r + 4.0 * b_total))
    return t / n0


def poisson_sample(mean, seed):
    """Independent per-pixel Poisson draws, reproducible from the seed.

    Uses a counter-based (Philox) generator so streams are stable across
    platforms.
    """
    mean = np.asarray(mean, dtype=np.float64)
    if np.any(mean < 0):
        raise ValueError("Poisson means must be nonnegative")
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.poisson(mean).astype(np.float64)


@dataclass
class TestProblem:
    ground_truth: np.ndarray      # scaled to the observation's units
    op: BlurOperator
    psf: Psf
    background: float
    observed: np.ndarray          # counts divided by their maximum
    counts: np.ndarray            # raw Poisson counts
    snr_db: float
    seed: int
    scale: float                  # the unit-max divisor

    @property
    def scaled_background(self):
        """Background in the observation's (unit-max scaled) units."""
        return self.background / self.scale

    @property
    def flux(self):
        """Total intensity constant for the flux-constrained feasible set."""
        return float((self.observed - self.scaled_background).sum())

    def data(self):
        """The Poisson fidelity term for this observation."""
        return PoissonData(self.observed, self.scaled_background, self.op)


def make_problem(reference, psf, snr_db, seed, background=1e-10,
                 sample_noise=True):
    """Blur, add background, Poisson-sample and unit-max scale.

    With sample_noise=False the observation is the exact blurred image
    plus background (a noiseless surrogate for sanity runs).
    """
    reference = np.asarray(reference, dtype=np.float64)
    if not np.isfinite(reference).all():
        raise ValueError("reference image must be finite")
    r, s = reference.shape
    op = BlurOperator(psf, r, s)
    b_total = background * r * s
    beta = snr_scale_factor(reference, b_total, snr_db)
    x_star = beta * reference
    mean = np.maximum(op.apply(x_star), 0.0) + background
    counts = poisson_sample(mean, seed) if sample_noise else mean
    scale = float(counts.max())
    return TestProblem(
        ground_truth=x_star / scale,
        op=op,
        psf=psf,
        background=background,
        observed=counts / scale,
        counts=counts,
        snr_db=snr_db,
        seed=seed,
        scale=scale,
    )


def measured_snr(problem):
    """SNR recomputed from the drawn counts."""
    n_pixels = problem.counts.size
    b_total = problem.background * n_pixels
    n_exact = float(problem.counts.sum()) - b_total
    return 10.0 * np.log10(n_exact / np.sqrt(n_exact + b_total))


def relative_error(x, x_star):
    x_star = np.asarray(x_star, dtype=np.float64)
    if x_star.shape != np.shape(x):
        raise ValueError("image dimensions do not match")
    denom = _norm(x_star)
    if denom == 0:
        raise ValueError("reference image has zero norm")
    return _norm(x - x_star) / denom


def _convolve_valid(a, g):
    """Valid-mode convolution with the symmetric g along axis 0; an a
    shorter than g slides over g, as in scipy.signal's valid mode."""
    n, k = a.shape[0], g.size
    if n < k:
        return sliding_window_view(g, n) @ a[::-1]
    out = g[0] * a[:n - k + 1]
    # One scratch for every tap, in out's memory layout (a C-order one
    # is slower on the transposed pass).
    tap = np.empty_like(out)
    for i in range(1, k):
        out += np.multiply(g[i], a[i:i + n - k + 1], out=tap)
    return out


class MssimReference:
    """Mean structural similarity against a fixed reference image.

    Holds the reference's window means and variances, so that scoring an
    image filters three images instead of five; `MssimReference(x_star)(x)`
    equals `mssim(x, x_star)` bit for bit.  The dynamic range is taken
    from the reference image; local statistics are computed on the valid
    (fully overlapping) window positions.
    """

    def __init__(self, x_star, window_size=11, sigma=1.5, k1=0.01, k2=0.03):
        self.x_star = np.asarray(x_star, dtype=np.float64)
        data_range = float(self.x_star.max() - self.x_star.min())
        self.c1 = (k1 * data_range) ** 2
        self.c2 = (k2 * data_range) ** 2
        u = np.arange(window_size) - window_size // 2
        g = np.exp(-(u * u) / (2.0 * sigma * sigma))
        self.g = g / g.sum()
        self.mu2 = self._filter(self.x_star)
        self.var2 = self._filter(self.x_star * self.x_star) - self.mu2 * self.mu2

    def _filter(self, img):
        # The unit-sum window outer(g, g) is separable: one axis at a time.
        return _convolve_valid(_convolve_valid(img, self.g).T, self.g).T

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.x_star.shape:
            raise ValueError("image dimensions do not match")
        mu2 = self.mu2
        # The SSIM map
        #   (2 mu1 mu2 + c1) (2 cov + c2)
        #   / ((mu1^2 + mu2^2 + c1) (var1 + var2 + c2))
        # is formed in place, each element by the same operations in the
        # same order as the formula, so the score keeps its bits.  x's own
        # window means are filtered last, once the product image is freed.
        prod = x * x
        var1 = self._filter(prod)
        cov = self._filter(np.multiply(x, self.x_star, out=prod))
        del prod
        mu1 = self._filter(x)
        den = mu1 * mu1
        var1 -= den
        den += mu2 * mu2
        den += self.c1
        var1 += self.var2
        var1 += self.c2
        den *= var1
        cov -= np.multiply(mu1, mu2, out=var1)
        cov *= 2
        cov += self.c2
        ssim = mu1
        ssim *= 2
        ssim *= mu2
        ssim += self.c1
        ssim *= cov
        ssim /= den
        return float(np.mean(ssim))


def mssim(x, x_star, window_size=11, sigma=1.5, k1=0.01, k2=0.03):
    """Mean structural similarity of x against x_star (see MssimReference)."""
    return MssimReference(x_star, window_size, sigma, k1, k2)(x)


def save_problem(problem, directory, extra_meta=None):
    """Persist a problem bundle: images as F64IMG plus a meta.json."""
    os.makedirs(directory, exist_ok=True)
    save_f64img(os.path.join(directory, "ground_truth.f64img"),
                problem.ground_truth)
    save_f64img(os.path.join(directory, "observed.f64img"), problem.observed)
    problem.psf.save(os.path.join(directory, "psf.f64img"))
    meta = {
        "snr_db": problem.snr_db,
        "seed": problem.seed,
        "background": problem.background,
        "flux": problem.flux,
        "scale": problem.scale,
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def load_problem(directory):
    ground_truth = load_f64img(os.path.join(directory, "ground_truth.f64img"))
    observed = load_f64img(os.path.join(directory, "observed.f64img"))
    psf = Psf.load(os.path.join(directory, "psf.f64img"))
    with open(os.path.join(directory, "meta.json")) as fh:
        meta = json.load(fh)
    r, s = observed.shape
    return TestProblem(
        ground_truth=ground_truth,
        op=BlurOperator(psf, r, s),
        psf=psf,
        background=meta["background"],
        observed=observed,
        counts=observed * meta["scale"],
        snr_db=meta["snr_db"],
        seed=meta["seed"],
        scale=meta["scale"],
    )
