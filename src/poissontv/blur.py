"""Periodic blur operators and point-spread-function generators.

The forward operator and its adjoint are circular convolutions realized
in the frequency domain with numpy's real FFTs.  All PSFs are
nonnegative and normalized to sum one, so the resulting circulant matrix
is doubly stochastic: constant images are fixed points and total flux is
conserved.
"""

from dataclasses import dataclass

import numpy as np

from .image import load_f64img, save_f64img

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Psf:
    """Small convolution kernel with odd support, centered at (h//2, w//2)."""

    kernel: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=np.float64)
        if not np.all(np.isfinite(k)):
            raise ValueError("PSF kernel must be finite")
        if k.ndim != 2 or k.shape[0] % 2 == 0 or k.shape[1] % 2 == 0:
            raise ValueError("PSF kernel must be 2D with odd dimensions")
        if np.any(k < 0):
            raise ValueError("PSF kernel must be nonnegative")
        if abs(k.sum() - 1.0) > _SUM_TOL:
            raise ValueError("PSF kernel must sum to 1")
        object.__setattr__(self, "kernel", k)

    @property
    def center(self):
        return self.kernel.shape[0] // 2, self.kernel.shape[1] // 2

    def save(self, path):
        save_f64img(path, self.kernel)

    @classmethod
    def load(cls, path):
        return cls(load_f64img(path))


def gaussian_psf(size, sigma):
    """Radially symmetric Gaussian kernel on an odd size x size support."""
    if size < 3 or size % 2 == 0:
        raise ValueError("size must be an odd integer >= 3")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive and finite")
    c = size // 2
    # exp on one quadrant, mirrored: the squared offsets are exact integers.
    u = np.arange(c + 1, dtype=np.float64)
    k = np.exp(-(u[:, None] ** 2 + u[None, :] ** 2) / (2.0 * sigma**2))
    k = np.pad(k, ((c, 0), (c, 0)), mode="reflect")
    return Psf(k / k.sum())


def _segment_pixels(length, angle_deg, supersample, ends=False):
    """Pixel offsets (iy, ix) of a motion segment's midpoint samples, or
    with `ends` of its end samples alone, and the largest offset m, which
    the ends hold: the offsets are monotone along the segment."""
    # The offsets reach length / 2, and the integer cast below must hold
    # them: past 2**63 it would wrap.
    if not 1 <= length < 2.0**64:
        raise ValueError("length must lie in [1, 2**64)")
    if not np.isfinite(angle_deg):
        raise ValueError("angle must be finite")
    theta = np.deg2rad(angle_deg)
    # Angle measured counterclockwise from the horizontal axis; rows grow
    # downward, hence the sign flip on the vertical component.
    dx, dy = np.cos(theta), -np.sin(theta)
    nsamp = max(int(round(supersample * length)), 2)
    i = np.array([0, nsamp - 1.0]) if ends else np.arange(nsamp) * 1.0
    t = (i + 0.5) / nsamp * length - length / 2.0
    iy, ix = np.rint(t * dy).astype(int), np.rint(t * dx).astype(int)
    return iy, ix, max(int(np.abs(ix).max()), int(np.abs(iy).max()))


def motion_support(length, angle_deg, supersample=64):
    """Side of `motion_psf`'s kernel, found without building it."""
    *_, m = _segment_pixels(length, angle_deg, supersample, ends=True)
    return 2 * m + 1


def motion_psf(length, angle_deg, supersample=64):
    """Linear-motion kernel: a unit-mass line segment rasterized to pixels.

    The segment has the given length, passes through the kernel center at
    the given angle, and is sampled at `supersample` points per unit
    length (midpoint rule) before binning to the pixel grid.
    """
    iy, ix, m = _segment_pixels(length, angle_deg, supersample)
    k = np.zeros((2 * m + 1, 2 * m + 1))
    np.add.at(k, (iy + m, ix + m), 1.0)
    return Psf(k / k.sum())


def _subpixels(centers, supersample):
    """Subpixel center coordinates, one row per pixel center."""
    sub = (np.arange(supersample) + 0.5) / supersample - 0.5
    return np.asarray(centers, dtype=np.float64)[:, None] + sub[None, :]


def disk_support(radius, supersample=33):
    """Side of `disk_psf`'s kernel, found without building it: of the
    rows the kernel keeps where the disk covers a subpixel, only the rows
    m and m - 1 from the center can miss (by the kernel's own test), and
    the center row holds the other axis's smallest squared coordinate."""
    if not (radius > 0 and np.isfinite(radius * radius)):
        raise ValueError("radius must be positive and finite")
    m = int(np.ceil(radius + 0.5))
    sq = _subpixels([m, -m, m - 1, 1 - m, 0], supersample) ** 2
    covered = sq.min(axis=1) + sq.min() <= radius**2
    return 2 * int(m - 2 + covered[:2].any() + covered[2:4].any()) + 1


def disk_psf(radius, supersample=33):
    """Out-of-focus kernel: per-pixel area fraction covered by a disk.

    Coverage is estimated on a supersample x supersample subpixel grid;
    the border rows and columns it leaves empty are trimmed (a radius
    below half a pixel leaves a delta).
    """
    side = disk_support(radius, supersample)
    m = int(np.ceil(radius + 0.5))
    size = 2 * m + 1
    xx = _subpixels(np.arange(size) - m, supersample).reshape(-1)
    d2 = xx[:, None] ** 2 + xx[None, :] ** 2
    inside = (d2 <= radius**2).astype(np.float64)
    k = inside.reshape(size, supersample, size, supersample).sum(axis=(1, 3))
    k /= supersample**2
    total = k.sum()
    if total == 0:
        raise ValueError("disk too small to cover any subpixel")
    lo = m - side // 2
    return Psf(k[lo : size - lo, lo : size - lo] / total)


class BlurOperator:
    """Circular convolution by a PSF on a fixed r x s grid, via real FFT.

    The OTF is stored as a half spectrum (s // 2 + 1 columns).  A call
    runs four 1-D transforms through a half-spectrum buffer that the
    operator owns: rfft along rows and fft along columns into it, the
    product with the OTF in place, ifft along columns in place, and an
    irfft along rows, told the grid width (which odd widths need), into
    a fresh result.  So `apply` and `apply_adjoint` return new arrays
    and allocate no other image-sized temporary.  Because of the shared
    buffer, one operator must not be applied from two threads at once.
    The solvers apply it only on the thread that called them: the worker
    a solve runs beside it computes TV halves, which never blur.
    """

    def __init__(self, psf, r, s):
        kernel = psf.kernel
        kh, kw = kernel.shape
        if kh > r or kw > s:
            raise ValueError("PSF support exceeds image dimensions")
        cy, cx = psf.center
        # Circularly center the kernel at pixel (0, 0) so that applying the
        # operator to a delta at the origin reproduces the PSF unshifted.
        padded = np.zeros((r, s))
        rows, cols = (np.arange(kh) - cy) % r, (np.arange(kw) - cx) % s
        padded[np.ix_(rows, cols)] = kernel
        self.r = r
        self.s = s
        # A call's two forward passes: rfft2's bits, in less time.
        self._otf = np.fft.rfft(padded, axis=1)
        np.fft.fft(self._otf, axis=0, out=self._otf)
        self._otf_conj = np.conj(self._otf)
        self._spec = np.empty_like(self._otf)

    def _convolve(self, otf, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.r, self.s):
            raise ValueError(f"image shape {x.shape} does not match operator "
                             f"({self.r}, {self.s})")
        spec = self._spec
        np.fft.rfft(x, axis=1, out=spec)
        np.fft.fft(spec, axis=0, out=spec)
        # otf * spec, in this operand order: the product rounds
        # differently with the operands swapped.
        np.multiply(otf, spec, out=spec)
        np.fft.ifft(spec, axis=0, out=spec)
        return np.fft.irfft(spec, n=self.s, axis=1)

    def apply(self, x):
        return self._convolve(self._otf, x)

    def apply_adjoint(self, y):
        return self._convolve(self._otf_conj, y)
