"""Image container conventions and file I/O.

An image is a C-ordered 2D float64 numpy array of shape (r, s) with
nonnegative intensities in arbitrary photon-count units.  F64IMG files
store the columns one after another (column-major); `load_f64img`
returns a C-ordered copy, like every array the program makes, so that
elementwise work never mixes strides.  All boundary handling is periodic.
"""

import re
import struct
from itertools import islice

import numpy as np

F64IMG_MAGIC = b"F64IMG"


def save_f64img(path, image):
    """Write a lossless raw float64 image: magic, r, s (uint32 LE), data.

    Data is stored column-major.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("save_f64img expects a 2D image")
    r, s = image.shape
    with open(path, "wb") as fh:
        fh.write(F64IMG_MAGIC)
        fh.write(struct.pack("<II", r, s))
        fh.write(image.ravel(order="F").astype("<f8").tobytes())


def load_f64img(path):
    """Read an F64IMG file as a C-ordered (r, s) float64 image."""
    with open(path, "rb") as fh:
        magic = fh.read(len(F64IMG_MAGIC))
        if magic != F64IMG_MAGIC:
            raise ValueError(f"{path}: not an F64IMG file")
        r, s = struct.unpack("<II", fh.read(8))
        data = np.frombuffer(fh.read(8 * r * s), dtype="<f8")
        if data.size != r * s:
            raise ValueError(f"{path}: truncated F64IMG payload")
        return data.reshape(s, r).T.astype(np.float64, order="C")


def save_pgm(path, image, maxval=255):
    """Write a binary (P5) PGM, linearly mapping [0, max(image)] to [0, maxval]."""
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    image = np.asarray(image, dtype=np.float64)
    top = image.max()
    scaled = np.zeros_like(image) if top <= 0 else image / top * maxval
    quantized = np.clip(np.rint(scaled), 0, maxval)
    r, s = image.shape
    header = f"P5\n{s} {r}\n{maxval}\n".encode("ascii")
    dtype = ">u2" if maxval == 65535 else "u1"
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quantized.astype(dtype).tobytes())


def load_pgm(path):
    """Read a P5 (binary) or P2 (ASCII) PGM as a float64 image; its
    maxval must lie in 1..65535 and bound every sample."""
    with open(path, "rb") as fh:
        raw = fh.read()
    tokens = _pgm_tokens(raw)
    header = list(islice(tokens, 4))
    if not header or header[0][1] not in (b"P5", b"P2"):
        raise ValueError(f"{path}: not a PGM file")
    if len(header) < 4:
        raise ValueError(f"{path}: truncated PGM")
    s, r, maxval = (int(match[1]) for match in header[1:])
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: PGM maxval {maxval} outside 1..65535")
    if header[0][1] == b"P2":
        data = np.array([int(match[1]) for match in islice(tokens, r * s)],
                        dtype=np.float64)
    else:
        # The payload starts one whitespace byte after the maxval token.
        dtype = np.dtype(">u2" if maxval > 255 else "u1")
        start = header[3].end() + 1
        payload = raw[start:start + r * s * dtype.itemsize]
        data = np.frombuffer(payload, dtype=dtype,
                             count=len(payload) // dtype.itemsize)
        data = data.astype(np.float64)
    if data.size < r * s:
        raise ValueError(f"{path}: truncated PGM")
    if not np.all((data >= 0) & (data <= maxval)):
        raise ValueError(f"{path}: PGM sample outside 0..{maxval}")
    return data.reshape((r, s))  # PGM is row-major


# Whitespace and # comments, then a token.  A comment ends at a newline or
# at raw's end; unanchored, backtracking would make its tail a token.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)")


def _pgm_tokens(raw):
    """The matches of raw's whitespace-separated tokens, in order, each
    token its group 1 and skipping # comments, until raw ends."""
    end = 0
    while match := _PGM_TOKEN.match(raw, end):
        yield match
        end = match.end()
