"""Image container conventions and file I/O.

An image is a C-ordered 2D float64 numpy array of shape (r, s) with
nonnegative intensities in arbitrary photon-count units.  F64IMG files
store the columns one after another (column-major); `load_f64img`
returns a C-ordered copy, like every array the program makes, so that
elementwise work never mixes strides.  All boundary handling is periodic.
"""

import struct

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
    """Read a P5 (binary) or P2 (ASCII) PGM as a float64 image."""
    with open(path, "rb") as fh:
        raw = fh.read()
    tokens = _pgm_tokens(raw)
    magic = next(tokens)
    if magic not in (b"P5", b"P2"):
        raise ValueError(f"{path}: not a PGM file")
    s = int(next(tokens))
    r = int(next(tokens))
    maxval = int(next(tokens))
    if magic == b"P2":
        data = np.array([int(next(tokens)) for _ in range(r * s)], dtype=np.float64)
    else:
        offset = _pgm_data_offset(raw)
        dtype = ">u2" if maxval > 255 else "u1"
        data = np.frombuffer(raw, dtype=dtype, offset=offset, count=r * s)
        data = data.astype(np.float64)
    return data.reshape((r, s))  # PGM is row-major


def _pgm_tokens(raw):
    """Yield whitespace-separated header/data tokens, skipping # comments."""
    i = 0
    n = len(raw)
    while i < n:
        c = raw[i : i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < n and raw[i : i + 1] != b"\n":
                i += 1
        else:
            j = i
            while j < n and not raw[j : j + 1].isspace():
                j += 1
            yield raw[i:j]
            i = j


def _pgm_data_offset(raw):
    """Offset of the binary payload: one whitespace byte after the maxval token."""
    seen = 0
    i = 0
    n = len(raw)
    while i < n and seen < 4:
        c = raw[i : i + 1]
        if c == b"#":
            while i < n and raw[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            while i < n and not raw[i : i + 1].isspace():
                i += 1
            seen += 1
    return i + 1
