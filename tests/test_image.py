import numpy as np
import pytest

from poissontv.image import load_f64img, load_pgm, save_f64img, save_pgm


def test_f64img_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.random((6, 5))
    path = tmp_path / "img.f64img"
    save_f64img(path, x)
    assert np.array_equal(load_f64img(path), x)


def test_f64img_layout(tmp_path):
    # Magic, then r and s as little-endian uint32, then column-major data.
    x = np.array([[1.0, 3.0], [2.0, 4.0]])
    path = tmp_path / "img.f64img"
    save_f64img(path, x)
    raw = path.read_bytes()
    assert raw[:6] == b"F64IMG"
    assert int.from_bytes(raw[6:10], "little") == 2
    assert int.from_bytes(raw[10:14], "little") == 2
    data = np.frombuffer(raw[14:], dtype="<f8")
    assert data.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_pgm_p5_round_trip(tmp_path):
    x = np.arange(12, dtype=np.float64).reshape(3, 4)
    path = tmp_path / "img.pgm"
    save_pgm(path, x, maxval=255)
    back = load_pgm(path)
    # Quantization maps [0, max] onto [0, 255]; the grid values are exact
    # multiples after rescaling.
    assert back.shape == (3, 4)
    assert np.allclose(back / back.max() * 11, x, atol=0.5)


def test_pgm_16bit(tmp_path):
    x = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    path = tmp_path / "img16.pgm"
    save_pgm(path, x, maxval=65535)
    back = load_pgm(path)
    assert back.max() == 65535
    assert np.allclose(back / 65535.0, x, atol=1e-4)


def test_pgm_p2_with_comments(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_text("P2\n# a comment\n3 2\n255\n0 1 2\n3 4 5\n")
    back = load_pgm(path)
    assert back.shape == (2, 3)
    assert back.tolist() == [[0, 1, 2], [3, 4, 5]]


@pytest.mark.parametrize("raw", [
    b"P2\n3 2\n255\n0 1 2\n3\n",        # P2 payload
    b"P2\n3",                            # header, after the width
    b"P5\n3 2\n",                        # header, before the maxval
    b"P5\n3 2\n255\n\x01\x02\x03\x04",   # P5 payload
    b"P5\n2 2\n65535\n\x00\x01\x00",     # P5 payload, 16-bit
])
def test_truncated_pgm_is_rejected(tmp_path, raw):
    path = tmp_path / "t.pgm"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="truncated PGM"):
        load_pgm(path)


@pytest.mark.parametrize("raw, message", [
    (b"P5\n2 1\n70000\n\x00\x01\x00\x02", "maxval 70000 outside"),
    (b"P2\n2 1\n0\n5 7\n", "maxval 0 outside"),
    (b"P2\n2 1\n6\n5 7\n", "sample outside 0..6"),
    (b"P2\n2 1\n255\n5 -1\n", "sample outside 0..255"),
    (b"P5\n2 1\n100\n\x05\xc8", "sample outside 0..100"),
])
def test_pgm_maxval_bounds_the_samples(tmp_path, raw, message):
    # A maxval outside 1..65535 used to load (70000 as 16-bit samples,
    # 0 as any samples), as did samples above the maxval.
    path = tmp_path / "m.pgm"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=message):
        load_pgm(path)
    path.write_bytes(b"P2\n2 1\n7\n0 7\n")
    assert load_pgm(path).tolist() == [[0.0, 7.0]]
