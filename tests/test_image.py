import numpy as np

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
