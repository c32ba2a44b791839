import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddimaging.pgmio import load_pgm, save_pgm


def test_p5_roundtrip_8bit(tmp_path):
    path = tmp_path / "a.pgm"
    u = np.arange(256, dtype=np.float64).reshape(16, 16) / 255.0
    save_pgm(u, path)
    back = load_pgm(path)
    assert back.shape == (16, 16)
    assert np.array_equal(back, u)


def test_roundtrip_16bit(tmp_path):
    path = tmp_path / "a16.pgm"
    rng = np.random.default_rng(0)
    u = np.round(rng.uniform(0, 1, size=(9, 13)) * 65535) / 65535.0
    save_pgm(u, path, maxval=65535)
    back = load_pgm(path)
    assert np.allclose(back, u, rtol=0, atol=0.5 / 65535)
    # values on the 1/65535 grid survive exactly
    save_pgm(back, path, maxval=65535)
    assert np.array_equal(load_pgm(path), back)


def test_16bit_is_big_endian(tmp_path):
    path = tmp_path / "be.pgm"
    u = np.array([[1.0, 0.0]])
    save_pgm(u, path, maxval=65535)
    raw = path.read_bytes()
    body = raw.split(b"65535\n", 1)[1]
    assert body == b"\xff\xff\x00\x00"


def test_save_rounds_half_up(tmp_path):
    path = tmp_path / "round.pgm"
    # 0.5/255 is exactly half a quantum: round-half-up gives sample 1
    u = np.array([[0.5 / 255.0, 1.0 / 255.0, 0.49 / 255.0]])
    save_pgm(u, path)
    raw = path.read_bytes()
    assert raw.endswith(bytes([1, 1, 0]))


def test_save_clips_out_of_range(tmp_path):
    path = tmp_path / "clip.pgm"
    save_pgm(np.array([[-0.5, 1.5, -np.inf, np.inf]]), path)
    back = load_pgm(path)
    assert np.array_equal(back, [[0.0, 1.0, 0.0, 1.0]])


def test_p2_ascii_with_comments(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_text(
        "P2\n# a comment\n3 2\n# another\n255\n0 128 255\n10 20 30\n")
    u = load_pgm(path)
    assert u.shape == (2, 3)
    assert np.allclose(u * 255.0, [[0, 128, 255], [10, 20, 30]], atol=1e-12)


def test_p5_comment_between_tokens(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes([0, 255, 128, 64])
    path.write_bytes(b"P5 # inline\n2 2 # dims\n255\n" + payload)
    u = load_pgm(path)
    assert np.allclose(u * 255.0, [[0, 255], [128, 64]], atol=1e-12)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(ValueError):
        load_pgm(path)


def test_load_rejects_truncated_body(tmp_path):
    path = tmp_path / "short.pgm"
    for header, body in ((b"P5\n4 4\n255\n", b"\x00\x01"),
                         (b"P5\n2 2\n65535\n", b"\x00\x01\x02\x03\x04\x05\x06")):
        path.write_bytes(header + body)
        with pytest.raises(ValueError, match="truncated") as exc:
            load_pgm(path)
        assert str(path) in str(exc.value)


def test_load_rejects_ascii_sample_above_maxval(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_text("P2\n2 1\n100\n50 101\n")
    with pytest.raises(ValueError):
        load_pgm(path)


def test_load_names_the_file_on_bad_tokens(tmp_path):
    path = tmp_path / "tokens.pgm"
    for text, match in (("P2\n2 abc\n255\n0 0\n", "height is not an integer"),
                        ("P2\n2 2\n255\n1 2 x 4\n", "sample is not an integer"),
                        # beyond the int64 range, still outside [0, maxval]
                        ("P2\n2 2\n3\n1 2 3 100000000000000000000000\n",
                         r"sample outside \[0, 3\]"),
                        # int() reads these as 10, 5 and 0; PGM has ASCII
                        # decimal digits only
                        ("P2\n1 1_0\n255\n" + "0\n" * 10, "height is not an integer"),
                        ("P2\n2 1\n255\n+5 0\n", "sample is not an integer"),
                        ("P2\n2 1\n255\n0 -0\n", "sample is not an integer")):
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as exc:
            load_pgm(path)
        assert str(path) in str(exc.value), text


def test_load_rejects_bad_maxval(tmp_path):
    path = tmp_path / "mv.pgm"
    path.write_text("P2\n1 1\n0\n0\n")
    with pytest.raises(ValueError):
        load_pgm(path)


def test_load_names_the_file_and_the_bad_header_or_samples(tmp_path):
    path = tmp_path / "bad.pgm"
    for body, match in ((b"P5\n4", "truncated header"),
                        (b"P5\n4 ", "truncated header"),
                        (b"P2\n0 3\n255\n", "bad dimensions 0x3"),
                        (b"P2\n2 2\n255\n1 2 3\n", "expected 4 samples, got 3"),
                        (b"P2\n2 2\n255\n1 2 3 4 5\n", "expected 4 samples, got 5"),
                        (b"P5\n2 1\n100\n\x05\xc8", r"sample outside \[0, 100\]")):
        path.write_bytes(body)
        with pytest.raises(ValueError, match=match) as exc:
            load_pgm(path)
        assert str(exc.value).startswith(f"{path}: "), body


def test_save_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValueError):
        save_pgm(np.zeros((2, 2)), tmp_path / "x.pgm", maxval=70000)
    with pytest.raises(ValueError):
        save_pgm(np.zeros((2, 2, 2)), tmp_path / "y.pgm")
    # NaN has no sample value: nothing is written, rather than a 0 pixel
    path = tmp_path / "nan.pgm"
    with pytest.raises(ValueError, match=r"nan\.pgm.* 2 NaN"):
        save_pgm([[np.nan, 0.5], [np.nan, np.inf]], path)
    assert not path.exists()


def test_values_normalized_to_unit_range(tmp_path):
    path = tmp_path / "n.pgm"
    path.write_text("P2\n2 1\n10\n0 10\n")
    u = load_pgm(path)
    assert np.array_equal(u, [[0.0, 1.0]])


# ---------------------------------------------------------------------------
# properties over random images (deterministic: derandomized, no database)
# ---------------------------------------------------------------------------

_settings = settings(derandomize=True, database=None, deadline=None, max_examples=60)
_maxvals = st.one_of(st.sampled_from([1, 255, 256, 65535]), st.integers(1, 65535))


def _samples(shape, maxval, seed):
    return np.random.default_rng(seed).integers(0, maxval + 1, size=shape)


@_settings
@given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9)), maxval=_maxvals,
       binary=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_roundtrip_property(tmp_path_factory, shape, maxval, binary, seed):
    # fields on the 1/maxval grid survive save/load exactly, in P2 and P5;
    # each example writes a new file, since rewriting one costs far more
    path = tmp_path_factory.mktemp("roundtrip") / "a.pgm"
    u = _samples(shape, maxval, seed) / maxval
    save_pgm(u, path, maxval=maxval, binary=binary)
    assert path.read_bytes()[:2] == (b"P5" if binary else b"P2")
    back = load_pgm(path)
    assert back.shape == shape
    assert np.array_equal(back, u)


@_settings
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)), maxval=_maxvals,
       seed=st.integers(0, 2**32 - 1))
def test_every_truncated_p5_body_is_rejected(tmp_path_factory, shape, maxval, seed):
    # a new file per example, shrunk in place from the longest cut down:
    # rewriting one file costs far more than either
    path = tmp_path_factory.mktemp("truncated") / "a.pgm"
    save_pgm(_samples(shape, maxval, seed) / maxval, path, maxval=maxval)
    size = path.stat().st_size
    header = len(b"P5\n%d %d\n%d\n" % (shape[1], shape[0], maxval))
    for cut in reversed(range(header, size)):
        os.truncate(path, cut)
        assert path.stat().st_size == cut
        with pytest.raises(ValueError, match="truncated") as exc:
            load_pgm(path)
        assert str(path) in str(exc.value), cut
