import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrastkit import GrayImage, PgmDecodeError, histogram, load_pgm, mean_intensity, save_pgm

from bruteforce import PGM_WHITESPACE, encode_p2, p2_raster_samples, tally_histogram
from conftest import gray_images, pixel_arrays


# ---------------------------------------------------------------------------
# GrayImage / Histogram construction
# ---------------------------------------------------------------------------


def test_image_basic_properties():
    img = GrayImage.from_flat(3, 2, [1, 2, 3, 4, 5, 6])
    assert img.width == 3
    assert img.height == 2
    assert img.size == 6
    assert img.pixels.shape == (2, 3)
    assert img.pixels.dtype == np.uint8


def test_image_is_immutable():
    img = GrayImage.from_flat(2, 2, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 9


@pytest.mark.parametrize("values", [[-1, 0, 0, 0], [0, 0, 0, 256]])
def test_image_rejects_out_of_range(values):
    with pytest.raises(ValueError):
        GrayImage.from_flat(2, 2, values)


def test_image_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GrayImage(np.zeros((0, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        GrayImage(np.zeros(16, dtype=np.uint8))
    with pytest.raises(ValueError):
        GrayImage.from_flat(3, 3, [0] * 8)


def test_image_equality():
    a = GrayImage.from_flat(2, 2, [1, 2, 3, 4])
    assert a == GrayImage.from_flat(2, 2, [1, 2, 3, 4])
    assert a != GrayImage.from_flat(4, 1, [1, 2, 3, 4])
    assert a != GrayImage.from_flat(2, 2, [1, 2, 3, 5])


def test_histogram_rejects_bad_counts():
    from contrastkit import Histogram

    with pytest.raises(ValueError):
        Histogram(np.zeros(255, dtype=np.int64))
    counts = np.zeros(256, dtype=np.int64)
    counts[3] = -1
    with pytest.raises(ValueError):
        Histogram(counts)


def test_empty_histogram_has_no_derived_views():
    from contrastkit import Histogram

    empty = Histogram(np.zeros(256, dtype=np.int64))
    assert empty.total == 0
    with pytest.raises(ValueError):
        empty.probabilities()
    with pytest.raises(ValueError):
        empty.cdf()
    with pytest.raises(ValueError):
        empty.mean()


# ---------------------------------------------------------------------------
# PGM decoding
# ---------------------------------------------------------------------------


def test_load_p5_minimal():
    img = load_pgm(b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255]))
    assert img.width == 2 and img.height == 2
    assert img.pixels.ravel().tolist() == [0, 64, 128, 255]


def test_load_p2_minimal():
    img = load_pgm(b"P2\n1 1\n255\n42\n")
    assert img.width == 1 and img.height == 1
    assert img.pixels[0, 0] == 42


def test_load_p2_with_comments_and_odd_whitespace():
    data = b"P2 # plain gray\n# a comment line\n 2\t2 # dims\n255\n0 64\n128\t255\n"
    img = load_pgm(data)
    assert img.pixels.ravel().tolist() == [0, 64, 128, 255]


def test_load_p5_with_header_comments():
    data = b"P5\n# generated\n2 2\n# maxval next\n255\n" + bytes([9, 8, 7, 6])
    assert load_pgm(data).pixels.ravel().tolist() == [9, 8, 7, 6]


def test_load_zero_dimension_is_error():
    with pytest.raises(PgmDecodeError, match="dimension"):
        load_pgm(b"P5\n0 4\n255\n")


@pytest.mark.parametrize("data", [b"", b"P6\n1 1\n255\n\x00", b"Px\n1 1\n255\n0", b"hello"])
def test_load_bad_magic_is_error(data):
    with pytest.raises(PgmDecodeError, match="magic"):
        load_pgm(data)


def test_load_maxval_too_large_is_error():
    with pytest.raises(PgmDecodeError, match="maxval"):
        load_pgm(b"P2\n1 1\n65535\n1000\n")


def test_load_truncated_raster_is_error():
    with pytest.raises(PgmDecodeError, match="truncated"):
        load_pgm(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
    with pytest.raises(PgmDecodeError, match="truncated"):
        load_pgm(b"P2\n2 2\n255\n1 2 3\n")


def test_load_trailing_data_is_error():
    with pytest.raises(PgmDecodeError, match="trailing"):
        load_pgm(b"P5\n1 1\n255\n\x00\x00")
    with pytest.raises(PgmDecodeError, match="trailing"):
        load_pgm(b"P2\n1 1\n255\n0 1\n")


def test_load_small_maxval_keeps_raw_values():
    # maxval < 255 is accepted; samples are not rescaled
    img = load_pgm(b"P2\n2 1\n100\n0 100\n")
    assert img.pixels.ravel().tolist() == [0, 100]


def test_load_sample_above_maxval_is_error():
    with pytest.raises(PgmDecodeError, match="exceeds"):
        load_pgm(b"P2\n1 1\n100\n101\n")
    with pytest.raises(PgmDecodeError, match="exceeds"):
        load_pgm(b"P5\n1 1\n100\n" + bytes([200]))


def test_load_non_numeric_header_is_error():
    with pytest.raises(PgmDecodeError, match="malformed"):
        load_pgm(b"P2\nab 2\n255\n0 0\n")


@pytest.mark.parametrize("token", [b"1_0", b"0_2", b"+1", b"-1", b"1e2", b"\xd9\xa1"])
def test_load_p2_sample_must_be_ascii_digits(token):
    expected = f"malformed pixel sample: {token!r}"
    with pytest.raises(PgmDecodeError, match=f"^{re.escape(expected)}$"):
        load_pgm(b"P2\n2 1\n255\n7 " + token + b"\n")


@pytest.mark.parametrize(
    "token, value",
    [
        (b"99999999999999999999999", "99999999999999999999999"),
        (b"0000256", "256"),
        (b"00" + b"9" * 5000, "9" * 5000),
    ],
    ids=["23-digits", "leading-zeros", "5000-digits"],
)
def test_load_p2_oversized_sample_reports_exact_value(token, value):
    expected = f"pixel sample {value} exceeds declared maxval 255"
    with pytest.raises(PgmDecodeError, match=f"^{re.escape(expected)}$"):
        load_pgm(b"P2\n2 1\n255\n7 " + token + b"\n")


def test_load_p2_leading_zeros_keep_value():
    img = load_pgm(b"P2\n4 1\n255\n007 0000000000255 0000 00\n")
    assert img.pixels.ravel().tolist() == [7, 255, 0, 0]


@pytest.mark.parametrize(
    "data, message",
    [
        # a malformed token among the first `count` wins over a short raster
        (b"P2 3 1 255 1 x", "malformed pixel sample: b'x'"),
        # one past `count` is trailing data, malformed or not
        (b"P2 1 1 255 1 x", "trailing data after ASCII raster"),
        (b"P2 2 1 255 1 2 3", "trailing data after ASCII raster"),
        (b"P2 2 1 255 1#2\r", "truncated pixel data: expected 2 samples, got 1"),
    ],
)
def test_load_p2_error_order(data, message):
    with pytest.raises(PgmDecodeError, match=f"^{re.escape(message)}$"):
        load_pgm(data)


_P2_JUNK = st.sampled_from([b"1_0", b"+1", b"-1", b"x", b"\xff", b"\x00", b"1e3"])
_P2_DIGITS = st.text("0123456789", min_size=1, max_size=7).map(str.encode)  # leading zeros, long runs
_P2_SAMPLE = st.integers(0, 255).map(lambda v: str(v).encode())
# mostly plain samples, so that many files decode
_P2_TOKEN = st.integers(0, 19).flatmap(
    lambda k: _P2_JUNK if k == 0 else _P2_DIGITS if k < 3 else _P2_SAMPLE
)
_P2_SEPARATOR = st.lists(
    st.one_of(
        st.sampled_from([bytes([b]) for b in PGM_WHITESPACE]),
        st.builds(
            lambda body, end: b"#" + body + end,
            st.binary(max_size=6),
            # a comment with no line end runs to the end of the file: keep it rare
            st.sampled_from([b"\n", b"\r", b"\r\n", b"\n", b"\r", b""]),
        ),
    ),
    min_size=1,
    max_size=3,
).map(b"".join)
# now and then no separator, so that neighbouring tokens merge
_P2_GAP = st.integers(0, 19).flatmap(lambda k: st.just(b"") if k == 0 else _P2_SEPARATOR)


@st.composite
def p2_files(draw):
    """A valid P2 header and a raster of digit runs, junk tokens,
    whitespace and comments, with about as many tokens as samples."""
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    maxval = draw(st.one_of(st.just(255), st.integers(1, 255)))
    count = width * height
    extra = draw(st.sampled_from([0, 0, 0, -1, 1]))
    tokens = draw(st.lists(_P2_TOKEN, min_size=count + extra, max_size=count + extra))
    seps = draw(st.lists(_P2_GAP, min_size=len(tokens), max_size=len(tokens)))
    lead = draw(_P2_SEPARATOR)  # ends the maxval token
    raster = lead + b"".join(t + s for t, s in zip(tokens, seps))
    return f"P2 {width} {height} {maxval}".encode(), raster, count, maxval


@settings(max_examples=300)
@given(p2_files())
def test_p2_decoder_matches_token_scanner(case):
    header, raster, count, maxval = case
    try:
        expected = p2_raster_samples(raster, count, maxval)
    except ValueError as exc:
        with pytest.raises(PgmDecodeError) as info:
            load_pgm(header + raster)
        assert str(info.value) == str(exc)
    else:
        assert load_pgm(header + raster).pixels.ravel().tolist() == expected


@given(
    st.one_of(
        st.binary(max_size=64),
        st.tuples(
            st.sampled_from([b"P2", b"P5", b"P2 2 2 255", b"P5 2 2 255", b"P2 1 1 9\n"]),
            st.binary(max_size=48),
        ).map(b"".join),
    )
)
def test_load_arbitrary_bytes_raises_only_decode_error(data):
    try:
        load_pgm(data)
    except PgmDecodeError:
        pass


# ---------------------------------------------------------------------------
# PGM encoding and round trips
# ---------------------------------------------------------------------------


def test_save_p5_exact_bytes():
    img = GrayImage.from_flat(1, 1, [42])
    assert save_pgm(img, "P5") == b"P5\n1 1\n255\n" + bytes([42])


def test_save_p2_body_digits():
    img = GrayImage.from_flat(2, 2, [0, 64, 128, 255])
    body = save_pgm(img, "P2").decode("ascii").splitlines()[3:]
    assert " ".join(body).split() == ["0", "64", "128", "255"]


def test_save_rejects_unknown_format():
    with pytest.raises(ValueError):
        save_pgm(GrayImage.from_flat(1, 1, [0]), "P4")


@given(gray_images())
def test_roundtrip_p5(img):
    assert load_pgm(save_pgm(img, "P5")) == img


@given(gray_images())
def test_roundtrip_p2(img):
    assert load_pgm(save_pgm(img, "P2")) == img


def test_roundtrip_wide_image_p2_line_lengths():
    # P2 writer wraps rows so no line exceeds the 70-char guideline
    img = GrayImage(np.full((2, 100), 255, dtype=np.uint8))
    encoded = save_pgm(img, "P2")
    assert all(len(line) <= 70 for line in encoded.decode("ascii").splitlines())
    assert load_pgm(encoded) == img


@pytest.mark.parametrize("width", [1, 16, 17, 18, 34, 35, 100])
def test_save_p2_bytes_match_reference_encoder(width):
    height = -(-256 // width)
    pixels = (np.arange(width * height) % 256).reshape(height, width)
    img = GrayImage(pixels.astype(np.uint8))
    assert set(img.pixels.ravel().tolist()) == set(range(256))
    assert save_pgm(img, "P2") == encode_p2(img.pixels)


# ---------------------------------------------------------------------------
# histogram() and mean_intensity()
# ---------------------------------------------------------------------------


def test_histogram_four_distinct_levels():
    hist = histogram(GrayImage.from_flat(2, 2, [0, 64, 128, 255]))
    assert hist.total == 4
    for level in (0, 64, 128, 255):
        assert hist.counts[level] == 1
    assert hist.counts.sum() == 4


def test_histogram_constant_image():
    hist = histogram(GrayImage(np.full((3, 3), 7, dtype=np.uint8)))
    assert hist.counts[7] == 9
    assert hist.total == 9
    assert hist.counts.sum() == 9


@given(pixel_arrays())
def test_histogram_matches_naive_tally(arr):
    counts = histogram(GrayImage(arr)).counts
    assert counts.tolist() == tally_histogram(arr.ravel())


def test_mean_constant():
    assert mean_intensity(GrayImage(np.full((3, 3), 7, dtype=np.uint8))) == 7.0


def test_mean_four_levels():
    assert mean_intensity(GrayImage.from_flat(2, 2, [0, 64, 128, 255])) == 111.75


@given(gray_images())
def test_mean_matches_direct_summation(img):
    direct = sum(int(p) for p in img.pixels.ravel()) / img.size
    assert mean_intensity(img) == pytest.approx(direct, abs=1e-9)


@given(gray_images())
def test_histogram_invariants(img):
    hist = histogram(img)
    assert hist.total == img.width * img.height
    probs = hist.probabilities()
    assert abs(probs.sum() - 1.0) < 1e-12
    cdf = hist.cdf()
    assert np.all(np.diff(cdf) >= 0)
    assert abs(cdf[-1] - 1.0) < 1e-12
    # histogram-weighted mean agrees with the pixel mean
    assert hist.mean() == pytest.approx(mean_intensity(img), abs=1e-9)
