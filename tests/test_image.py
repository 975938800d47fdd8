import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contrastkit import (
    GrayImage,
    Histogram,
    IntensityLut,
    PgmDecodeError,
    histogram,
    load_pgm,
    save_pgm,
)
from contrastkit.image import _BLOCK, MAX_TOTAL, _level_counts

from bruteforce import PGM_WHITESPACE, encode_p2, p2_raster_samples, pgm_header, tally_histogram
from conftest import gray_images, pixel_arrays, traced_peak


# ---------------------------------------------------------------------------
# GrayImage / Histogram construction
# ---------------------------------------------------------------------------


def test_image_basic_properties():
    img = GrayImage([[1, 2, 3], [4, 5, 6]])
    assert img.width == 3
    assert img.height == 2
    assert img.pixels.shape == (2, 3)
    assert img.pixels.dtype == np.uint8


def test_image_is_immutable():
    img = GrayImage([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 9


@pytest.mark.parametrize("values", [[-1, 0, 0, 0], [0, 0, 0, 256]])
def test_image_rejects_out_of_range(values):
    with pytest.raises(ValueError):
        GrayImage(np.reshape(values, (2, 2)))


@pytest.mark.parametrize(
    "make, values, message",
    [
        (GrayImage, np.array([[0.5, 1.9]]), "pixel values must be integers, got dtype float64"),
        (IntensityLut, np.full(256, 1.9), "LUT entries must be integers, got dtype float64"),
    ],
    ids=["image", "lut"],
)
def test_levels_reject_non_integer_values(make, values, message):
    # each value lies in [0, 255], so only the dtype check stops a silent
    # truncation (to [[0, 1]], or a LUT of all 1s)
    with pytest.raises(ValueError) as exc:
        make(values)
    assert str(exc.value) == message


def test_image_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GrayImage(np.zeros((0, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        GrayImage(np.zeros(16, dtype=np.uint8))


def test_image_equality():
    a = GrayImage([[1, 2], [3, 4]])
    assert a == GrayImage([[1, 2], [3, 4]])
    assert a != GrayImage([[1, 2, 3, 4]])  # the same pixels, another shape
    assert a != GrayImage([[1, 2], [3, 5]])
    # values of different types differ, even over equal arrays
    levels = np.arange(256, dtype=np.uint8)
    assert GrayImage(levels[None]) != IntensityLut(levels)
    assert Histogram(levels) != IntensityLut(levels) and IntensityLut(levels) != Histogram(levels)
    assert Histogram(levels) == Histogram(levels.astype(np.int64))


def test_histogram_rejects_bad_counts():
    with pytest.raises(ValueError):
        Histogram(np.zeros(255, dtype=np.int64))
    counts = np.zeros(256, dtype=np.int64)
    counts[3] = -1
    with pytest.raises(ValueError):
        Histogram(counts)


@pytest.mark.parametrize(
    "counts",
    [[0.5] * 256, [1.9] * 256, np.ones(256), np.full(256, np.nan), np.ones(256, dtype=np.float32)],
    ids=["half", "1.9", "whole floats", "nan", "float32"],
)
def test_histogram_rejects_non_integer_counts(counts):
    # once truncated to int64 (a total of 0 or 256), or a NaN cast warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^counts must be integers, got dtype float(64|32)$"):
            Histogram(counts)


def test_histogram_total_bound_is_inclusive():
    counts = np.zeros(256, dtype=np.int64)
    counts[[3, 250]] = [2**46, 2**46]
    hist = Histogram(counts)
    assert hist.total == 2**47
    assert hist.level_sum == 3 * 2**46 + 250 * 2**46


@pytest.mark.parametrize(
    "bins",
    [
        {3: 2**46, 250: 2**46, 7: 1},  # one past 2**47
        {0: 2**62, 1: 2**62, 2: 2**62, 3: 2**62},  # an int64 sum wraps to 0
        # these once scored an MSE of 751.0 where the true one is about 25,327
        {10: 2**53, 200: 2**53 // 3 + 1, 100: 7},
        # uint64 counts from 2**63 up, which the int64 cast once wrapped negative
        {5: 2**63},
        {5: 2**63 + 2**62},
        {5: 2**64 - 1},
    ],
)
def test_histogram_rejects_totals_past_2_47(bins):
    counts = np.zeros(256, dtype=np.uint64 if max(bins.values()) >= 2**63 else np.int64)
    counts[list(bins)] = list(bins.values())
    with pytest.raises(ValueError, match=r"^histogram total exceeds 140737488355328 \(2\*\*47\)"):
        Histogram(counts)


def test_histogram_rejects_an_empty_count_vector():
    for dtype in (np.int64, np.uint8, np.int32):
        with pytest.raises(ValueError, match="^empty histogram: counts must not all be zero$"):
            Histogram(np.zeros(256, dtype=dtype))


def test_image_neither_aliases_nor_freezes_a_writable_array():
    a = np.zeros((2, 3), dtype=np.uint8)
    img = GrayImage(a[:])
    view = a[:]
    view.setflags(write=False)  # read-only, but its base is not
    img_of_view = GrayImage(view)
    a[0, 0] = 9
    assert img.pixels[0, 0] == 0 and img_of_view.pixels[0, 0] == 0
    assert a.flags.writeable and not img.pixels.flags.writeable
    converted = GrayImage(np.zeros((3, 4), dtype=np.int64).T)  # an F-ordered input
    assert converted.pixels.dtype == np.uint8 and converted.pixels.flags.c_contiguous


@pytest.mark.parametrize("view", [False, True])
def test_image_copies_a_read_only_owner_that_is_made_writable_again(view):
    owner = np.zeros((2, 3), dtype=np.uint8)
    owner.setflags(write=False)
    img = GrayImage(owner[:] if view else owner)
    owner.setflags(write=True)  # NumPy lets the owner's holder undo its freeze
    owner[0, 0] = 9
    assert img.pixels[0, 0] == 0 and not img.pixels.flags.writeable


def test_histogram_neither_aliases_nor_freezes_its_counts():
    counts = np.zeros(256, dtype=np.int64)
    counts[3] = 5
    hist = Histogram(counts)
    counts[7] = 1  # raised while the histogram froze the caller's array
    assert hist.counts[7] == 0 and hist.total == 5
    assert not hist.counts.flags.writeable


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


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P5\n2 2\n255\n\x01\x02\x03", "truncated pixel data: expected 4 bytes, got 3"),
        (b"P5\n2 2\n255\n", "truncated pixel data: expected 4 bytes, got 0"),
        (b"P5\n2 2\n255\n\x01\x02\x03\x04\x05", "trailing data after binary raster"),
    ],
)
def test_load_p5_raster_length_messages(data, message):
    with pytest.raises(PgmDecodeError, match=f"^{re.escape(message)}$"):
        load_pgm(data)


def test_load_p5_does_not_alias_a_mutable_buffer():
    buf = bytearray(b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    img = load_pgm(buf)
    buf[-4:] = bytes([9, 9, 9, 9])
    assert img.pixels.ravel().tolist() == [1, 2, 3, 4]


def test_load_p5_views_the_file_bytes():
    data = b"P5\n2048 2048\n255\n" + bytes(range(256)) * (2048 * 2048 // 256)
    assert traced_peak(load_pgm, data) < 64 * 1024


def test_load_p2_memory_is_bounded():
    rng = np.random.default_rng(5)
    pixels = rng.integers(0, 256, (2048, 2048), dtype=np.uint8)
    # and a 1024² raster of samples zero-padded to 4 digits: "0007 0255 ..."
    levels = rng.integers(0, 256, 1024 * 1024)
    digits = levels[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    padded = np.c_[digits, np.full(levels.size, ord(" "))].astype(np.uint8).tobytes()
    for data in (save_pgm(GrayImage(pixels), "P2"), b"P2 1024 1024 255\n" + padded):
        # uint8 place values over the raster, int64 only per token end
        assert traced_peak(load_pgm, data) <= 9 * len(data)
    assert np.array_equal(load_pgm(data).pixels.ravel(), levels)


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
    # header fields are ASCII digit runs: no int() syntax (underscore, sign)
    for data in [
        b"P2\nab 2\n255\n0 0\n",
        b"P5\n1_0 1\n255\n",
        b"P5\n+10 1\n255\n",
        b"P5\n1 1\n0_255\n",
    ]:
        with pytest.raises(PgmDecodeError, match="malformed"):
            load_pgm(data)


def test_load_oversized_header_field_is_decode_error():
    # past int()'s 4,300-digit limit, which raises a bare ValueError
    with pytest.raises(PgmDecodeError, match="^width out of range: 5000 significant digits$"):
        load_pgm(b"P5\n" + b"9" * 5000 + b" 1\n255\n")
    assert load_pgm(b"P5\n0001 0001\n000255\n\x07").pixels.tolist() == [[7]]


@pytest.mark.parametrize("token", [b"1_0", b"0_2", b"+1", b"-1", b"1e2", b"\xd9\xa1"])
def test_load_p2_sample_must_be_ascii_digits(token):
    expected = f"malformed pixel sample: {token!r}"
    with pytest.raises(PgmDecodeError, match=f"^{re.escape(expected)}$"):
        load_pgm(b"P2\n2 1\n255\n7 " + token + b"\n")


@pytest.mark.parametrize(
    "raster, value",
    [
        (b"7 99999999999999999999999", "99999999999999999999999"),
        (b"7 0000256", "256"),
        (b"7 00" + b"9" * 5000, "9" * 5000),
        (b"7 0001000", "1000"),
        # the largest of two oversized samples, whichever comes first
        (b"1000 9999", "9999"),
        (b"99999 1000", "99999"),
        # a valid zero-padded sample is not reported
        (b"00255 1000", "1000"),
    ],
    ids=[
        "23-digits",
        "leading-zeros",
        "5000-digits",
        "zeros-before-1000",
        "equal-lengths",
        "earlier-is-larger",
        "beside-zero-padded",
    ],
)
def test_load_p2_oversized_sample_reports_exact_value(raster, value):
    expected = f"pixel sample {value} exceeds declared maxval 255"
    with pytest.raises(PgmDecodeError, match=f"^{re.escape(expected)}$"):
        load_pgm(b"P2\n2 1\n255\n" + raster + b"\n")


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
        # the message holds the whole token, not just its bytes from the bad one
        (b"P2 2 1 255 1 12x4", "malformed pixel sample: b'12x4'"),
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
# a malformed token that ends the file with no whitespace after it; a
# 4-byte token with a leading zero beside 1-digit tokens; a raster whose
# only token is a long malformed run
@example((b"P2 2 1 255", b"\n7 5x", 2, 255))
@example((b"P2 3 1 255", b" 0255 7 1\n", 3, 255))
@example((b"P2 1 1 255", b" " + b"9x" * 10_000, 1, 255))
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


_HEADER_EDGE = st.sampled_from(
    [b"0", b"256", b"9" * 18, b"1" + b"0" * 18, b"0" * 30 + b"3", b"1\xa01", b"\x85", b"\x00"]
)
# mostly small fields, so that many headers decode
_HEADER_FIELD = st.integers(0, 19).flatmap(
    lambda k: _P2_JUNK if k == 0
    else _HEADER_EDGE if k == 1
    else st.binary(min_size=1, max_size=3) if k == 2
    else _P2_DIGITS if k < 6
    else st.integers(1, 4).map(lambda v: str(v).encode())
)


@st.composite
def pgm_headers(draw):
    """P2/P5 headers of up to four fields (mostly three) and the gaps around
    them: digit runs and junk, joined by whitespace, comments ending at CR,
    LF, CRLF or the end of the file, or nothing."""
    n = draw(st.sampled_from([0, 1, 2, 3, 3, 3, 3, 3, 3, 4]))
    fields = draw(st.lists(_HEADER_FIELD, min_size=n, max_size=n))
    gaps = draw(st.lists(_P2_GAP, min_size=n + 1, max_size=n + 1))
    magic = draw(st.sampled_from([b"P2", b"P5"]))
    return magic + b"".join(g + f for g, f in zip(gaps, fields)) + gaps[-1]


@settings(max_examples=500)
@given(pgm_headers())
def test_header_decoder_matches_token_scanner(header):
    try:
        width, height, maxval, start = pgm_header(header)
    except ValueError as exc:
        with pytest.raises(PgmDecodeError) as info:
            load_pgm(header)
        assert str(info.value) == str(exc)
        return
    # the header up to its raster, then a raster of zeros that fits it
    count, p5 = width * height, header[:2] == b"P5"
    if count > 64:
        message = f"truncated pixel data: expected {count} {'bytes' if p5 else 'samples'}, got 0"
        with pytest.raises(PgmDecodeError, match=f"^{message}$"):
            load_pgm(header[:start])
        return
    raster = bytes(count) if p5 else b"\n" + b"0 " * count
    img = load_pgm(header[:start] + raster)
    assert (img.width, img.height) == (width, height)


def test_whitespace_padded_header_decodes_in_constant_memory():
    pad = b" \t" * 700_000  # 4.2 MB in all
    data = b"P5" + pad + b"2" + pad + b"2" + pad + b"255\n\x01\x02\x03\x04"
    assert traced_peak(load_pgm, data) < 1024 * 1024


def test_a_million_header_comments_decode_in_linear_time():
    data = b"P5" + b"#c\n" * 1_000_000 + b"2 2 255\n\x01\x02\x03\x04"
    start = time.perf_counter()
    assert load_pgm(data).pixels.tolist() == [[1, 2], [3, 4]]
    assert time.perf_counter() - start < 5.0


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
    img = GrayImage([[42]])
    assert save_pgm(img, "P5") == b"P5\n1 1\n255\n" + bytes([42])


def test_save_p2_body_digits():
    img = GrayImage([[0, 64], [128, 255]])
    body = save_pgm(img, "P2").decode("ascii").splitlines()[3:]
    assert " ".join(body).split() == ["0", "64", "128", "255"]


def test_save_rejects_unknown_format():
    with pytest.raises(ValueError):
        save_pgm(GrayImage([[0]]), "P4")


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


@given(pixel_arrays(max_side=48))
def test_save_p2_matches_reference_encoder(arr):
    assert save_pgm(GrayImage(arr), "P2") == encode_p2(arr)


@pytest.mark.parametrize(
    "shape",
    [
        (1, _BLOCK + 3),  # one row wider than a block
        (_BLOCK + 3, 1),  # three rows into a second block
        (1000, 100),  # 655 rows per block: the last block is short
    ],
)
def test_save_p2_block_edges(shape):
    rng = np.random.default_rng(sum(shape))
    arr = rng.integers(0, 256, size=shape, dtype=np.uint8)
    assert save_pgm(GrayImage(arr), "P2") == encode_p2(arr)


def test_save_p2_memory_is_bounded():
    # a row wider than a block is encoded in column chunks, not as one block
    for shape in [(2048, 2048), (1, 1 << 22)]:
        img = GrayImage(np.random.default_rng(5).integers(0, 256, shape, dtype=np.uint8))
        size = len(save_pgm(img, "P2"))
        # the encoded blocks and their join; no full-size temporary besides
        assert traced_peak(save_pgm, img, "P2") <= 2.2 * size, shape


def test_save_p2_layout_of_a_row_wider_than_a_block():
    width = _BLOCK + 5
    arr = np.random.default_rng(9).integers(0, 256, (2, width), dtype=np.uint8)
    lines = save_pgm(GrayImage(arr), "P2").split(b"\n")[3:]
    assert lines.pop() == b""  # every line ends in LF
    # 17 samples a line, and each row's last sample ends its line
    per_row = [17] * (width // 17) + [width % 17]
    assert [len(line.split(b" ")) for line in lines] == per_row * 2
    assert [int(t) for line in lines for t in line.split(b" ")] == arr.ravel().tolist()


def test_save_p5_copies_the_raster_once():
    img = GrayImage(np.zeros((2048, 2048), dtype=np.uint8))
    assert traced_peak(save_pgm, img, "P5") <= 1.1 * img.pixels.size


# ---------------------------------------------------------------------------
# histogram() and its level sum
# ---------------------------------------------------------------------------


def test_histogram_four_distinct_levels():
    hist = histogram(GrayImage([[0, 64], [128, 255]]))
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


@pytest.mark.parametrize(
    "shape",
    [
        (1, 1),
        (255, 257),  # one pixel short of a block
        (64, 1024),  # exactly one block
        (1, _BLOCK),  # exactly one block in one row
        (_BLOCK + 1, 1),  # one pixel into a second block
        (1, 3 * _BLOCK + 5),
    ],
)
def test_histogram_block_edges(shape):
    rng = np.random.default_rng(sum(shape))
    arr = rng.integers(0, 256, size=shape, dtype=np.uint8)
    hist = histogram(GrayImage(arr))
    assert hist.counts.tolist() == tally_histogram(arr.ravel())
    assert hist.total == arr.size
    counts = _level_counts(arr)  # int64 at any block count
    assert counts.dtype == np.int64 and counts.shape == (256,)
    assert np.array_equal(counts, hist.counts)


def test_level_counts_rejects_more_than_max_total_pixels():
    # a zero-stride view of more than MAX_TOTAL pixels, which holds one byte:
    # the pixel count is checked before any pass over the pixels
    pixels = np.lib.stride_tricks.as_strided(
        np.zeros(1, dtype=np.uint8), shape=(1 << 24, (1 << 23) + 1), strides=(0, 0)
    )
    assert pixels.size > MAX_TOTAL
    with pytest.raises(ValueError, match="exceeds 140737488355328"):
        _level_counts(pixels)


def test_histogram_memory_is_bounded():
    img = GrayImage(np.zeros((2048, 2048), dtype=np.uint8))
    assert traced_peak(histogram, img) < 1024 * 1024


def test_mean_constant():
    hist = histogram(GrayImage(np.full((3, 3), 7, dtype=np.uint8)))
    assert hist.level_sum / hist.total == 7.0


def test_mean_four_levels():
    hist = histogram(GrayImage([[0, 64], [128, 255]]))
    assert hist.level_sum / hist.total == 111.75


@given(gray_images())
def test_mean_matches_direct_summation(img):
    direct = sum(int(p) for p in img.pixels.ravel()) / img.pixels.size
    hist = histogram(img)
    assert hist.level_sum / hist.total == pytest.approx(direct, abs=1e-9)


@given(gray_images())
def test_histogram_invariants(img):
    hist = histogram(img)
    assert hist.total == img.width * img.height
    probs = hist.counts / hist.total
    assert abs(probs.sum() - 1.0) < 1e-12
    cdf = np.cumsum(hist.counts) / hist.total
    assert np.all(np.diff(cdf) >= 0)
    assert abs(cdf[-1] - 1.0) < 1e-12
    # histogram-weighted mean is the exact integer pixel sum / N
    pixel_sum = int(img.pixels.sum(dtype=np.int64))
    assert hist.level_sum == pixel_sum
    assert hist.level_sum / hist.total == pixel_sum / img.pixels.size
