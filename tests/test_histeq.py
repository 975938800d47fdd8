import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrastkit import (
    GrayImage,
    Histogram,
    IntensityLut,
    ambe,
    apply_lut,
    bbhe,
    bbhe_lut,
    equalize,
    he_lut,
    histogram,
    identity_lut,
    mmbebhe,
    mmbebhe_lut,
    mmbebhe_threshold,
)
from contrastkit.cli import generate_uniform_image
from contrastkit.histeq import round_half_away

import bruteforce
from conftest import gray_images


FOUR_LEVELS = GrayImage.from_flat(2, 2, [0, 64, 128, 255])


# ---------------------------------------------------------------------------
# rounding and LUT container
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "x,expected",
    [(0.5, 1), (1.5, 2), (2.4, 2), (2.5, 3), (-0.5, -1), (-1.5, -2), (63.75, 64), (127.5, 128)],
)
def test_round_half_away(x, expected):
    assert round_half_away(x) == expected


def test_lut_validation():
    with pytest.raises(ValueError):
        IntensityLut(np.arange(255), "HE")
    with pytest.raises(ValueError):
        IntensityLut(np.full(256, 300), "HE")
    with pytest.raises(ValueError):
        IntensityLut(np.arange(256), "NOPE")


def test_identity_lut_maps_everything_to_itself():
    lut = identity_lut()
    assert lut.method == "IDENTITY"
    assert lut.map.tolist() == list(range(256))


# ---------------------------------------------------------------------------
# he_lut
# ---------------------------------------------------------------------------


def test_he_lut_four_levels():
    lut = he_lut(histogram(FOUR_LEVELS))
    assert lut.method == "HE"
    # 255 * {1/4, 2/4, 3/4, 4/4} = {63.75, 127.5, 191.25, 255}, halves away
    assert lut.map[0] == 64
    assert lut.map[64] == 128
    assert lut.map[128] == 191
    assert lut.map[255] == 255


def test_he_lut_constant_histogram_saturates():
    for g in (0, 7, 200, 255):
        counts = np.zeros(256, dtype=np.int64)
        counts[g] = 9
        assert he_lut(Histogram(counts)).map[g] == 255


def test_he_lut_empty_histogram_is_error():
    with pytest.raises(ValueError, match="empty"):
        he_lut(Histogram(np.zeros(256, dtype=np.int64)))


@given(gray_images())
def test_he_lut_matches_prefix_sum_oracle(img):
    hist = histogram(img)
    assert he_lut(hist).map.tolist() == bruteforce.he_map(hist.counts.tolist())


@given(gray_images())
def test_he_lut_monotone_and_range(img):
    hist = histogram(img)
    lut = he_lut(hist).map
    assert np.all(np.diff(lut.astype(np.int64)) >= 0)
    occupied = np.flatnonzero(hist.counts)
    assert lut[occupied[-1]] == 255
    first = occupied[0]
    assert lut[first] == round_half_away(255 * hist.counts[first] / hist.total)


# ---------------------------------------------------------------------------
# apply_lut / equalize
# ---------------------------------------------------------------------------


def test_apply_identity_lut_is_noop():
    assert apply_lut(FOUR_LEVELS, identity_lut()) == FOUR_LEVELS


def test_apply_constant_lut_zeroes_image():
    lut = IntensityLut(np.zeros(256, dtype=np.uint8), "IDENTITY")
    out = apply_lut(FOUR_LEVELS, lut)
    assert np.all(out.pixels == 0)


def test_apply_he_lut_four_levels():
    out = apply_lut(FOUR_LEVELS, he_lut(histogram(FOUR_LEVELS)))
    assert out.pixels.ravel().tolist() == [64, 128, 191, 255]


def test_equalize_constant_image_goes_white():
    img = GrayImage(np.full((3, 3), 42, dtype=np.uint8))
    assert np.all(equalize(img).pixels == 255)


def test_equalize_four_levels():
    assert equalize(FOUR_LEVELS).pixels.ravel().tolist() == [64, 128, 191, 255]


@given(gray_images())
def test_equalize_is_lut_expressible(img):
    assert equalize(img) == apply_lut(img, he_lut(histogram(img)))


@given(gray_images())
def test_equalized_cdf_tracks_linear_ramp(img):
    # discrete HE limit: deviation from the ideal ramp is bounded by the
    # largest single-bin mass plus the half-level rounding quantum
    out_cdf = histogram(equalize(img)).cdf()
    ramp = np.arange(256) / 255.0
    p_max = histogram(img).probabilities().max()
    assert np.max(np.abs(out_cdf - ramp)) <= p_max + 0.5 / 255 + 1e-12


@given(gray_images())
def test_pixel_count_preserved_by_all_methods(img):
    n = img.size
    for method in (equalize, bbhe, mmbebhe):
        out = method(img)
        assert (out.width, out.height) == (img.width, img.height)
        assert histogram(out).total == n


# ---------------------------------------------------------------------------
# BBHE
# ---------------------------------------------------------------------------


def test_bbhe_constant_image_unchanged():
    for g in (0, 100, 255):
        img = GrayImage(np.full((4, 4), g, dtype=np.uint8))
        assert bbhe(img) == img


def test_bbhe_four_levels_hand_computed():
    # mean 111.75 -> split at 111; lower {0,64} onto [0,111]: {55.5->56, 111};
    # upper {128,255} onto [112,255]: {112+71.5->184, 255}
    assert bbhe(FOUR_LEVELS).pixels.ravel().tolist() == [56, 111, 184, 255]


def test_bbhe_lut_segments_monotone():
    rng = np.random.default_rng(7)
    for _ in range(50):
        img = GrayImage(rng.integers(0, 256, size=(12, 12), dtype=np.uint8))
        hist = histogram(img)
        t = int(np.floor(hist.mean()))
        lut = bbhe_lut(hist).map.astype(np.int64)
        assert np.all(np.diff(lut[: t + 1]) >= 0)
        assert np.all(np.diff(lut[t + 1 :]) >= 0)
        assert np.all(lut[: t + 1] <= t)
        if t < 255:
            assert np.all(lut[t + 1 :] >= t + 1)


@given(gray_images())
def test_bbhe_matches_segment_oracle(img):
    hist = histogram(img)
    t = int(np.floor(hist.mean()))
    expected = bruteforce.segment_map(hist.counts.tolist(), t)
    assert bbhe_lut(hist).map.tolist() == expected


def test_bbhe_beats_he_brightness_where_he_shifts():
    # off-center low-contrast images: HE drags the mean toward mid-range,
    # the mean-split keeps it close
    for seed, lo, hi in [(1, 40, 90), (2, 170, 220), (3, 60, 100), (4, 180, 230)]:
        img = generate_uniform_image(32, 32, lo, hi, seed)
        assert ambe(img, equalize(img)) > 10.0  # HE really does shift brightness
        assert ambe(img, bbhe(img)) < ambe(img, equalize(img))


def test_bbhe_brightness_majority_on_low_contrast_corpus():
    rng = np.random.default_rng(123)
    wins = ties_or_losses = 0
    for i in range(100):
        lo = int(rng.integers(20, 180))
        hi = lo + int(rng.integers(20, 60))
        img = generate_uniform_image(16, 16, lo, min(hi, 255), int(rng.integers(1 << 30)))
        if ambe(img, bbhe(img)) <= ambe(img, equalize(img)):
            wins += 1
        else:
            ties_or_losses += 1
    assert wins > ties_or_losses


# ---------------------------------------------------------------------------
# MMBEBHE
# ---------------------------------------------------------------------------


def test_mmbebhe_constant_image_unchanged():
    for g in (0, 128, 255):
        img = GrayImage(np.full((4, 4), g, dtype=np.uint8))
        assert mmbebhe(img) == img


@given(gray_images())
@settings(max_examples=40, deadline=None)
def test_mmbebhe_never_worse_than_bbhe(img):
    assert ambe(img, mmbebhe(img)) <= ambe(img, bbhe(img)) + 1e-12


def test_mmbebhe_threshold_matches_materialization_oracle():
    rng = np.random.default_rng(99)
    for _ in range(25):
        img = GrayImage(rng.integers(0, 256, size=(8, 8), dtype=np.uint8))
        expected = bruteforce.min_mean_error_threshold(img.pixels.ravel())
        assert mmbebhe_threshold(histogram(img)) == expected


def test_mmbebhe_threshold_ties_break_low():
    # symmetric two-level histogram: several thresholds reach the same
    # brightness error; the smallest must win
    img = GrayImage.from_flat(2, 2, [0, 64, 128, 255])
    assert mmbebhe_threshold(histogram(img)) == 0


# ---------------------------------------------------------------------------
# small-scale brute-force equivalence
# ---------------------------------------------------------------------------


@given(
    st.lists(st.sampled_from([3, 90, 170, 250]), min_size=1, max_size=16),
)
def test_equalize_small_images_match_from_scratch(values):
    img = GrayImage.from_flat(len(values), 1, values)
    counts = bruteforce.tally_histogram(values)
    expected = bruteforce.apply_map(bruteforce.he_map(counts), values)
    assert equalize(img).pixels.ravel().tolist() == expected


def test_mmbebhe_threshold_float_tie_regression():
    # thresholds 216 and 217 reach the same integer brightness error; the
    # float means differed in the last bit and picked 217
    counts = np.zeros(256, dtype=np.int64)
    counts[[7, 147, 205]] = [2, 2, 8]
    hist = Histogram(counts)
    assert mmbebhe_threshold(hist) == 216
    assert mmbebhe_lut(hist).map[205] == 216
    pixels = [7] * 2 + [147] * 2 + [205] * 8
    assert bruteforce.min_mean_error_threshold(pixels) == 216


@given(st.dictionaries(st.integers(0, 255), st.integers(1, 12), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_mmbebhe_threshold_matches_exact_oracle_on_sparse_histograms(levels):
    pixels = [level for level, n in levels.items() for _ in range(n)]
    counts = np.zeros(256, dtype=np.int64)
    counts[list(levels)] = list(levels.values())
    assert mmbebhe_threshold(Histogram(counts)) == bruteforce.min_mean_error_threshold(pixels)


@st.composite
def large_histograms(draw):
    """Histograms with up to 256 occupied levels and totals up to 2**32."""
    levels = draw(st.lists(st.integers(0, 255), min_size=1, max_size=256, unique=True))
    cap = 2**32 // len(levels)
    counts = np.zeros(256, dtype=np.int64)
    counts[levels] = draw(st.lists(st.integers(1, cap), min_size=len(levels), max_size=len(levels)))
    return Histogram(counts)


def _float_rounded_segment_map(counts, t):
    # the float formula the integer rounding rule replaced
    out = np.arange(256, dtype=np.int64)
    low, high = counts[: t + 1], counts[t + 1 :]
    if low.sum() > 0:
        out[: t + 1] = np.floor(t * np.cumsum(low) / low.sum() + 0.5)
    if high.sum() > 0:
        out[t + 1 :] = (t + 1) + np.floor((254 - t) * np.cumsum(high) / high.sum() + 0.5)
    return out


@given(large_histograms())
def test_integer_rounding_matches_float_formula(hist):
    cum = np.cumsum(hist.counts)
    float_he = np.floor(255 * cum / hist.total + 0.5)
    assert he_lut(hist).map.tolist() == float_he.astype(np.int64).tolist()
    t = int(np.floor(hist.mean()))
    assert bbhe_lut(hist).map.tolist() == _float_rounded_segment_map(hist.counts, t).tolist()
