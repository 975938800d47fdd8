import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contrastkit import (
    METHODS,
    FuzzyConfig,
    GrayImage,
    Histogram,
    IntensityLut,
    MembershipFunction,
    apply_lut,
    compile_lut,
    enhance,
    evaluate,
    fuzzy_lut,
    histogram,
    mmbebhe_threshold,
)
from contrastkit.cli import generate_uniform_image
from contrastkit.histeq import _unrounded_out_sums
from contrastkit.image import _BLOCK, MAX_TOTAL

import bruteforce
from conftest import gray_images, traced_peak


FOUR_LEVELS = GrayImage.from_flat(2, 2, [0, 64, 128, 255])


def ambe(img, method):
    """The brightness error of `img` enhanced by `method`."""
    return evaluate(img, enhance(img, method)).ambe


# ---------------------------------------------------------------------------
# LUT container
# ---------------------------------------------------------------------------


def test_lut_validation():
    with pytest.raises(ValueError):
        IntensityLut(np.arange(255))
    with pytest.raises(ValueError):
        IntensityLut(np.full(256, 300))


def test_lut_neither_aliases_nor_freezes_a_writable_map():
    m = np.arange(256, dtype=np.uint8)
    lut = IntensityLut(m)
    m[0] = 9  # raised while the LUT froze the caller's array
    assert lut.map[0] == 0
    assert not lut.map.flags.writeable


def test_apply_lut_result_owns_its_pixels():
    img = GrayImage.from_flat(2, 2, [0, 64, 128, 255])
    out = apply_lut(img, IntensityLut(np.arange(256)))
    assert out == img and not np.shares_memory(out.pixels, img.pixels)
    assert not out.pixels.flags.writeable


# ---------------------------------------------------------------------------
# HE
# ---------------------------------------------------------------------------


def test_he_lut_four_levels():
    lut = compile_lut(histogram(FOUR_LEVELS), "he")
    # 255 * {1/4, 2/4, 3/4, 4/4} = {63.75, 127.5, 191.25, 255}, halves up
    assert lut.map[0] == 64
    assert lut.map[64] == 128
    assert lut.map[128] == 191
    assert lut.map[255] == 255


def test_he_lut_constant_histogram_saturates():
    for g in (0, 7, 200, 255):
        counts = np.zeros(256, dtype=np.int64)
        counts[g] = 9
        assert compile_lut(Histogram(counts), "he").map[g] == 255


@st.composite
def large_histograms(draw):
    """Histograms with up to 256 occupied levels and totals up to 2**32."""
    levels = draw(st.lists(st.integers(0, 255), min_size=1, max_size=256, unique=True))
    cap = 2**32 // len(levels)
    counts = np.zeros(256, dtype=np.int64)
    counts[levels] = draw(st.lists(st.integers(1, cap), min_size=len(levels), max_size=len(levels)))
    return Histogram(counts)


def _max_total_histogram():
    # a total of exactly 2**47, the bound: from level 128 up, the rounding
    # numerator 2 * 255 * cum + N nears 2**56
    counts = np.zeros(256, dtype=np.int64)
    counts[[0, 128, 255]] = [1, 2**47 - 2, 1]
    return Histogram(counts)


@given(st.one_of(gray_images().map(histogram), large_histograms()))
@example(_max_total_histogram())
def test_he_lut_matches_prefix_sum_oracle(hist):
    assert compile_lut(hist, "he").map.tolist() == bruteforce.he_map(hist.counts.tolist())


@given(gray_images())
def test_he_lut_monotone_and_range(img):
    hist = histogram(img)
    lut = compile_lut(hist, "he").map
    assert np.all(np.diff(lut.astype(np.int64)) >= 0)
    occupied = np.flatnonzero(hist.counts)
    assert lut[occupied[-1]] == 255
    first = occupied[0]
    assert lut[first] == math.floor(255 * hist.counts[first] / hist.total + 0.5)


# ---------------------------------------------------------------------------
# apply_lut / enhance
# ---------------------------------------------------------------------------


def test_apply_identity_lut_is_noop():
    assert apply_lut(FOUR_LEVELS, IntensityLut(np.arange(256))) == FOUR_LEVELS


def test_apply_constant_lut_zeroes_image():
    lut = IntensityLut(np.zeros(256, dtype=np.uint8))
    out = apply_lut(FOUR_LEVELS, lut)
    assert np.all(out.pixels == 0)


def test_apply_he_lut_four_levels():
    out = apply_lut(FOUR_LEVELS, compile_lut(histogram(FOUR_LEVELS), "he"))
    assert out.pixels.ravel().tolist() == [64, 128, 191, 255]


def test_apply_lut_keeps_its_extra_memory_within_a_block():
    # `take` casts its index to intp, 8 bytes a pixel, so only one block of
    # the index may be live at a time
    img = GrayImage(np.random.default_rng(7).integers(0, 256, (2048, 2048), dtype=np.uint8))
    lut = compile_lut(histogram(img), "mmbebhe")
    bound = img.size + 16 * _BLOCK  # the output raster and two blocks of int64
    assert traced_peak(apply_lut, img, lut) < bound
    for method in METHODS:
        assert traced_peak(enhance, img, method) < bound
    # a raster that ends in a partial block maps every pixel
    for shape in [(2048, 2048), (257, 300)]:
        pixels = img.pixels[: shape[0], : shape[1]]
        assert np.array_equal(apply_lut(GrayImage(pixels), lut).pixels, lut.map[pixels])


def test_equalize_constant_image_goes_white():
    img = GrayImage(np.full((3, 3), 42, dtype=np.uint8))
    assert np.all(enhance(img, "he").pixels == 255)


def test_equalize_four_levels():
    assert enhance(FOUR_LEVELS, "he").pixels.ravel().tolist() == [64, 128, 191, 255]


@pytest.mark.parametrize("method", list(METHODS))
@given(gray_images())
def test_enhance_is_lut_expressible(method, img):
    assert enhance(img, method) == apply_lut(img, compile_lut(histogram(img), method))


@given(gray_images())
def test_enhance_fuzzy_applies_a_given_config(img):
    # fixed sets, unlike any image's default config
    cfg = FuzzyConfig(
        (MembershipFunction(0, 0, 100), MembershipFunction(50, 120, 200), MembershipFunction(150, 255, 255)),
        (MembershipFunction(0, 0, 90), MembershipFunction(60, 128, 200), MembershipFunction(160, 255, 255)),
        resolution=64,
    )
    assert enhance(img, "fuzzy", cfg) == apply_lut(img, fuzzy_lut(cfg))


@given(gray_images())
def test_equalized_cdf_tracks_linear_ramp(img):
    # discrete HE limit: deviation from the ideal ramp is bounded by the
    # largest single-bin mass plus the half-level rounding quantum
    out_hist = histogram(enhance(img, "he"))
    out_cdf = np.cumsum(out_hist.counts) / out_hist.total
    ramp = np.arange(256) / 255.0
    p_max = histogram(img).probabilities().max()
    assert np.max(np.abs(out_cdf - ramp)) <= p_max + 0.5 / 255 + 1e-12


@given(gray_images())
def test_pixel_count_preserved_by_all_methods(img):
    n = img.size
    for method in METHODS:
        out = enhance(img, method)
        assert (out.width, out.height) == (img.width, img.height)
        assert histogram(out).total == n


# ---------------------------------------------------------------------------
# BBHE
# ---------------------------------------------------------------------------


def test_bbhe_constant_image_unchanged():
    for g in (0, 100, 255):
        img = GrayImage(np.full((4, 4), g, dtype=np.uint8))
        assert enhance(img, "bbhe") == img


def test_bbhe_four_levels_hand_computed():
    # mean 111.75 -> split at 111; lower {0,64} onto [0,111]: {55.5->56, 111};
    # upper {128,255} onto [112,255]: {112+71.5->184, 255}
    assert enhance(FOUR_LEVELS, "bbhe").pixels.ravel().tolist() == [56, 111, 184, 255]


def test_bbhe_lut_segments_monotone():
    rng = np.random.default_rng(7)
    for _ in range(50):
        img = GrayImage(rng.integers(0, 256, size=(12, 12), dtype=np.uint8))
        hist = histogram(img)
        t = int(np.floor(hist.level_sum / hist.total))
        lut = compile_lut(hist, "bbhe").map.astype(np.int64)
        assert np.all(np.diff(lut[: t + 1]) >= 0)
        assert np.all(np.diff(lut[t + 1 :]) >= 0)
        assert np.all(lut[: t + 1] <= t)
        if t < 255:
            assert np.all(lut[t + 1 :] >= t + 1)


@given(gray_images())
def test_bbhe_matches_segment_oracle(img):
    hist = histogram(img)
    t = int(np.floor(hist.level_sum / hist.total))
    expected = bruteforce.segment_map(hist.counts.tolist(), t)
    assert compile_lut(hist, "bbhe").map.tolist() == expected


def test_bbhe_beats_he_brightness_where_he_shifts():
    # off-center low-contrast images: HE drags the mean toward mid-range,
    # the mean-split keeps it close
    for seed, lo, hi in [(1, 40, 90), (2, 170, 220), (3, 60, 100), (4, 180, 230)]:
        img = generate_uniform_image(32, 32, lo, hi, seed)
        assert ambe(img, "he") > 10.0  # HE really does shift brightness
        assert ambe(img, "bbhe") < ambe(img, "he")


def test_bbhe_brightness_majority_on_low_contrast_corpus():
    rng = np.random.default_rng(123)
    wins = ties_or_losses = 0
    for i in range(100):
        lo = int(rng.integers(20, 180))
        hi = lo + int(rng.integers(20, 60))
        img = generate_uniform_image(16, 16, lo, min(hi, 255), int(rng.integers(1 << 30)))
        if ambe(img, "bbhe") <= ambe(img, "he"):
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
        assert enhance(img, "mmbebhe") == img


@given(gray_images())
@settings(max_examples=40, deadline=None)
def test_mmbebhe_never_worse_than_bbhe(img):
    assert ambe(img, "mmbebhe") <= ambe(img, "bbhe") + 1e-12


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
    assert enhance(img, "he").pixels.ravel().tolist() == expected


def test_mmbebhe_threshold_float_tie_regression():
    # thresholds 216 and 217 reach the same integer brightness error; the
    # float means differed in the last bit and picked 217
    counts = np.zeros(256, dtype=np.int64)
    counts[[7, 147, 205]] = [2, 2, 8]
    hist = Histogram(counts)
    assert mmbebhe_threshold(hist) == 216
    assert compile_lut(hist, "mmbebhe").map[205] == 216
    pixels = [7] * 2 + [147] * 2 + [205] * 8
    assert bruteforce.min_mean_error_threshold(pixels) == 216


@given(st.dictionaries(st.integers(0, 255), st.integers(1, 12), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_mmbebhe_threshold_matches_exact_oracle_on_sparse_histograms(levels):
    pixels = [level for level, n in levels.items() for _ in range(n)]
    counts = np.zeros(256, dtype=np.int64)
    counts[list(levels)] = list(levels.values())
    assert mmbebhe_threshold(Histogram(counts)) == bruteforce.min_mean_error_threshold(pixels)


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
    assert compile_lut(hist, "he").map.tolist() == float_he.astype(np.int64).tolist()
    t = int(np.floor(hist.level_sum / hist.total))
    assert compile_lut(hist, "bbhe").map.tolist() == _float_rounded_segment_map(hist.counts, t).tolist()


def test_bbhe_splits_at_the_exact_integer_floor_of_the_mean():
    # the float mean is 200 - 2**-47, which rounds to 200.0; the integer
    # floor of sum(k * w_k) / N is 199
    counts = np.zeros(256, dtype=np.int64)
    counts[199], counts[200] = 1, 2**47 - 1
    lut = compile_lut(Histogram(counts), "bbhe")
    assert lut.map.tolist() == bruteforce.segment_map(counts.tolist(), 199)
    assert lut.map[199:201].tolist() == [199, 255]


# ---------------------------------------------------------------------------
# MMBEBHE bound pass against the search over all 256 thresholds
# ---------------------------------------------------------------------------


@st.composite
def two_level_histograms(draw):
    levels = draw(st.lists(st.integers(0, 255), min_size=2, max_size=2, unique=True))
    counts = np.zeros(256, dtype=np.int64)
    counts[levels] = draw(st.lists(st.integers(1, 2**46), min_size=2, max_size=2))
    return Histogram(counts)


@st.composite
def symmetric_histograms(draw):
    """Equal masses at levels mirrored about the middle of [lo, hi], so
    many thresholds come close to the smallest error."""
    lo = draw(st.integers(0, 254))
    hi = draw(st.integers(lo + 1, 255))
    steps = draw(st.lists(st.integers(0, (hi - lo) // 2), min_size=1, max_size=8, unique=True))
    counts = np.zeros(256, dtype=np.int64)
    for j in steps:
        counts[lo + j] = counts[hi - j] = draw(st.integers(1, 2**40))
    return Histogram(counts)


@st.composite
def near_max_total_histograms(draw):
    """Up to five heavy levels filling nearly all of MAX_TOTAL, and 1-3
    pixels above or below all of them. Here an unrounded upper sum taken as
    sum_{k>t} w_k * cum_k - n_low * n_high cancels two terms near N**2 and
    is off by a large share of N."""
    heavy = sorted(draw(st.lists(st.integers(1, 254), min_size=1, max_size=5, unique=True)))
    light = draw(st.integers(1, 3))
    side = st.integers(heavy[-1] + 1, 255) if draw(st.booleans()) else st.integers(0, heavy[0] - 1)
    cap = (MAX_TOTAL - light) // len(heavy)
    counts = np.zeros(256, dtype=np.int64)
    counts[heavy] = draw(st.lists(st.integers(cap // 4, cap), min_size=len(heavy), max_size=len(heavy)))
    counts[draw(side)] = light
    return Histogram(counts)


@given(
    st.one_of(
        large_histograms(), two_level_histograms(), symmetric_histograms(), near_max_total_histograms()
    )
)
@settings(max_examples=400, deadline=None)
def test_mmbebhe_threshold_matches_the_search_over_all_thresholds(hist):
    assert mmbebhe_threshold(hist) == bruteforce.mmbebhe_threshold_all_rows(hist.counts)


@given(st.one_of(two_level_histograms(), symmetric_histograms(), near_max_total_histograms()))
@settings(max_examples=100, deadline=None)
def test_mmbebhe_bound_pass_is_within_its_stated_float_error(hist):
    # the slack derivation in histeq bounds each unrounded sum's float error
    # by 255 * gamma_263 * N < 2**-36 * N; the form that subtracts two terms
    # near N**2 was off by a third of N on such histograms
    exact = bruteforce.unrounded_out_sums(hist.counts)
    worst = max(abs(Fraction(float(a)) - e) for a, e in zip(_unrounded_out_sums(hist.counts[None], np.cumsum(hist.counts)[None])[0], exact))
    assert worst <= Fraction(hist.total, 2**36)


def _seeded_histograms(count, seed):
    """Beta-shaped and sparse histograms over spans hi - lo of 1 to 255,
    with totals from 1 to about 2**40 pixels."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        width = 1 + i % 255
        lo = int(rng.integers(0, 256 - width))
        counts = np.zeros(256, dtype=np.int64)
        if i % 2:
            a, b = rng.uniform(0.3, 5.0, 2)
            x = (np.arange(width + 1) + 0.5) / (width + 1)
            shape = x ** (a - 1) * (1 - x) ** (b - 1)
            counts[lo : lo + width + 1] = rng.multinomial(int(2 ** rng.uniform(0, 40)), shape / shape.sum())
            counts[[lo, lo + width]] += 1  # both ends occur
        else:
            levels = lo + rng.choice(width + 1, size=min(width + 1, int(rng.integers(1, 9))), replace=False)
            counts[levels] = rng.integers(1, 2 ** int(rng.integers(1, 40)), size=levels.size, endpoint=True)
        yield Histogram(counts)


@pytest.mark.slow
def test_mmbebhe_threshold_matches_the_search_over_all_thresholds_on_seeded_histograms():
    mismatched = [
        i
        for i, h in enumerate(_seeded_histograms(10_000, seed=11))
        if mmbebhe_threshold(h) != bruteforce.mmbebhe_threshold_all_rows(h.counts)
    ]
    assert mismatched == []
