"""The registry's one shape: each method compiles a (k x 256) stack of
histogram counts to a (k x 256) stack of maps, and a report scores every
(method, image) row of a group in one pass."""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contrastkit import (
    LUT_COMPILERS,
    FuzzyConfig,
    GrayImage,
    IntensityLut,
    MembershipFunction,
    apply_lut,
    evaluate,
    histogram,
)
from contrastkit import enhance, histeq, metrics
from contrastkit.cli import _REPORT_GROUP, generate_uniform_image
from contrastkit.methods import lut_compilers

import bruteforce
from conftest import gray_images, low_contrast_images

# a custom config whose LUT depends on no histogram
CUSTOM = FuzzyConfig(
    (MembershipFunction(10, 10, 90), MembershipFunction(40, 110, 190), MembershipFunction(150, 240, 240)),
    (MembershipFunction(0, 0, 110), MembershipFunction(70, 128, 186), MembershipFunction(146, 255, 255)),
    resolution=24,
)
CUSTOM_MAP = bruteforce.fuzzy_per_level_map(CUSTOM)

# MMBEBHE's tie: thresholds 216 and 217 both miss the input sum by 4, and 216 wins
TIE = {7: 2, 147: 2, 205: 8}
# MMBEBHE's costly inputs: an equalized image, whose histogram is sparse
# and wide, and a flat full-range histogram, which keeps all 256 thresholds
SOURCE = generate_uniform_image(16, 16, 100, 156, 7)
EQUALIZED = enhance(SOURCE, "he")
FLAT = {v: 1 for v in range(256)}


def image_of(levels):
    """A one-row image holding `levels[v]` pixels at each level v."""
    pixels = [v for v, n in levels.items() for _ in range(n)]
    return GrayImage.from_flat(len(pixels), 1, pixels)


def oracle_map(method, img):
    """The per-histogram exact map of `method` for `img`."""
    pixels = img.pixels.ravel().tolist()
    counts = bruteforce.tally_histogram(pixels)
    if method == "he":
        return bruteforce.he_map(counts)
    if method == "bbhe":
        return bruteforce.segment_map(counts, sum(pixels) // len(pixels))
    if method == "mmbebhe":
        return bruteforce.segment_map(counts, bruteforce.min_mean_error_threshold(pixels))
    if method == "fuzzy":
        return bruteforce.fuzzy_default_map(min(pixels), max(pixels))
    return CUSTOM_MAP


_single_level = st.tuples(st.integers(0, 255), st.integers(1, 6)).map(lambda vn: image_of({vn[0]: vn[1]}))
_two_level = st.tuples(
    st.lists(st.integers(0, 255), min_size=2, max_size=2, unique=True), st.integers(1, 5), st.integers(1, 5)
).map(lambda t: image_of({t[0][0]: t[1], t[0][1]: t[2]}))
_images = st.one_of(
    gray_images(max_side=10), low_contrast_images(), _single_level, _two_level, st.just(image_of(TIE))
)


@st.composite
def image_groups(draw):
    """One to nine images drawn with repeats, so a group can hold the same
    histogram twice."""
    distinct = draw(st.lists(_images, min_size=1, max_size=9))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=9))
    return [distinct[i] for i in picks]


@given(image_groups())
@example([image_of(TIE)])
@example([image_of({3: 1}), image_of(TIE), image_of({3: 1}), image_of({0: 2, 255: 1})])
@example([EQUALIZED, SOURCE])
@example([image_of(FLAT)])
@settings(max_examples=80, deadline=None)
def test_a_stacked_compile_equals_the_per_histogram_oracles(imgs):
    counts = np.array([histogram(img).counts for img in imgs])
    compilers = {**LUT_COMPILERS, "custom": lut_compilers(CUSTOM)["fuzzy"]}
    maps = np.array([compilers[m](counts) for m in compilers])
    assert maps.dtype == np.uint8
    for method, stack in zip(compilers, maps):
        assert stack.tolist() == [oracle_map(method, img) for img in imgs], method
    # every (method, image) row scored in one pass, as `report` does
    reports = metrics._evaluate_maps(counts, maps)
    expected = [evaluate(img, apply_lut(img, IntensityLut(m)))
                for stack in maps for img, m in zip(imgs, stack)]
    assert list(map(_bits, reports)) == list(map(_bits, expected))


def _bits(rep):
    return tuple(float(v).hex() for v in (rep.mse, rep.psnr, rep.entropy, rep.ambe))


@given(image_groups())
@example([EQUALIZED, image_of(FLAT), image_of(TIE)])
@settings(max_examples=80, deadline=None)
def test_each_split_rule_gives_every_row_its_threshold(imgs):
    counts = np.array([histogram(img).counts for img in imgs])
    cum = counts.cumsum(axis=1)
    assert list(histeq._SPLIT_RULES) == list(LUT_COMPILERS)[:3]
    thresholds = {name: rule(counts, cum) for name, rule in histeq._SPLIT_RULES.items()}
    assert all(t.shape == (len(imgs),) for t in thresholds.values())
    assert thresholds["he"].tolist() == [255] * len(imgs)
    assert thresholds["bbhe"].tolist() == [sum(img.pixels.ravel().tolist()) // img.pixels.size for img in imgs]
    assert thresholds["mmbebhe"].tolist() == [bruteforce.mmbebhe_threshold_all_rows(row) for row in counts]


def test_the_tie_goes_to_the_smaller_threshold():
    counts = histogram(image_of(TIE)).counts[None]
    assert LUT_COMPILERS["mmbebhe"](counts).tolist() == [bruteforce.segment_map(counts[0].tolist(), 216)]


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_report_group_keeps_each_temporary_within_its_bound():
    # two occupied levels per row, one of them heavy at 255: every one of a
    # row's 256 thresholds passes the bound pass, so the exact re-check
    # scores 256 pairs a row, over the levels occupied in any row of the
    # group. The odd rows occupy all 256 levels, so its (pairs x levels)
    # temporaries would hold 2**22 int64 (32 MiB) at once; in blocks each
    # holds at most 2**16 (512 KiB), and a few live together
    counts = np.zeros((_REPORT_GROUP, 256), dtype=np.int64)
    rows = np.arange(_REPORT_GROUP)
    counts[rows, 4 * rows] = 665
    counts[:, 255] = 756954 + rows
    counts[1::2] = 1  # and rows occupying all 256 levels, which do the same
    assert _peak_bytes(LUT_COMPILERS["mmbebhe"], counts) < 4 * 2**20
    maps = np.array([LUT_COMPILERS[m](counts) for m in LUT_COMPILERS])
    assert _peak_bytes(metrics._evaluate_maps, counts, maps) < 4 * 2**20
