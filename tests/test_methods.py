"""The one compile path: `compile_maps` compiles a (k x 256) stack of
histogram counts to an (m x k x 256) stack of the maps of m methods, and a
report scores every (method, image) row of a group in one pass."""


import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contrastkit import (
    METHODS,
    FuzzyConfig,
    GrayImage,
    IntensityLut,
    MembershipFunction,
    apply_lut,
    compile_lut,
    compile_maps,
    evaluate,
    fuzzy_lut,
    histogram,
)
from contrastkit import enhance, histeq, methods, metrics
from contrastkit.cli import _REPORT_GROUP, generate_uniform_image, main

import bruteforce
from conftest import config_json, gray_images, low_contrast_images, traced_peak

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
# MMBEBHE's float argmin, threshold 133, is not its exact argmin: 132,
# below it, misses the input sum by less once rounded
BELOW_INCUMBENT = {76: 4, 123: 4}


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
    # every method in one call, and `fuzzy` once more by a custom config,
    # whose one LUT maps every histogram, as `report --fuzzy-config` stacks it
    custom = np.broadcast_to(fuzzy_lut(CUSTOM).map, counts.shape)
    maps = np.concatenate([compile_maps(METHODS, counts), custom[None]])
    assert maps.dtype == np.uint8
    for method, stack in zip([*METHODS, "custom"], maps):
        assert stack.tolist() == [oracle_map(method, img) for img in imgs], method
    # every (method, image) row scored in one pass, as `report` does
    reports = metrics._evaluate_maps(counts, maps)
    expected = [evaluate(img, apply_lut(img, IntensityLut(m)))
                for stack in maps for img, m in zip(imgs, stack)]
    assert list(map(_bits, reports)) == [_bits(tuple(rep)) for rep in expected]


def _bits(scores):
    return tuple(float(v).hex() for v in scores)


@given(image_groups())
@example([EQUALIZED, image_of(FLAT), image_of(TIE)])
@example([image_of(BELOW_INCUMBENT)])
@example([image_of(TIE), image_of(BELOW_INCUMBENT), image_of(FLAT), image_of(BELOW_INCUMBENT)])
@settings(max_examples=80, deadline=None)
def test_each_split_rule_gives_every_row_its_threshold(imgs):
    counts = np.array([histogram(img).counts for img in imgs])
    cum = counts.cumsum(axis=1)
    assert METHODS == ("he", "bbhe", "mmbebhe", "fuzzy")  # the CLI's order
    assert list(histeq._SPLIT_RULES) == list(METHODS)[:3]
    thresholds = {name: rule(counts, cum) for name, rule in histeq._SPLIT_RULES.items()}
    assert all(t.shape == (len(imgs),) for t in thresholds.values())
    assert thresholds["he"].tolist() == [255] * len(imgs)
    assert thresholds["bbhe"].tolist() == [sum(img.pixels.ravel().tolist()) // img.pixels.size for img in imgs]
    assert thresholds["mmbebhe"].tolist() == [bruteforce.mmbebhe_threshold_all_rows(row) for row in counts]


_split_rows = st.tuples(
    st.dictionaries(st.integers(0, 255), st.integers(1, 2**40), min_size=1, max_size=6), st.integers(0, 255)
)


@given(
    st.lists(_split_rows, min_size=1, max_size=6),
    st.sampled_from([1, 3, 24, 192]),
)
# an empty lower side: the threshold lies below the lowest occupied level
@example([({100: 3, 200: 1}, 50)], 1)
@example([({100: 3, 200: 1}, 50)], 24)
# an empty upper side: HE's 255, and a single-level image split at its level
@example([({77: 5}, 255), ({77: 5}, 77), ({0: 1}, 0)], 3)
@example([({77: 5}, 255), ({77: 5}, 77), ({0: 1}, 0)], 192)
# the largest histogram: no product of the stacked pass wraps in int64
@example([({0: 2**46, 128: 2**46 - 1}, 0), ({0: 2**46, 128: 2**46 - 1}, 254)], 24)
@settings(max_examples=60, deadline=None)
def test_split_maps_fills_every_row_as_the_oracle_does(rows, size):
    # the stack cycles through `rows`, so rows of every kind share one pass
    picked = [rows[i % len(rows)] for i in range(size)]
    counts = np.zeros((size, 256), dtype=np.int64)
    for row, (levels, _) in zip(counts, picked):
        row[list(levels)] = list(levels.values())
    cum = counts.cumsum(axis=1)
    thresholds = np.array([t for _, t in picked])
    maps = histeq._split_maps(cum, thresholds)
    assert maps.dtype == np.uint8 and maps.shape == (size, 256)
    assert maps.tolist() == [bruteforce.segment_map(c, t) for c, t in zip(counts.tolist(), thresholds.tolist())]
    # a grid of 3 split rules over the one `cum`: the drawn thresholds, each
    # row's neighbour's, and HE's 255
    grid = np.array([thresholds, np.roll(thresholds, 1), np.full(size, 255)])
    maps = histeq._split_maps(cum, grid)
    assert maps.dtype == np.uint8 and maps.shape == (3, size, 256)
    for (j, i), t in np.ndenumerate(grid):
        assert maps[j, i].tolist() == bruteforce.segment_map(counts[i].tolist(), int(t)), (j, i)


def test_the_tie_goes_to_the_smaller_threshold():
    counts = histogram(image_of(TIE)).counts[None]
    assert compile_maps(["mmbebhe"], counts)[0].tolist() == [bruteforce.segment_map(counts[0].tolist(), 216)]


def test_a_report_group_keeps_each_temporary_within_its_bound():
    # two occupied levels per row, one of them heavy at 255: every one of a
    # row's 256 thresholds passes the bound pass, so the exact re-check
    # scores 256 pairs a row, over the levels occupied in any row of the
    # group. The odd rows occupy all 256 levels, so its (pairs x levels)
    # temporaries would hold 2**22 int64 (32 MiB) at once; in blocks each
    # holds at most `_BLOCK`, and a few live together
    counts = np.zeros((_REPORT_GROUP, 256), dtype=np.int64)
    rows = np.arange(_REPORT_GROUP)
    counts[rows, 4 * rows] = 665
    counts[:, 255] = 756954 + rows
    counts[1::2] = 1  # and rows occupying all 256 levels, which do the same
    assert traced_peak(compile_maps, ["mmbebhe"], counts) < 4 * 2**20
    # the group compile of all four methods fills the 3 x 64 rows of the split
    # methods in one `_split_maps` pass, whose (rows x 256) temporaries each
    # hold 49,152 int64
    assert traced_peak(compile_maps, METHODS, counts) < 4 * 2**20
    maps = compile_maps(METHODS, counts)
    assert traced_peak(metrics._evaluate_maps, counts, maps) < 4 * 2**20


def test_an_unknown_method_is_a_key_error():
    # a name that is not a split method does not fall through to `fuzzy`
    img = image_of(TIE)
    for compile_unknown in (
        lambda: enhance(img, "bogus"),
        lambda: compile_lut(histogram(img), "bogus"),
        lambda: compile_maps(["bogus"], histogram(img).counts[None]),
        lambda: compile_maps(["fuzzy", "bogus"], histogram(img).counts[None]),
    ):
        with pytest.raises(KeyError, match="bogus"):
            compile_unknown()


def test_a_repeated_name_runs_its_split_rule_once(monkeypatch):
    # `_compile_maps` reaches each rule through the `_SPLIT_RULES` dict, so
    # the entry is wrapped there; rebinding a module name does not reach it
    calls, rule = [], histeq._SPLIT_RULES["mmbebhe"]

    def counted(counts, cum):
        calls.append(len(counts))
        return rule(counts, cum)

    monkeypatch.setitem(histeq._SPLIT_RULES, "mmbebhe", counted)
    counts = _stack(TIE, FLAT)
    maps = compile_maps(["mmbebhe"] * 3, counts)
    assert calls == [2]
    assert maps.shape == (3, 2, 256)
    assert all(np.array_equal(stack, maps[0]) for stack in maps)
    assert maps[0, 0].tolist() == bruteforce.segment_map(counts[0].tolist(), 216)


def _stack(*rows, dtype=np.int64):
    """A (k x 256) stack of `dtype` whose row i holds `rows[i]` (level -> count)."""
    counts = np.zeros((len(rows), 256), dtype=dtype)
    for row, levels in zip(counts, rows):
        row[list(levels)] = list(levels.values())
    return counts


@pytest.mark.parametrize(
    "counts, message",
    [
        # an empty row once divided by zero in BBHE's rule, and mapped fuzzy to [42, 43, ...]
        (_stack(TIE, {}), "^empty histogram: counts must not all be zero$"),
        # a row of -1s once mapped BBHE to [129, 2, 131, 4, ...], which is not monotone
        (np.full((1, 256), -1), "^counts must be non-negative$"),
        (_stack(TIE).astype(np.float64), "^counts must be integers, got dtype float64$"),
        (_stack(TIE)[0], r"^counts must have 256 bins per row, got shape \(256,\)$"),
        (_stack(TIE)[None], r"^counts must have 256 bins per row, got shape \(1, 1, 256\)$"),
        (_stack(TIE)[:, :255], r"^counts must have 256 bins per row, got shape \(1, 255\)$"),
        (_stack(TIE, {3: 2**46, 250: 2**46, 7: 1}), r"^histogram total exceeds 140737488355328 \(2\*\*47\)"),
        # a uint64 count past 2**63, which the int64 cast would wrap negative
        (_stack({5: 2**63}, dtype=np.uint64), r"^histogram total exceeds 140737488355328 \(2\*\*47\)"),
    ],
    ids=["empty row", "negative", "float", "1-D", "3-D", "255 bins", "over 2**47", "uint64 past 2**63"],
)
def test_compile_maps_rejects_a_stack_that_is_not_histograms(counts, message):
    # every name list takes the same check, the fuzzy-only one too
    for names in (METHODS, ["fuzzy"]):
        with pytest.raises(ValueError, match=message):
            compile_maps(names, counts)


def test_compile_maps_takes_any_integer_stack_and_an_empty_one():
    counts = _stack(TIE, {0: 3, 255: 1}, FLAT)
    expected = compile_maps(METHODS, counts)
    for dtype in (np.uint8, np.int32, np.uint64):
        assert np.array_equal(compile_maps(METHODS, counts.astype(dtype)), expected), dtype
    assert np.array_equal(compile_maps(METHODS, counts.tolist()), expected)
    assert compile_maps(METHODS, np.zeros((0, 256), dtype=np.int64)).shape == (4, 0, 256)
    # and no method: an empty uint8 stack of the same shape
    for stack in (counts, np.zeros((0, 256), dtype=np.int64)):
        maps = compile_maps([], stack)
        assert maps.dtype == np.uint8 and maps.shape == (0, len(stack), 256)


def test_counts_are_checked_once_where_they_enter_the_library(tmp_path, monkeypatch):
    checked, calls = methods._checked_counts, []

    def counted(counts, ndim):
        calls.append(ndim)
        return checked(counts, ndim)

    monkeypatch.setattr(methods, "_checked_counts", counted)
    compile_maps(METHODS, _stack(TIE, FLAT))
    assert calls == [2]
    # counts that `_level_counts` or a `Histogram` made are not checked again
    calls.clear()
    hist = histogram(SOURCE)
    for method in METHODS:
        enhance(SOURCE, method)
        compile_lut(hist, method)
    src, out = str(tmp_path / "in.pgm"), str(tmp_path / "r.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_json(CUSTOM))
    assert main(["synth", src, "--width", "16", "--height", "12", "--seed", "3"]) == 0
    assert main(["enhance", src, str(tmp_path / "e.pgm"), "--method", "fuzzy", "--fuzzy-config", str(cfg)]) == 0
    assert main(["report", src, src, "--methods", ",".join(METHODS), "--output", out]) == 0
    assert calls == []
