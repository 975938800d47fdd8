import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contrastkit import (
    FuzzyConfig,
    GrayImage,
    IntensityLut,
    MembershipFunction,
    apply_lut,
    compile_lut,
    default_config,
    enhance,
    fuzzy_lut,
    histogram,
)
from contrastkit.fuzzy import _aggregate, _centroids
from contrastkit.image import _BLOCK

import bruteforce
from conftest import config_json, low_contrast_images, traced_peak

TWO_LEVEL = GrayImage.from_flat(2, 1, [100, 150])


def full_range_outputs():
    return (
        MembershipFunction(0.0, 0.0, 128.0),
        MembershipFunction(64.0, 128.0, 192.0),
        MembershipFunction(128.0, 255.0, 255.0),
    )


# ---------------------------------------------------------------------------
# membership functions
# ---------------------------------------------------------------------------


def grade(mf, x):
    """`mf.sample` at the single point `x`."""
    return float(mf.sample(x))


def test_triangle_grades():
    mf = MembershipFunction(50.0, 125.0, 200.0)
    assert grade(mf, 125.0) == 1.0
    assert grade(mf, 50.0) == 0.0
    assert grade(mf, 200.0) == 0.0
    assert grade(mf, 87.5) == pytest.approx(0.5)
    assert grade(mf, 162.5) == pytest.approx(0.5)
    assert grade(mf, 0.0) == 0.0
    assert grade(mf, 255.0) == 0.0


def test_left_shoulder_triangle():
    mf = MembershipFunction(50.0, 50.0, 125.0)
    assert grade(mf, 50.0) == 1.0
    assert grade(mf, 49.0) == 0.0
    assert grade(mf, 87.5) == pytest.approx(0.5)


def test_breakpoint_order_enforced():
    with pytest.raises(ValueError):
        MembershipFunction(10.0, 5.0, 20.0)


@given(
    st.tuples(st.floats(0, 255), st.floats(0, 255), st.floats(0, 255)).map(sorted),
    st.lists(st.floats(-10, 265), min_size=1, max_size=30),
)
def test_sample_agrees_with_grade_and_stays_in_unit_interval(abc, xs):
    mf = MembershipFunction(*abc)
    sampled = mf.sample(np.array(xs))
    for x, s in zip(xs, sampled):
        g = bruteforce.triangle_grade(mf, x)
        assert 0.0 <= g <= 1.0
        assert s == pytest.approx(g, abs=1e-12)


# ---------------------------------------------------------------------------
# default config / fuzzification
# ---------------------------------------------------------------------------


def test_default_config_breakpoints():
    img = GrayImage.from_flat(2, 1, [50, 200])
    cfg = default_config(histogram(img))
    dark, gray, bright = cfg.input_sets
    assert (dark.a, dark.b, dark.c) == (50.0, 50.0, 125.0)
    assert (gray.a, gray.b, gray.c) == (50.0, 125.0, 200.0)
    assert (bright.a, bright.b, bright.c) == (125.0, 200.0, 200.0)
    assert cfg.resolution == 256
    assert compile_lut(histogram(img), "fuzzy") == fuzzy_lut(cfg)


def test_default_config_full_range():
    img = GrayImage.from_flat(2, 1, [0, 255])
    dark, _, bright = default_config(histogram(img)).input_sets
    assert (dark.a, dark.b, dark.c) == (0.0, 0.0, 127.5)
    assert (bright.a, bright.b, bright.c) == (127.5, 255.0, 255.0)


def test_default_config_degenerate_on_flat_images():
    for span, identity in ((0, True), (1, True), (2, False)):
        for lo in range(256 - span):
            lut = compile_lut(histogram(GrayImage.from_flat(2, 1, [lo, lo + span])), "fuzzy")
            assert (lut == IntensityLut(np.arange(256))) == identity, (lo, span)


def grades(cfg, g):
    """The (dark, gray, bright) membership degrees of gray level `g`."""
    return tuple(grade(mf, g) for mf in cfg.input_sets)


def test_fuzzify_at_anchors():
    cfg = default_config(histogram(GrayImage.from_flat(2, 1, [50, 200])))
    assert grades(cfg, 50) == (1.0, 0.0, 0.0)
    assert grades(cfg, 125) == (0.0, 1.0, 0.0)
    d, g, b = grades(cfg, 87.5)  # halfway between g_min and the midpoint
    assert (d, g, b) == pytest.approx((0.5, 0.5, 0.0))


@given(st.integers(0, 253), st.integers(2, 255), st.data())
def test_partition_of_unity_on_dynamic_range(g_min, span, data):
    g_max = min(255, g_min + span)
    img = GrayImage.from_flat(2, 1, [g_min, g_max])
    cfg = default_config(histogram(img))
    g = data.draw(st.integers(g_min, g_max))
    assert sum(grades(cfg, g)) == pytest.approx(1.0, abs=1e-9)


MAX_FLOAT = 1.7976931348623157e308
SUBNORMAL = 5e-324
any_breakpoint = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10, 265),
    st.integers(-10, 265).map(float),
    st.sampled_from([-MAX_FLOAT, MAX_FLOAT, -SUBNORMAL, SUBNORMAL, 0.0, -0.0]),
)


@given(st.lists(st.tuples(any_breakpoint, any_breakpoint, any_breakpoint).map(sorted), min_size=3, max_size=3))
@example([[-MAX_FLOAT, -MAX_FLOAT, MAX_FLOAT], [-MAX_FLOAT, MAX_FLOAT, MAX_FLOAT], [-MAX_FLOAT, 0.0, MAX_FLOAT]])
@example([[-SUBNORMAL, 0.0, SUBNORMAL], [-SUBNORMAL, SUBNORMAL, SUBNORMAL], [0.0, SUBNORMAL, 2 * SUBNORMAL]])
@example([[-MAX_FLOAT, 255.0, 255.0], [0.0, 0.0, MAX_FLOAT], [-SUBNORMAL, -SUBNORMAL, 0.0]])
def test_membership_plane_shape_and_bounds(triangles):
    # the plane of every config that `from_json` accepts is in [0, 1] and
    # never NaN, so `fuzzy._aggregate` clips no activation
    sets = [{"a": a, "b": b, "c": c} for a, b, c in triangles]
    cfg = FuzzyConfig.from_json(json.dumps({"input_sets": sets, "output_sets": sets}))
    plane = np.column_stack([mf.sample(np.arange(256.0)) for mf in cfg.input_sets])
    assert plane.shape == (256, 3)
    assert not np.isnan(plane).any()
    assert np.all(plane >= 0.0) and np.all(plane <= 1.0)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


def output_grid_sets(cfg):
    """The grid of `cfg` and its output sets sampled on it."""
    grid = np.linspace(0.0, 255.0, cfg.resolution)
    return grid, [mf.sample(grid) for mf in cfg.output_sets]


def test_infer_single_full_rule_returns_its_output_set():
    cfg = default_config(histogram(TWO_LEVEL))
    _, out_sets = output_grid_sets(cfg)
    agg = _aggregate(np.eye(3), out_sets)
    for rule in range(3):
        assert np.array_equal(agg[rule], out_sets[rule])


def test_infer_nothing_active_is_zero():
    cfg = default_config(histogram(TWO_LEVEL))
    assert not np.any(_aggregate(np.zeros((2, 3)), output_grid_sets(cfg)[1]))


def test_infer_two_clipped_rules_pointwise():
    cfg = default_config(histogram(TWO_LEVEL))
    grid, out_sets = output_grid_sets(cfg)
    agg = _aggregate(np.array([[0.5, 0.5, 0.0]]), out_sets)[0]
    darker, mid, _ = cfg.output_sets
    for i, x in enumerate(grid):
        expected = max(
            min(0.5, bruteforce.triangle_grade(darker, x)), min(0.5, bruteforce.triangle_grade(mid, x))
        )
        assert agg[i] == pytest.approx(expected, abs=1e-12)


@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=8))
def test_aggregate_bounded_by_max_activation(triples):
    cfg = default_config(histogram(TWO_LEVEL))
    agg = _aggregate(np.array(triples), output_grid_sets(cfg)[1])
    assert np.all(agg >= 0.0)
    assert np.all(agg <= np.max(triples, axis=1)[:, None] + 1e-12)


# ---------------------------------------------------------------------------
# defuzzification
# ---------------------------------------------------------------------------


def centroids(rows, fallback=-1):
    """`_centroids` of a block of aggregates, each sampled on the uniform
    grid over [0, 255] of the block's row length; a copy is overwritten."""
    block = np.array(rows, dtype=np.float64, ndmin=2)
    grid = np.linspace(0.0, 255.0, block.shape[1])
    return _centroids(block, grid, np.full(len(block), fallback)).tolist()


def test_centroid_symmetric_mid_aggregate_is_128():
    darker, mid, brighter = full_range_outputs()
    grid = np.linspace(0.0, 255.0, 256)
    assert centroids([np.minimum(alpha, mid.sample(grid)) for alpha in (0.2, 0.5, 1.0)]) == [128] * 3


def test_centroid_of_full_darker_and_brighter_triangles():
    darker, _, brighter = full_range_outputs()
    grid = np.linspace(0.0, 255.0, 256)
    got_dark, got_bright = centroids([darker.sample(grid), brighter.sample(grid)])
    # frozen sampled-grid values
    assert got_dark == 42
    assert got_bright == 213
    # within one level of the continuous centroids (quadrature oracle)
    assert abs(got_dark - bruteforce.triangle_centroid_quadrature(0, 0, 128)) <= 1.0
    assert abs(got_bright - bruteforce.triangle_centroid_quadrature(128, 255, 255)) <= 1.0
    # the same anchors as LUT entries: at its range's ends a two-level
    # image fires only the dark or only the bright rule, fully
    lut = fuzzy_lut(default_config(histogram(TWO_LEVEL)))
    assert (lut.map[100], lut.map[150]) == (42, 213)


def test_centroid_degenerate_and_invalid_inputs():
    # an all-zero aggregate fired no rule and takes its row's fallback
    assert centroids(np.zeros((2, 256)), fallback=7) == [7, 7]
    assert centroids([[0.0, 0.0], [0.0, 1.0]], fallback=7) == [7, 255]


def test_centroid_of_large_finite_samples():
    assert centroids([0.0, 1e303]) == [255]
    assert centroids([1e303, 0.0, 0.0]) == [0]


@pytest.mark.parametrize("rows,resolution", [(256, 256), (57, 256), (256, 18), (7, 8193), (3, 20001), (2, 30001)])
def test_centroids_of_a_block_match_each_row_alone(rows, resolution):
    # a symmetric row's exact centroid is 127.5, so its rounded centroid
    # turns on the last bit of the sums; a reduction that depends on the
    # other rows of the block (a BLAS product, or `einsum` on rows longer
    # than NumPy's buffer) disagrees with the one-row sums on some rows
    rng = np.random.default_rng(rows)
    weights = rng.random((rows, resolution))
    block = weights + weights[:, ::-1]
    grid = np.linspace(0.0, 255.0, resolution)
    alone = [bruteforce.grid_centroid(row, grid) for row in block]
    assert set(alone) <= {127, 128}
    assert centroids(block) == alone


def test_centroid_leaves_its_argument_unchanged():
    # `_centroids` overwrites its aggregate block, but `fuzzy_lut` reuses
    # the grid and the fallback levels, so those must come back unchanged
    agg = np.linspace(0.0, 1.0, 256)[None, :]
    grid = np.linspace(0.0, 255.0, 256)
    fallback = np.array([9])
    assert _centroids(agg, grid, fallback).tolist() == [170]
    assert np.array_equal(grid, np.linspace(0.0, 255.0, 256))
    assert fallback.tolist() == [9]


@pytest.mark.parametrize("x,expected", [(0.5, 1), (1.5, 2), (2.4, 2), (2.5, 3), (63.75, 64), (127.5, 128)])
def test_centroid_rounds_half_up(x, expected):
    # weight the grid points either side of x so that the centroid is x
    k = math.floor(x)
    upper = Fraction(x - k).limit_denominator(8)
    agg = np.zeros(256)
    agg[k], agg[k + 1] = upper.denominator - upper.numerator, upper.numerator
    assert centroids(agg) == [expected]


@given(st.lists(st.floats(0, 1), min_size=2, max_size=64).filter(lambda v: sum(v) > 1e-9))
def test_centroid_lies_within_support(values):
    [result] = centroids(values)
    grid = np.linspace(0.0, 255.0, len(values))
    support = np.flatnonzero(np.array(values) > 0)
    assert grid[support[0]] - 1 <= result <= grid[support[-1]] + 1


# ---------------------------------------------------------------------------
# LUT compilation and end-to-end enhancement
# ---------------------------------------------------------------------------


def test_fuzzy_lut_degenerate_config_is_identity():
    img = GrayImage.from_flat(2, 2, [7, 7, 7, 7])
    lut = compile_lut(histogram(img), "fuzzy")
    assert lut.map.tolist() == list(range(256))


def test_fuzzy_lut_anchor_values():
    cfg = default_config(histogram(TWO_LEVEL))
    lut = fuzzy_lut(cfg)
    assert lut.map[100] == 42  # full Darker activation
    assert lut.map[150] == 213  # full Brighter activation
    assert lut.map[125] == 128  # midpoint -> symmetric Mid aggregate


def test_fuzzy_lut_outside_range_falls_back_to_identity():
    lut = fuzzy_lut(default_config(histogram(TWO_LEVEL)))
    assert lut.map[0] == 0
    assert lut.map[99] == 99
    assert lut.map[151] == 151
    assert lut.map[255] == 255


@given(low_contrast_images())
@settings(max_examples=60, deadline=None)
def test_fuzzy_lut_monotone_on_dynamic_range(img):
    flat = img.pixels.ravel()
    g_min, g_max = int(flat.min()), int(flat.max())
    lut = fuzzy_lut(default_config(histogram(img))).map.astype(np.int64)
    assert np.all(np.diff(lut[g_min : g_max + 1]) >= 0)


def test_enhance_fuzzy_constant_unchanged():
    img = GrayImage(np.full((5, 3), 77, dtype=np.uint8))
    assert enhance(img, "fuzzy") == img


def test_enhance_fuzzy_two_level_stretch():
    out = enhance(TWO_LEVEL, "fuzzy")
    levels = sorted(set(out.pixels.ravel().tolist()))
    assert levels == [42, 213]
    assert abs(levels[0] - 128 / 3) <= 2
    assert abs(levels[1] - (255 - 128 / 3)) <= 2
    # dynamic range expands from 50 to about 169
    assert levels[1] - levels[0] > 150


@given(low_contrast_images(min_span=2, max_span=40))
@settings(max_examples=40, deadline=None)
def test_enhance_fuzzy_preserves_dimensions_and_expands_span(img):
    out = enhance(img, "fuzzy")
    assert (out.width, out.height) == (img.width, img.height)
    in_span = int(img.pixels.max()) - int(img.pixels.min())
    out_span = int(out.pixels.max()) - int(out.pixels.min())
    assert out_span > in_span


def test_enhance_fuzzy_mid_window_pushes_past_both_ends():
    rng = np.random.default_rng(5)
    for _ in range(10):
        img = GrayImage(rng.integers(100, 157, size=(16, 16), dtype=np.uint8))
        out = enhance(img, "fuzzy")
        assert int(out.pixels.min()) < 100
        assert int(out.pixels.max()) > 156


# ---------------------------------------------------------------------------
# config serialization
# ---------------------------------------------------------------------------


def _round_trip_spans():
    """Every span of at most 3 levels, plus 200 more drawn with a fixed seed."""
    narrow = {(lo, lo + d) for d in range(4) for lo in range(256 - d)}
    spans = set(narrow)
    rng = np.random.default_rng(2025)
    while len(spans) < len(narrow) + 200:
        lo, hi = sorted(int(v) for v in rng.integers(0, 256, size=2))
        spans.add((lo, hi))
    return sorted(spans)


def test_equal_configs_compile_to_equal_luts():
    for lo, hi in _round_trip_spans():
        cfg = default_config(histogram(GrayImage.from_flat(2, 1, [lo, hi])))
        restored = FuzzyConfig.from_json(config_json(cfg))
        assert restored == cfg
        assert fuzzy_lut(restored) == fuzzy_lut(cfg), (lo, hi)


def test_config_normalises_resolution_to_int():
    sets = default_config(histogram(TWO_LEVEL)).input_sets, full_range_outputs()
    cfg = FuzzyConfig(*sets, resolution=np.int64(300))
    assert type(cfg.resolution) is int
    assert FuzzyConfig.from_json(config_json(cfg)) == cfg


def test_config_json_resolution_is_optional():
    doc = json.loads(config_json(default_config(histogram(TWO_LEVEL))))
    del doc["resolution"]
    assert FuzzyConfig.from_json(json.dumps(doc)).resolution == 256


def test_config_json_takes_integer_breakpoints():
    doc = json.loads(config_json(default_config(histogram(TWO_LEVEL))))
    doc["output_sets"][0] = {"a": 0, "b": 0, "c": 100}
    cfg = FuzzyConfig.from_json(json.dumps(doc))
    assert cfg.output_sets[0] == MembershipFunction(0.0, 0.0, 100.0)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("input_sets"),
        lambda d: d["input_sets"].pop(),
        lambda d: d["output_sets"][0].pop("b"),
        lambda d: d.update(resolution=1),
    ],
)
def test_config_json_malformed_documents_raise(mutate):
    doc = json.loads(config_json(default_config(histogram(TWO_LEVEL))))
    mutate(doc)
    with pytest.raises(ValueError):
        FuzzyConfig.from_json(json.dumps(doc))


def test_custom_config_drives_the_lut():
    # squeeze the output sets into [64, 192]: enhancement then cannot leave
    # that window
    cfg = FuzzyConfig(
        input_sets=default_config(histogram(TWO_LEVEL)).input_sets,
        output_sets=(
            MembershipFunction(64.0, 64.0, 128.0),
            MembershipFunction(96.0, 128.0, 160.0),
            MembershipFunction(128.0, 192.0, 192.0),
        ),
    )
    out = apply_lut(TWO_LEVEL, fuzzy_lut(cfg))
    assert int(out.pixels.min()) >= 64
    assert int(out.pixels.max()) <= 192


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(resolution=2.9),
        lambda d: d.update(resolution=1e12),
        lambda d: d.update(resolution=True),
        lambda d: d.update(resolution=65537),
        lambda d: d.update(resolution="256"),
        lambda d: d["input_sets"][0].update(a=float("-inf")),
        lambda d: d["output_sets"][2].update(c=float("inf")),
        lambda d: d["output_sets"][1].update(b=float("nan")),
        lambda d: d["input_sets"][1].update(b=10**400),  # too large for a float
        lambda d: d["input_sets"][0].update(a=True),  # a breakpoint is a JSON number
        lambda d: d["output_sets"][0].update(b=" 30 "),
        lambda d: d["output_sets"][0].update(c="1e2"),
    ],
)
def test_config_json_rejects_nonfinite_breakpoints_and_bad_resolution(mutate):
    doc = json.loads(config_json(default_config(histogram(TWO_LEVEL))))
    mutate(doc)
    with pytest.raises(ValueError):
        FuzzyConfig.from_json(json.dumps(doc))


def test_config_json_deeply_nested_document_is_value_error():
    with pytest.raises(ValueError, match="malformed fuzzy config"):
        FuzzyConfig.from_json("[" * 100_000 + "]" * 100_000)


_CONFIG_KEYS = st.sampled_from(["input_sets", "output_sets", "resolution", "a", "b", "c"])
_json_documents = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_CONFIG_KEYS | st.text(max_size=4), children, max_size=4),
    max_leaves=24,
)
_config_like = st.fixed_dictionaries(
    {
        "input_sets": st.lists(st.dictionaries(_CONFIG_KEYS, _json_documents), max_size=4),
        "output_sets": st.lists(st.dictionaries(_CONFIG_KEYS, _json_documents), max_size=4),
    },
    optional={"resolution": _json_documents},
)


@given(st.one_of(_json_documents.map(json.dumps), _config_like.map(json.dumps), st.text()))
@settings(max_examples=300)
def test_config_from_arbitrary_json_raises_only_value_error(text):
    try:
        FuzzyConfig.from_json(text)
    except ValueError:
        pass


def test_config_resolution_bounds_are_inclusive():
    sets = default_config(histogram(TWO_LEVEL)).input_sets, full_range_outputs()
    assert FuzzyConfig(*sets, resolution=2).resolution == 2
    assert FuzzyConfig(*sets, resolution=65536).resolution == 65536


# ---------------------------------------------------------------------------
# the whole-table LUT compiler against its references
# ---------------------------------------------------------------------------


def _span_lut(lo, hi):
    img = GrayImage.from_flat(2, 1, [lo, hi])
    return compile_lut(histogram(img), "fuzzy").map.tolist()


def _sampled_spans():
    spans = {(lo, lo + d) for d in range(4) for lo in range(256 - d)}
    spans |= {(0, hi) for hi in range(256)} | {(lo, 255) for lo in range(256)}
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        lo, hi = sorted(int(v) for v in rng.integers(0, 256, size=2))
        spans.add((lo, hi))
    return sorted(spans)


def test_default_fuzzy_lut_matches_exact_oracle_on_sampled_spans():
    mismatched = [s for s in _sampled_spans() if _span_lut(*s) != bruteforce.fuzzy_default_map(*s)]
    assert mismatched == []


@pytest.mark.slow
def test_default_fuzzy_lut_matches_exact_oracle_on_every_span():
    spans = [(lo, hi) for lo in range(256) for hi in range(lo, 256)]
    assert len(spans) == 32896
    mismatched = [s for s in spans if _span_lut(*s) != bruteforce.fuzzy_default_map(*s)]
    assert mismatched == []


# ---------------------------------------------------------------------------
# the shipped table of default LUTs, one per range width
# ---------------------------------------------------------------------------


def test_default_lut_matches_the_sampled_compile_at_both_ends_of_every_width():
    mismatched = []
    for width in range(2, 256):
        for lo in (0, 255 - width):
            hist = histogram(GrayImage.from_flat(2, 1, [lo, lo + width]))
            if compile_lut(hist, "fuzzy") != fuzzy_lut(default_config(hist)):
                mismatched.append((lo, lo + width))
    assert mismatched == []


breakpoints = st.one_of(
    st.integers(-40, 300).map(float),
    st.floats(-40, 300, allow_nan=False, allow_infinity=False),
)
membership_functions = st.tuples(breakpoints, breakpoints, breakpoints).map(
    lambda abc: MembershipFunction(*sorted(abc))
)


@given(
    st.tuples(membership_functions, membership_functions, membership_functions),
    st.tuples(membership_functions, membership_functions, membership_functions),
    st.integers(2, 1024),
)
@settings(max_examples=60, deadline=None)
def test_fuzzy_lut_matches_per_level_composition(inputs, outputs, resolution):
    cfg = FuzzyConfig(inputs, outputs, resolution)
    assert fuzzy_lut(cfg).map.tolist() == bruteforce.fuzzy_per_level_map(cfg)


def test_fuzzy_lut_matches_per_level_composition_on_a_near_half_config():
    # only the mid rule fires at levels 30, 132 and 136, so the exact
    # centroid there is 127.5; a BLAS block product once gave 127 at
    # level 30 where one level's own sums gave 128
    cfg = FuzzyConfig(
        (MembershipFunction(0, 0, 1), MembershipFunction(23, 69, 143), MembershipFunction(254, 255, 255)),
        full_range_outputs(),
        18,
    )
    lut = fuzzy_lut(cfg).map.tolist()
    assert lut == bruteforce.fuzzy_per_level_map(cfg)
    assert lut[30] == lut[132] == lut[136]


def test_fuzzy_lut_memory_is_bounded_at_max_resolution():
    cfg = FuzzyConfig(default_config(histogram(TWO_LEVEL)).input_sets, full_range_outputs(), _BLOCK)
    # one level's row of `_BLOCK` aggregate samples at a time
    assert traced_peak(fuzzy_lut, cfg) < 8 * 2**20
    lut = fuzzy_lut(cfg)
    assert lut.map[100] < 100 < 150 < lut.map[150]
