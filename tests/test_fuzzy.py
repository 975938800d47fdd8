import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrastkit import (
    FuzzyConfig,
    GrayImage,
    MembershipFunction,
    apply_lut,
    default_config,
    defuzzify_centroid,
    enhance_fuzzy,
    fuzzify,
    fuzzy_lut,
    infer,
)
from contrastkit.fuzzy import membership_plane, sample_grid

import bruteforce
from conftest import low_contrast_images

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


def test_triangle_grades():
    mf = MembershipFunction(50.0, 125.0, 200.0)
    assert mf.grade(125.0) == 1.0
    assert mf.grade(50.0) == 0.0
    assert mf.grade(200.0) == 0.0
    assert mf.grade(87.5) == pytest.approx(0.5)
    assert mf.grade(162.5) == pytest.approx(0.5)
    assert mf.grade(0.0) == 0.0
    assert mf.grade(255.0) == 0.0


def test_left_shoulder_triangle():
    mf = MembershipFunction(50.0, 50.0, 125.0)
    assert mf.grade(50.0) == 1.0
    assert mf.grade(49.0) == 0.0
    assert mf.grade(87.5) == pytest.approx(0.5)


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
        g = mf.grade(x)
        assert 0.0 <= g <= 1.0
        assert s == pytest.approx(g, abs=1e-12)


# ---------------------------------------------------------------------------
# default config / fuzzification
# ---------------------------------------------------------------------------


def test_default_config_breakpoints():
    img = GrayImage.from_flat(2, 1, [50, 200])
    cfg = default_config(img)
    dark, gray, bright = cfg.input_sets
    assert (dark.a, dark.b, dark.c) == (50.0, 50.0, 125.0)
    assert (gray.a, gray.b, gray.c) == (50.0, 125.0, 200.0)
    assert (bright.a, bright.b, bright.c) == (125.0, 200.0, 200.0)
    assert cfg.resolution == 256
    assert not cfg.degenerate


def test_default_config_full_range():
    img = GrayImage.from_flat(2, 1, [0, 255])
    dark, _, bright = default_config(img).input_sets
    assert (dark.a, dark.b, dark.c) == (0.0, 0.0, 127.5)
    assert (bright.a, bright.b, bright.c) == (127.5, 255.0, 255.0)


def test_default_config_degenerate_on_flat_images():
    assert default_config(GrayImage.from_flat(2, 2, [9, 9, 9, 9])).degenerate
    assert default_config(GrayImage.from_flat(2, 1, [9, 10])).degenerate
    assert not default_config(GrayImage.from_flat(2, 1, [9, 11])).degenerate


def test_fuzzify_at_anchors():
    cfg = default_config(GrayImage.from_flat(2, 1, [50, 200]))
    assert fuzzify(50, cfg) == (1.0, 0.0, 0.0)
    assert fuzzify(125, cfg) == (0.0, 1.0, 0.0)
    d, g, b = fuzzify(87.5, cfg)  # halfway between g_min and the midpoint
    assert (d, g, b) == pytest.approx((0.5, 0.5, 0.0))


@given(st.integers(0, 253), st.integers(2, 255), st.data())
def test_partition_of_unity_on_dynamic_range(g_min, span, data):
    g_max = min(255, g_min + span)
    img = GrayImage.from_flat(2, 1, [g_min, g_max])
    cfg = default_config(img)
    g = data.draw(st.integers(g_min, g_max))
    assert sum(fuzzify(g, cfg)) == pytest.approx(1.0, abs=1e-9)


def test_membership_plane_shape_and_bounds():
    cfg = default_config(TWO_LEVEL)
    plane = membership_plane(cfg)
    assert plane.shape == (256, 3)
    assert np.all(plane >= 0.0) and np.all(plane <= 1.0)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


def test_infer_single_full_rule_returns_its_output_set():
    cfg = default_config(TWO_LEVEL)
    grid = sample_grid(cfg.resolution)
    agg = infer((1.0, 0.0, 0.0), cfg)
    assert np.array_equal(agg, cfg.output_sets[0].sample(grid))


def test_infer_nothing_active_is_zero():
    cfg = default_config(TWO_LEVEL)
    assert not np.any(infer((0.0, 0.0, 0.0), cfg))


def test_infer_two_clipped_rules_pointwise():
    cfg = default_config(TWO_LEVEL)
    grid = sample_grid(cfg.resolution)
    agg = infer((0.5, 0.5, 0.0), cfg)
    darker, mid, _ = cfg.output_sets
    for i, x in enumerate(grid):
        expected = max(min(0.5, darker.grade(x)), min(0.5, mid.grade(x)))
        assert agg[i] == pytest.approx(expected, abs=1e-12)


@given(
    st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
)
def test_aggregate_bounded_by_max_activation(triple):
    cfg = default_config(TWO_LEVEL)
    agg = infer(triple, cfg)
    assert np.all(agg >= 0.0)
    assert np.all(agg <= max(triple) + 1e-12)


# ---------------------------------------------------------------------------
# defuzzification
# ---------------------------------------------------------------------------


def test_centroid_symmetric_mid_aggregate_is_128():
    darker, mid, brighter = full_range_outputs()
    grid = sample_grid(256)
    for alpha in (0.2, 0.5, 1.0):
        assert defuzzify_centroid(np.minimum(alpha, mid.sample(grid))) == 128


def test_centroid_of_full_darker_and_brighter_triangles():
    darker, _, brighter = full_range_outputs()
    grid = sample_grid(256)
    got_dark = defuzzify_centroid(darker.sample(grid))
    got_bright = defuzzify_centroid(brighter.sample(grid))
    # frozen sampled-grid values
    assert got_dark == 42
    assert got_bright == 213
    # within one level of the continuous centroids (quadrature oracle)
    assert abs(got_dark - bruteforce.triangle_centroid_quadrature(0, 0, 128)) <= 1.0
    assert abs(got_bright - bruteforce.triangle_centroid_quadrature(128, 255, 255)) <= 1.0


def test_centroid_degenerate_and_invalid_inputs():
    assert defuzzify_centroid(np.zeros(256)) is None
    with pytest.raises(ValueError):
        defuzzify_centroid(np.array([1.0]))


@given(st.lists(st.floats(0, 1), min_size=2, max_size=64).filter(lambda v: sum(v) > 1e-9))
def test_centroid_lies_within_support(values):
    agg = np.array(values)
    result = defuzzify_centroid(agg)
    grid = sample_grid(agg.size)
    support = np.flatnonzero(agg > 0)
    assert grid[support[0]] - 1 <= result <= grid[support[-1]] + 1


# ---------------------------------------------------------------------------
# LUT compilation and end-to-end enhancement
# ---------------------------------------------------------------------------


def test_fuzzy_lut_degenerate_config_is_identity():
    img = GrayImage.from_flat(2, 2, [7, 7, 7, 7])
    lut = fuzzy_lut(img, default_config(img))
    assert lut.method == "IDENTITY"
    assert lut.map.tolist() == list(range(256))


def test_fuzzy_lut_anchor_values():
    cfg = default_config(TWO_LEVEL)
    lut = fuzzy_lut(TWO_LEVEL, cfg)
    assert lut.method == "FUZZY"
    assert lut.map[100] == 42  # full Darker activation
    assert lut.map[150] == 213  # full Brighter activation
    assert lut.map[125] == 128  # midpoint -> symmetric Mid aggregate


def test_fuzzy_lut_outside_range_falls_back_to_identity():
    lut = fuzzy_lut(TWO_LEVEL, default_config(TWO_LEVEL))
    assert lut.map[0] == 0
    assert lut.map[99] == 99
    assert lut.map[151] == 151
    assert lut.map[255] == 255


@given(low_contrast_images())
@settings(max_examples=60, deadline=None)
def test_fuzzy_lut_monotone_on_dynamic_range(img):
    flat = img.pixels.ravel()
    g_min, g_max = int(flat.min()), int(flat.max())
    lut = fuzzy_lut(img, default_config(img)).map.astype(np.int64)
    assert np.all(np.diff(lut[g_min : g_max + 1]) >= 0)


def test_enhance_fuzzy_constant_unchanged():
    img = GrayImage(np.full((5, 3), 77, dtype=np.uint8))
    assert enhance_fuzzy(img) == img


def test_enhance_fuzzy_two_level_stretch():
    out = enhance_fuzzy(TWO_LEVEL)
    levels = sorted(set(out.pixels.ravel().tolist()))
    assert levels == [42, 213]
    assert abs(levels[0] - 128 / 3) <= 2
    assert abs(levels[1] - (255 - 128 / 3)) <= 2
    # dynamic range expands from 50 to about 169
    assert levels[1] - levels[0] > 150


@given(low_contrast_images(min_span=2, max_span=40))
@settings(max_examples=40, deadline=None)
def test_enhance_fuzzy_preserves_dimensions_and_expands_span(img):
    out = enhance_fuzzy(img)
    assert (out.width, out.height) == (img.width, img.height)
    in_span = int(img.pixels.max()) - int(img.pixels.min())
    out_span = int(out.pixels.max()) - int(out.pixels.min())
    assert out_span > in_span


def test_enhance_fuzzy_mid_window_pushes_past_both_ends():
    rng = np.random.default_rng(5)
    for _ in range(10):
        img = GrayImage(rng.integers(100, 157, size=(16, 16), dtype=np.uint8))
        out = enhance_fuzzy(img)
        assert int(out.pixels.min()) < 100
        assert int(out.pixels.max()) > 156


# ---------------------------------------------------------------------------
# config serialization
# ---------------------------------------------------------------------------


def test_config_json_round_trip():
    cfg = default_config(TWO_LEVEL)
    restored = FuzzyConfig.from_json(cfg.to_json())
    assert restored.input_sets == cfg.input_sets
    assert restored.output_sets == cfg.output_sets
    assert restored.resolution == cfg.resolution


def test_config_json_document_shape():
    doc = json.loads(default_config(TWO_LEVEL).to_json())
    assert set(doc) == {"input_sets", "output_sets", "resolution"}
    assert len(doc["input_sets"]) == 3
    assert len(doc["output_sets"]) == 3
    assert all(set(s) == {"a", "b", "c"} for s in doc["input_sets"] + doc["output_sets"])


def test_config_json_resolution_is_optional():
    doc = json.loads(default_config(TWO_LEVEL).to_json())
    del doc["resolution"]
    assert FuzzyConfig.from_json(json.dumps(doc)).resolution == 256


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
    doc = json.loads(default_config(TWO_LEVEL).to_json())
    mutate(doc)
    with pytest.raises(ValueError):
        FuzzyConfig.from_json(json.dumps(doc))


def test_custom_config_drives_the_lut():
    # squeeze the output sets into [64, 192]: enhancement then cannot leave
    # that window
    cfg = FuzzyConfig(
        input_sets=default_config(TWO_LEVEL).input_sets,
        output_sets=(
            MembershipFunction(64.0, 64.0, 128.0),
            MembershipFunction(96.0, 128.0, 160.0),
            MembershipFunction(128.0, 192.0, 192.0),
        ),
    )
    out = apply_lut(TWO_LEVEL, fuzzy_lut(TWO_LEVEL, cfg))
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
    ],
)
def test_config_json_rejects_nonfinite_breakpoints_and_bad_resolution(mutate):
    doc = json.loads(default_config(TWO_LEVEL).to_json())
    mutate(doc)
    with pytest.raises(ValueError):
        FuzzyConfig.from_json(json.dumps(doc))


def test_config_resolution_bounds_are_inclusive():
    sets = default_config(TWO_LEVEL).input_sets, full_range_outputs()
    assert FuzzyConfig(*sets, resolution=2).resolution == 2
    assert FuzzyConfig(*sets, resolution=65536).resolution == 65536


# ---------------------------------------------------------------------------
# the whole-table LUT compiler against its references
# ---------------------------------------------------------------------------


def _span_lut(lo, hi):
    img = GrayImage.from_flat(2, 1, [lo, hi])
    return fuzzy_lut(img, default_config(img)).map.tolist()


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
    lut = fuzzy_lut(TWO_LEVEL, cfg).map
    grid = sample_grid(resolution)
    for g in range(256):
        agg = infer(fuzzify(g, cfg), cfg)
        crisp = defuzzify_centroid(agg)
        expected = g if crisp is None else crisp
        if crisp is not None:
            centroid = float(np.dot(grid, agg)) / float(agg.sum())
            if abs(centroid - np.floor(centroid) - 0.5) < 1e-9:
                assert abs(int(lut[g]) - expected) <= 1
                continue
        assert lut[g] == expected


def test_fuzzy_lut_memory_is_bounded_at_max_resolution():
    cfg = FuzzyConfig(default_config(TWO_LEVEL).input_sets, full_range_outputs(), 65536)
    tracemalloc.start()
    try:
        lut = fuzzy_lut(TWO_LEVEL, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert lut.map[100] < 100 < 150 < lut.map[150]
