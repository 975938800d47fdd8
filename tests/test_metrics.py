import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from contrastkit import (
    METHODS,
    FuzzyConfig,
    GrayImage,
    Histogram,
    IntensityLut,
    MembershipFunction,
    MetricsReport,
    apply_lut,
    compile_lut,
    compile_maps,
    enhance,
    evaluate,
    evaluate_luts,
    fuzzy_lut,
    histogram,
    metrics,
)
from contrastkit.cli import generate_uniform_image
from contrastkit.image import _BLOCK

import bruteforce
from conftest import gray_images, low_contrast_images, pixel_arrays, traced_peak


def img_of(*values):
    return GrayImage.from_flat(len(values), 1, list(values))


def paired_images(max_side=12):
    """Two images with identical dimensions."""
    return pixel_arrays(max_side).flatmap(
        lambda a: st.tuples(
            st.just(GrayImage(a)),
            pixel_arrays(max_side)
            .map(lambda b: b[: a.shape[0], : a.shape[1]])
            .filter(lambda b: b.shape == a.shape)
            .map(GrayImage),
        )
    )


# ---------------------------------------------------------------------------
# MSE
# ---------------------------------------------------------------------------


def test_mse_identical_is_zero():
    a = img_of(3, 7, 250, 0)
    assert evaluate(a, a).mse == 0.0


def test_mse_single_pixel():
    assert evaluate(img_of(0), img_of(10)).mse == 100.0


def test_mse_maximal():
    assert evaluate(img_of(0, 255), img_of(255, 0)).mse == 65025.0


@pytest.mark.parametrize("count", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_mse_is_the_exact_mean_across_block_edges(count):
    a = generate_uniform_image(count, 1, 0, 255, 1)
    b = generate_uniform_image(count, 1, 0, 255, 2)
    exact = sum((x - y) ** 2 for x, y in zip(a.pixels.ravel().tolist(), b.pixels.ravel().tolist()))
    assert evaluate(a, b).mse == exact / count


def test_evaluate_memory_is_bounded_at_2048_squared():
    a = generate_uniform_image(2048, 2048, 0, 255, 3)
    b = generate_uniform_image(2048, 2048, 0, 255, 4)
    diff = a.pixels.astype(np.int64) - b.pixels
    expected_mse = int((diff * diff).sum()) / a.size
    del diff
    assert evaluate(a, b).mse == expected_mse
    # the pixels alone are 8 MiB; each squared-error block holds `_BLOCK` int64
    assert traced_peak(evaluate, a, b) < 4 * 2**20


def test_evaluate_lut_exact_at_the_histogram_total_bound():
    # the largest total with the largest squared error: 65025 * 2**47 < 2**63
    counts = np.zeros(256, dtype=np.int64)
    counts[0] = 2**47
    lut = IntensityLut(np.full(256, 255, dtype=np.uint8))
    rep = evaluate_luts(Histogram(counts), [lut])[0]
    assert (rep.mse, rep.psnr, rep.entropy, rep.ambe) == (65025.0, 0.0, 0.0, 255.0)
    reps = evaluate_luts(Histogram(counts), [lut, IntensityLut(np.arange(256)), lut])
    assert [(r.mse, r.psnr, r.entropy, r.ambe) for r in reps] == [
        (65025.0, 0.0, 0.0, 255.0),
        (0.0, math.inf, 0.0, 0.0),
        (65025.0, 0.0, 0.0, 255.0),
    ]
    # two heavy levels merged into one output bin of exactly 2**47 pixels
    counts[0], counts[255] = 2**46, 2**46
    to_gray = IntensityLut(np.full(256, 128, dtype=np.uint8))
    gray, same = evaluate_luts(Histogram(counts), [to_gray, IntensityLut(np.arange(256))])
    assert (gray.mse, gray.entropy, gray.ambe) == ((128**2 + 127**2) / 2, 0.0, 0.5)
    assert (same.mse, same.entropy, same.ambe) == (0.0, 1.0, 0.0)


def test_mse_dimension_mismatch():
    with pytest.raises(ValueError, match="2x2.*3x3"):
        evaluate(GrayImage.from_flat(2, 2, [0] * 4), GrayImage.from_flat(3, 3, [0] * 9))


@given(gray_images(max_side=8), st.randoms(use_true_random=False))
def test_mse_symmetry_and_identity(img, rnd):
    other = GrayImage.from_flat(
        img.width, img.height, [rnd.randrange(256) for _ in range(img.size)]
    )
    err = evaluate(img, other).mse
    assert err == evaluate(other, img).mse
    assert 0.0 <= err <= 65025.0
    assert (err == 0.0) == (img == other)


# ---------------------------------------------------------------------------
# PSNR
# ---------------------------------------------------------------------------


def test_psnr_of_maximal_mse_is_zero_db():
    assert evaluate(img_of(0, 255), img_of(255, 0)).psnr == 0.0


def test_psnr_identical_is_infinite():
    a = img_of(1, 2, 3)
    assert evaluate(a, a).psnr == math.inf


def test_psnr_ratio_100_is_20_db():
    # Sum of squared diffs 51^2 = 2601 over 4 pixels -> MSE 650.25
    a, b = img_of(51, 0, 0, 0), img_of(0, 0, 0, 0)
    rep = evaluate(a, b)
    assert rep.mse == 650.25
    assert rep.psnr == 20.0


@given(paired_images())
def test_psnr_mse_monotone_coupling(pair):
    a, b = pair
    c = enhance(b, "he")
    (m_ab, p_ab), (m_ac, p_ac) = ((r.mse, r.psnr) for r in (evaluate(a, b), evaluate(a, c)))
    if m_ab < m_ac:
        assert p_ab > p_ac
    elif m_ab > m_ac:
        assert p_ab < p_ac
    else:
        assert p_ab == p_ac


# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------


def entropy(img):
    """The entropy of `img`: the processed image of a report is the one
    whose entropy it measures."""
    return evaluate(img, img).entropy


def test_entropy_constant_is_zero():
    assert entropy(GrayImage(np.full((4, 4), 9, dtype=np.uint8))) == 0.0


def test_entropy_two_equal_levels_is_one_bit():
    assert entropy(img_of(10, 200, 10, 200)) == pytest.approx(1.0, abs=1e-12)


def test_entropy_uniform_256_levels_is_eight_bits():
    img = GrayImage.from_flat(16, 16, list(range(256)))
    assert entropy(img) == pytest.approx(8.0, abs=1e-9)


@given(gray_images())
def test_entropy_bounds_and_constant_iff_zero(img):
    h = entropy(img)
    assert 0.0 <= h <= 8.0
    assert (h == 0.0) == (len(np.unique(img.pixels)) == 1)


@given(gray_images(), st.randoms(use_true_random=False))
def test_entropy_invariant_under_level_permutation(img, rnd):
    perm = list(range(256))
    rnd.shuffle(perm)
    relabeled = GrayImage(np.asarray(perm, dtype=np.uint8)[img.pixels])
    assert entropy(relabeled) == pytest.approx(entropy(img), abs=1e-12)


# ---------------------------------------------------------------------------
# AMBE
# ---------------------------------------------------------------------------


def test_ambe_identical_is_zero():
    a = img_of(5, 100)
    assert evaluate(a, a).ambe == 0.0


def test_ambe_single_pixel():
    assert evaluate(img_of(100), img_of(130)).ambe == 30.0


def test_ambe_dimension_mismatch():
    with pytest.raises(ValueError, match="1x1.*2x1"):
        evaluate(img_of(0), img_of(0, 0))


@given(paired_images())
def test_ambe_symmetry(pair):
    a, b = pair
    assert evaluate(a, b).ambe == evaluate(b, a).ambe
    assert evaluate(a, b).ambe >= 0.0


@given(paired_images())
def test_ambe_triangle_inequality(pair):
    a, b = pair
    c = enhance(a, "he")
    ambe_ac, ambe_ab, ambe_bc = (evaluate(x, y).ambe for x, y in ((a, c), (a, b), (b, c)))
    assert ambe_ac <= ambe_ab + ambe_bc + 1e-12


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def bits(report):
    """The report's fields, with every float as its exact bit pattern."""
    return tuple(float(v).hex() for v in (report.mse, report.psnr, report.entropy, report.ambe))


def test_evaluate_identical_pair():
    a = img_of(10, 20, 30, 40)
    rep = evaluate(a, a)
    assert rep.mse == 0.0
    assert rep.psnr == math.inf
    assert rep.ambe == 0.0
    assert rep.entropy == pytest.approx(2.0, abs=1e-12)  # four equally common levels


@given(paired_images())
def test_evaluate_couples_psnr_to_mse(pair):
    a, b = pair
    rep = evaluate(a, b)
    if rep.mse > 0:
        assert rep.psnr == pytest.approx(10 * math.log10(65025.0 / rep.mse), abs=1e-9)
    else:
        assert rep.psnr == math.inf


@given(paired_images(max_side=24))
def test_evaluate_matches_the_pixel_oracle(pair):
    a, b = pair
    n, sq_err, in_sum, out_sum, counts = bruteforce.pixel_scores(a.pixels.ravel(), b.pixels.ravel())
    rep = evaluate(a, b)
    # a quotient of Python ints is correctly rounded, so MSE and PSNR are exact
    assert rep.mse == sq_err / n
    assert rep.psnr == (math.inf if sq_err == 0 else 10 * math.log10(65025 / (sq_err / n)))
    assert abs(rep.ambe - abs(Fraction(in_sum - out_sum, n))) <= 1e-12
    terms = [c / n * math.log2(c / n) for c in counts if c]
    assert abs(rep.entropy - -math.fsum(terms)) <= 1e-12


@given(low_contrast_images())
def test_evaluate_equalized_low_contrast_in_range(img):
    rep = evaluate(img, enhance(img, "he"))
    assert 0.0 <= rep.mse <= 65025.0
    assert rep.psnr > 0.0 and math.isfinite(rep.psnr) or rep.psnr == math.inf
    assert 0.0 <= rep.entropy <= 8.0
    assert 0.0 <= rep.ambe <= 255.0


# ---------------------------------------------------------------------------
# evaluate_luts of one LUT: scoring from the histogram and the LUT
# ---------------------------------------------------------------------------


def assert_scores_match(img, lut):
    expected = evaluate(img, apply_lut(img, lut))
    assert bits(evaluate_luts(histogram(img), [lut])[0]) == bits(expected)


METHOD_NAMES = sorted(METHODS)


@given(gray_images(max_side=24) | low_contrast_images(), st.sampled_from(METHOD_NAMES))
def test_evaluate_lut_is_bit_identical_to_pixel_path(img, method):
    assert_scores_match(img, compile_lut(histogram(img), method))


_breakpoints = st.floats(-40, 300, allow_nan=False, allow_infinity=False)
_triangles = st.tuples(_breakpoints, _breakpoints, _breakpoints).map(
    lambda abc: MembershipFunction(*sorted(abc))
)
_fuzzy_configs = st.builds(
    FuzzyConfig,
    st.tuples(_triangles, _triangles, _triangles),
    st.tuples(_triangles, _triangles, _triangles),
    st.integers(2, 512),
)


@given(gray_images(max_side=16), _fuzzy_configs)
def test_evaluate_lut_is_bit_identical_for_custom_fuzzy_configs(img, cfg):
    assert_scores_match(img, fuzzy_lut(cfg))


@given(gray_images(max_side=16), pixel_arrays(max_side=16).map(lambda a: a.ravel()))
def test_evaluate_lut_is_bit_identical_for_arbitrary_luts(img, values):
    lut = IntensityLut(np.resize(values, 256))
    assert_scores_match(img, lut)


@pytest.mark.parametrize("method", METHOD_NAMES)
@pytest.mark.parametrize("value", [0, 1, 128, 254, 255])
@pytest.mark.parametrize("shape", [(1, 1), (3, 5)])
def test_evaluate_lut_on_constant_images(method, value, shape):
    img = GrayImage(np.full(shape, value, dtype=np.uint8))
    lut = compile_lut(histogram(img), method)
    assert_scores_match(img, lut)
    rep = evaluate_luts(histogram(img), [lut])[0]
    assert rep.entropy == 0.0
    if method == "fuzzy":  # the identity fallback
        assert (rep.mse, rep.psnr, rep.ambe) == (0.0, math.inf, 0.0)


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_evaluate_lut_is_bit_identical_on_large_images(method):
    rng = np.random.default_rng(404)
    for shape in [(517, 389), (1024, 1024)]:
        img = GrayImage(np.minimum(rng.gamma(3.0, 20.0, size=shape), 255).astype(np.uint8))
        assert_scores_match(img, compile_lut(histogram(img), method))


def test_evaluate_lut_merges_bins_into_integer_counts():
    # a LUT that folds many levels into few: the output histogram's counts
    # are weighted sums, built as exact integers
    img = generate_uniform_image(300, 300, 0, 255, 5)
    lut = IntensityLut((np.arange(256) // 37 * 37).astype(np.uint8))
    assert evaluate_luts(histogram(img), [lut])[0] == evaluate(img, apply_lut(img, lut))


# ---------------------------------------------------------------------------
# evaluate_luts: every LUT of one histogram in one stacked pass
# ---------------------------------------------------------------------------

_constant_luts = st.integers(0, 255).map(lambda v: IntensityLut(np.full(256, v, dtype=np.uint8)))
_random_luts = hnp.arrays(np.uint8, 256).map(IntensityLut)


@st.composite
def images_and_lut_stacks(draw):
    """An image and a stack of its registry LUTs, the identity, constant and
    random LUTs, so that the rows occupy different numbers of levels."""
    img = draw(gray_images(max_side=24) | low_contrast_images())
    hist = histogram(img)
    registry = st.sampled_from(METHOD_NAMES).map(lambda m: compile_lut(hist, m))
    luts = st.one_of(registry, st.just(IntensityLut(np.arange(256))), _constant_luts, _random_luts)
    return img, draw(st.lists(luts, min_size=1, max_size=6))


@given(images_and_lut_stacks())
def test_evaluate_luts_rows_are_bit_identical_to_pixel_path(case):
    img, luts = case
    expected = [bits(evaluate(img, apply_lut(img, lut))) for lut in luts]
    assert [bits(rep) for rep in evaluate_luts(histogram(img), luts)] == expected


def test_evaluate_luts_sums_each_entropy_over_its_own_row():
    # both paths sum each row's entropy over all 256 of its terms, zero
    # where a count is 0, so a sum does not depend on the rows stacked with
    # it; one `np.add.reduceat` over the stack's positive terms changes the
    # pairwise blocking: on NumPy 2.4.6 it is off in the last bit on 15 of
    # these 32 rows, so a rewrite of the stacked path to it fails here
    rng = np.random.default_rng(7)
    img = GrayImage(rng.integers(0, 256, (32, 32), dtype=np.uint8))
    hist = histogram(img)
    luts = [compile_lut(hist, m) for m in METHOD_NAMES]
    luts += [IntensityLut(rng.integers(0, 256, 256, dtype=np.uint8)) for _ in range(28)]
    expected = [evaluate(img, apply_lut(img, lut)).entropy for lut in luts]
    assert [rep.entropy.hex() for rep in evaluate_luts(hist, luts)] == [e.hex() for e in expected]


def test_evaluate_luts_of_no_luts_is_no_reports():
    assert evaluate_luts(histogram(img_of(3, 7)), []) == []
    assert evaluate_luts(histogram(img_of(3, 7)), ()) == []


def test_every_scoring_path_returns_the_one_score_type():
    assert MetricsReport._fields == ("mse", "psnr", "entropy", "ambe")
    img = generate_uniform_image(9, 7, 40, 90, 3)
    hist = histogram(img)
    counts, lut = hist.counts[None], compile_lut(hist, "he")
    reports = [
        evaluate(img, apply_lut(img, lut)),
        *evaluate_luts(hist, [lut]),
        *metrics._evaluate_maps(counts, compile_maps(METHODS, counts)),
    ]
    assert [type(rep) for rep in reports] == [MetricsReport] * (2 + len(METHODS))
    # a stack of no maps scores to no reports
    assert metrics._evaluate_maps(counts, compile_maps([], counts)) == []
