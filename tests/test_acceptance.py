"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import functools
import inspect
import math
import time

import numpy as np
import pytest

import contrastkit as ck
from contrastkit.cli import generate_uniform_image, main

import bruteforce


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({title}): FAIL")
                raise
            print(f"criterion {number} ({title}): PASS [{time.perf_counter() - start:.2f}s]")

        return wrapper

    return decorate


def entropy(img):
    """The entropy of `img`, which a report measures on its processed image."""
    return ck.evaluate(img, img).entropy


def random_image(rng, max_side=16):
    w = int(rng.integers(1, max_side + 1))
    h = int(rng.integers(1, max_side + 1))
    return ck.GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))


# ---------------------------------------------------------------------------


@criterion(1, "published MSE/PSNR pairs are internally consistent")
def test_published_mse_psnr_consistency():
    # The published comparison table's PSNR column matches a 256^2 peak
    # numerator to within 0.01 dB, while the stated formula's 255^2 peak
    # lands within 0.05 dB. The library implements the formula (255^2);
    # this test documents that the two readings disagree by ~0.034 dB.
    pairs = [(2813.79, 13.67), (2511.28, 14.17), (4398.53, 11.73), (2486.88, 14.21)]
    for mse_val, psnr_val in pairs:
        via_256 = 10 * math.log10(256**2 / mse_val)
        via_255 = 10 * math.log10(255**2 / mse_val)
        assert abs(via_256 - psnr_val) <= 0.01
        assert abs(via_255 - psnr_val) <= 0.05
    # the library implements the 255^2 formula
    assert ck.metrics.PSNR_PEAK_SQ == 255.0**2
    a = ck.GrayImage.from_flat(4, 1, [51, 0, 0, 0])
    b = ck.GrayImage.from_flat(4, 1, [0, 0, 0, 0])
    rep = ck.evaluate(a, b)
    assert rep.psnr == 10 * math.log10(255**2 / rep.mse)


@criterion(2, "equalize matches an independent brute force on 1000 images")
def test_he_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    for _ in range(1000):
        img = random_image(rng)
        flat = img.pixels.ravel().tolist()
        expected = bruteforce.apply_map(
            bruteforce.he_map(bruteforce.tally_histogram(flat)), flat
        )
        assert ck.enhance(img, "he").pixels.ravel().tolist() == expected


@criterion(3, "HE LUT monotone, maps top occupied level to 255, on 1000 histograms")
def test_he_lut_monotonicity_and_range():
    rng = np.random.default_rng(31337)
    for _ in range(1000):
        counts = rng.integers(0, 40, size=256, dtype=np.int64)
        counts[rng.random(256) < rng.uniform(0.2, 0.95)] = 0
        if counts.sum() == 0:
            counts[int(rng.integers(256))] = 1
        hist = ck.Histogram(counts)
        lut = ck.compile_lut(hist, "he").map.astype(np.int64)
        assert np.all(np.diff(lut) >= 0)
        assert lut[np.flatnonzero(counts)[-1]] == 255


@criterion(4, "MMBEBHE dominates BBHE and matches the materialization oracle")
def test_mmbebhe_dominance_and_threshold():
    rng = np.random.default_rng(404)
    for _ in range(200):
        img = ck.GrayImage(rng.integers(0, 256, size=(16, 16), dtype=np.uint8))
        mm, bb = (ck.evaluate(img, ck.enhance(img, m)).ambe for m in ("mmbebhe", "bbhe"))
        assert mm <= bb + 1e-12
        got = ck.mmbebhe_threshold(ck.histogram(img))
        assert got == bruteforce.min_mean_error_threshold(img.pixels.ravel())


@criterion(5, "metric identities hold over 500+ random cases")
def test_metric_identities():
    # exact anchors
    assert ck.evaluate(
        ck.GrayImage.from_flat(2, 1, [0, 255]), ck.GrayImage.from_flat(2, 1, [255, 0])
    ).psnr == 0.0
    assert entropy(ck.GrayImage(np.full((7, 3), 19, dtype=np.uint8))) == 0.0
    assert entropy(
        ck.GrayImage.from_flat(16, 16, list(range(256)))
    ) == pytest.approx(8.0, abs=1e-9)

    rng = np.random.default_rng(777)
    for _ in range(500):
        w = int(rng.integers(1, 13))
        h = int(rng.integers(1, 13))
        a = ck.GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
        b = ck.GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
        c = ck.GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))

        ab, ba, ac, bc = ck.evaluate(a, b), ck.evaluate(b, a), ck.evaluate(a, c), ck.evaluate(b, c)

        assert ab.mse == ba.mse
        assert ck.evaluate(a, a).mse == 0.0
        assert (ab.mse == 0.0) == (a == b)

        assert ab.ambe == ba.ambe
        assert ac.ambe <= ab.ambe + bc.ambe + 1e-12

        perm = rng.permutation(256).astype(np.uint8)
        assert entropy(ck.GrayImage(perm[a.pixels])) == pytest.approx(
            entropy(a), abs=1e-12
        )


@criterion(6, "fuzzy pipeline: partition of unity, monotone LUT, centroid anchors")
def test_fuzzy_pipeline_properties():
    # a two-level image fires only the dark rule at its lowest level and
    # only the bright rule at its highest, fully: their LUT entries are
    # the centroids of the full darker and brighter output sets
    lut = ck.fuzzy_lut(ck.default_config(ck.histogram(ck.GrayImage.from_flat(2, 1, [100, 150]))))
    got_dark, got_bright = int(lut.map[100]), int(lut.map[150])
    assert abs(got_dark - 128 / 3) <= 1.0
    assert abs(got_bright - (255 - 128 / 3)) <= 1.0
    # quadrature oracle agrees at the same tolerance
    assert abs(got_dark - bruteforce.triangle_centroid_quadrature(0, 0, 128)) <= 1.0
    assert abs(got_bright - bruteforce.triangle_centroid_quadrature(128, 255, 255)) <= 1.0

    constant = ck.GrayImage(np.full((6, 6), 99, dtype=np.uint8))
    assert ck.enhance(constant, "fuzzy") == constant

    rng = np.random.default_rng(606)
    for _ in range(500):
        lo = int(rng.integers(0, 250))
        hi = int(rng.integers(lo + 2, min(256, lo + 80)))
        img = ck.GrayImage(rng.integers(lo, hi + 1, size=(8, 8), dtype=np.uint8))
        flat = img.pixels.ravel()
        g_min, g_max = int(flat.min()), int(flat.max())
        if g_max - g_min < 2:
            continue
        cfg = ck.default_config(ck.histogram(img))
        levels = np.arange(g_min, g_max + 1, dtype=np.float64)
        sums = sum(mf.sample(levels) for mf in cfg.input_sets)
        assert np.all(np.abs(sums - 1.0) <= 1e-9)
        lut = ck.fuzzy_lut(cfg).map.astype(np.int64)
        assert np.all(np.diff(lut[g_min : g_max + 1]) >= 0)


@criterion(7, "fuzzy enhancement stretches 100 synthetic low-contrast images")
def test_fuzzy_contrast_stretch():
    rng = np.random.default_rng(707)
    entropy_kept = 0
    total = 100
    for i in range(total):
        lo = int(rng.integers(96, 116))
        hi = lo + int(rng.integers(20, 57))
        img = generate_uniform_image(32, 32, lo, min(hi, 255), int(rng.integers(1 << 40)))
        out = ck.enhance(img, "fuzzy")
        in_span = int(img.pixels.max()) - int(img.pixels.min())
        out_span = int(out.pixels.max()) - int(out.pixels.min())
        assert out_span > in_span
        if entropy(out) >= entropy(img) - 0.1:
            entropy_kept += 1
    assert entropy_kept >= 0.9 * total


@criterion(8, "PGM codec round-trips 1000 random images bit-exactly")
def test_codec_round_trip():
    rng = np.random.default_rng(808)
    for _ in range(1000):
        img = random_image(rng)
        assert ck.load_pgm(ck.save_pgm(img, "P5")) == img
        assert ck.load_pgm(ck.save_pgm(img, "P2")) == img


@criterion(9, "synth + report pipeline is complete, in range, and reproducible")
def test_end_to_end_report(tmp_path):
    paths = []
    for i, seed in enumerate((11, 22)):
        p = tmp_path / f"img{i}.pgm"
        code = main(["synth", str(p), "--width", "24", "--height", "24",
                     "--lo", "100", "--hi", "156", "--seed", str(seed)])
        assert code == 0
        paths.append(str(p))

    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    args = paths + ["--methods", "he,bbhe,mmbebhe,fuzzy"]
    assert main(["report"] + args + ["--output", str(out1)]) == 0
    assert main(["report"] + args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "image,method,mse,psnr,entropy,ambe"
    assert len(lines) == 1 + 2 * 4
    for line in lines[1:]:
        _, method, mse_s, psnr_s, entropy_s, ambe_s = line.split(",")
        assert method in ("he", "bbhe", "mmbebhe", "fuzzy")
        assert 0.0 <= float(mse_s) <= 65025.0
        assert psnr_s == "inf" or float(psnr_s) >= 0.0
        assert 0.0 <= float(entropy_s) <= 8.0
        assert 0.0 <= float(ambe_s) <= 255.0


def test_public_names_resolve_and_enhance_is_the_one_entry_point():
    for name in ck.__all__:
        assert hasattr(ck, name), name
    # the per-method wrappers and duplicate statistics that `enhance`,
    # `Histogram.level_sum` and `evaluate_luts` replace, and the per-level
    # fuzzy stages that `fuzzy_lut` compiles, the per-method LUT functions
    # that `compile_lut` replaces, `identity_lut`, which no path used, and
    # the per-method compiler registries that `compile_maps` replaces
    for name in ("equalize", "bbhe", "mmbebhe", "enhance_fuzzy", "mean_intensity", "evaluate_lut",
                 "fuzzify", "infer", "defuzzify_centroid", "he_lut", "bbhe_lut", "mmbebhe_lut", "default_lut",
                 "identity_lut", "LUT_COMPILERS", "lut_compilers"):
        assert name not in ck.__all__ and not hasattr(ck, name), name
    # one compile path: no split-method compiler type, group compile or CLI name list beside it
    for module, name in ((ck.histeq, "_SplitCompiler"), (ck.methods, "LUT_COMPILERS"), (ck.methods, "lut_compilers"),
                         (ck.methods, "_compile_group"), (ck.cli, "METHOD_NAMES")):
        assert not hasattr(module, name), name
    # a fuzzy config enters only through `fuzzy_lut`: the compile path takes no config or LUT
    assert list(inspect.signature(ck.enhance).parameters) == ["img", "method"]
    for compile_stack in (ck.compile_maps, ck.methods._compile_maps):
        assert list(inspect.signature(compile_stack).parameters) == ["names", "counts"]
    # single measures are fields of `evaluate(a, b)`
    for name in ("mse", "psnr", "entropy", "ambe"):
        assert name not in ck.__all__ and not hasattr(ck, name), name
        assert not hasattr(ck.metrics, name), name
    assert not hasattr(ck.Histogram, "cdf")
    assert not hasattr(ck.Histogram, "mean")
    assert not hasattr(ck.FuzzyConfig, "to_json")  # configs are read, never written
    # `fuzzy_lut` builds its membership plane and grid itself
    for name in ("membership_plane", "sample_grid"):
        assert not hasattr(ck.fuzzy, name), name
