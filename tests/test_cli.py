import csv
import io
import json
from itertools import islice

import numpy as np
import pytest

from contrastkit import (
    FuzzyConfig,
    GrayImage,
    apply_lut,
    default_config,
    fuzzy_lut,
    load_pgm,
    save_pgm,
)
from contrastkit.cli import _SYNTH_BLOCK, generate_uniform_image, main

from bruteforce import splitmix64

FOUR_LEVELS = GrayImage.from_flat(2, 2, [0, 64, 128, 255])


def write_pgm(path, img, fmt="P5"):
    path.write_bytes(save_pgm(img, fmt))
    return str(path)


# ---------------------------------------------------------------------------
# enhance
# ---------------------------------------------------------------------------


def test_enhance_he(tmp_path, capsys):
    src = write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)
    dst = tmp_path / "out.pgm"
    assert main(["enhance", src, str(dst), "--method", "he"]) == 0
    assert load_pgm(dst.read_bytes()).pixels.ravel().tolist() == [64, 128, 191, 255]
    out = capsys.readouterr().out
    assert "he" in out and "2x2" in out


def test_enhance_fuzzy_constant_is_identity(tmp_path):
    img = GrayImage(np.full((3, 3), 90, dtype=np.uint8))
    src = write_pgm(tmp_path / "in.pgm", img)
    dst = tmp_path / "out.pgm"
    assert main(["enhance", src, str(dst), "--method", "fuzzy"]) == 0
    assert load_pgm(dst.read_bytes()) == img


def test_enhance_missing_input_exits_2_without_output(tmp_path, capsys):
    dst = tmp_path / "out.pgm"
    code = main(["enhance", str(tmp_path / "missing.pgm"), str(dst), "--method", "he"])
    assert code == 2
    assert not dst.exists()
    assert "error" in capsys.readouterr().err


def test_enhance_invalid_pgm_exits_2(tmp_path, capsys):
    src = tmp_path / "bad.pgm"
    src.write_bytes(b"P7\nnot a pgm\n")
    code = main(["enhance", str(src), str(tmp_path / "out.pgm"), "--method", "he"])
    assert code == 2
    assert "magic" in capsys.readouterr().err


def test_enhance_oversized_p2_sample_exits_2(tmp_path, capsys):
    src = tmp_path / "huge.pgm"
    src.write_bytes(b"P2\n1 1\n255\n99999999999999999999999\n")
    dst = tmp_path / "out.pgm"
    code = main(["enhance", str(src), str(dst), "--method", "he"])
    assert code == 2
    assert not dst.exists()
    err = capsys.readouterr().err
    assert "pixel sample 99999999999999999999999 exceeds declared maxval 255" in err
    assert "Traceback" not in err


def test_enhance_unknown_method_is_usage_error(tmp_path, capsys):
    src = write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)
    code = main(["enhance", src, str(tmp_path / "out.pgm"), "--method", "clahe"])
    assert code == 1


def test_enhance_p2_output_format(tmp_path):
    src = write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)
    dst = tmp_path / "out.pgm"
    assert main(["enhance", src, str(dst), "--method", "he", "--format", "P2"]) == 0
    assert dst.read_bytes().startswith(b"P2\n")


def test_enhance_all_methods_run(tmp_path):
    src = write_pgm(tmp_path / "in.pgm", generate_uniform_image(16, 16, 80, 170, 3))
    for method in ("he", "bbhe", "mmbebhe", "fuzzy"):
        assert main(["enhance", src, str(tmp_path / f"{method}.pgm"), "--method", method]) == 0


def test_enhance_with_custom_fuzzy_config(tmp_path):
    img = generate_uniform_image(8, 8, 100, 150, 11)
    src = write_pgm(tmp_path / "in.pgm", img)
    cfg = default_config(img)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    dst = tmp_path / "out.pgm"
    assert main(["enhance", src, str(dst), "--method", "fuzzy", "--fuzzy-config", str(cfg_path)]) == 0
    expected = apply_lut(img, fuzzy_lut(img, FuzzyConfig.from_json(cfg_path.read_text())))
    assert load_pgm(dst.read_bytes()) == expected


def test_enhance_bad_fuzzy_config_exits_2(tmp_path, capsys):
    src = write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"input_sets": []}))
    code = main(["enhance", src, str(tmp_path / "out.pgm"), "--method", "fuzzy",
                 "--fuzzy-config", str(cfg_path)])
    assert code == 2


INVALID_CONFIG_EDITS = [
    ("resolution", 2.9),
    ("resolution", 1e12),
    ("resolution", True),
    ("breakpoint", float("-inf")),
]


def write_invalid_config(path, edit):
    field, value = edit
    doc = json.loads(default_config(FOUR_LEVELS).to_json())
    if field == "resolution":
        doc["resolution"] = value
    else:
        doc["input_sets"][0]["a"] = value
    path.write_text(json.dumps(doc))  # json writes -Infinity for -inf
    return str(path)


@pytest.mark.parametrize("edit", INVALID_CONFIG_EDITS)
def test_enhance_invalid_fuzzy_config_values_exit_2(tmp_path, capsys, edit):
    src = write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)
    cfg = write_invalid_config(tmp_path / "cfg.json", edit)
    dst = tmp_path / "out.pgm"
    assert main(["enhance", src, str(dst), "--method", "fuzzy", "--fuzzy-config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not dst.exists()


def test_enhance_compile_error_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    def failing_compiler(hist):
        raise ValueError("cannot compile this histogram")

    monkeypatch.setattr("contrastkit.histeq.he_lut", failing_compiler)
    src = write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)
    dst = tmp_path / "out.pgm"
    assert main(["enhance", src, str(dst), "--method", "he"]) == 2
    assert capsys.readouterr().err == "error: cannot compile this histogram\n"
    assert not dst.exists()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_identical_files(tmp_path, capsys):
    src = write_pgm(tmp_path / "a.pgm", FOUR_LEVELS)
    assert main(["metrics", src, src]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header == "mse,psnr,entropy,ambe"
    mse_s, psnr_s, _, ambe_s = row.split(",")
    assert mse_s == "0.0000"
    assert psnr_s == "inf"
    assert ambe_s == "0.0000"


def test_metrics_known_psnr(tmp_path, capsys):
    a = write_pgm(tmp_path / "a.pgm", GrayImage.from_flat(4, 1, [51, 0, 0, 0]))
    b = write_pgm(tmp_path / "b.pgm", GrayImage.from_flat(4, 1, [0, 0, 0, 0]))
    assert main(["metrics", a, b]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert row.split(",")[0] == "650.2500"
    assert row.split(",")[1] == "20.0000"


def test_metrics_dimension_mismatch(tmp_path, capsys):
    a = write_pgm(tmp_path / "a.pgm", FOUR_LEVELS)
    b = write_pgm(tmp_path / "b.pgm", GrayImage.from_flat(3, 3, [0] * 9))
    assert main(["metrics", a, b]) != 0
    err = capsys.readouterr().err
    assert "2x2" in err and "3x3" in err


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_two_images_two_methods(tmp_path):
    img1 = generate_uniform_image(16, 16, 90, 140, 1)
    img2 = generate_uniform_image(16, 16, 110, 160, 2)
    p1 = write_pgm(tmp_path / "one.pgm", img1)
    p2 = write_pgm(tmp_path / "two.pgm", img2)
    out = tmp_path / "report.csv"
    assert main(["report", p1, p2, "--methods", "he,fuzzy", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "image,method,mse,psnr,entropy,ambe"
    assert len(lines) == 5
    labels = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert labels == [(p1, "he"), (p1, "fuzzy"), (p2, "he"), (p2, "fuzzy")]


def test_report_constant_image_degenerate_rows(tmp_path):
    c = 77
    img = GrayImage(np.full((4, 4), c, dtype=np.uint8))
    src = write_pgm(tmp_path / "const.pgm", img)
    out = tmp_path / "report.csv"
    assert main(["report", src, "--methods", "he,bbhe,mmbebhe,fuzzy", "--output", str(out)]) == 0
    rows = {line.split(",")[1]: line.split(",") for line in out.read_text().strip().splitlines()[1:]}
    assert float(rows["he"][5]) == pytest.approx(255 - c)  # HE sends constant to white
    assert float(rows["fuzzy"][2]) == 0.0  # identity fallback
    assert rows["fuzzy"][3] == "inf"
    assert float(rows["bbhe"][2]) == 0.0
    assert float(rows["mmbebhe"][2]) == 0.0


def test_report_empty_methods_is_usage_error(tmp_path, capsys):
    src = write_pgm(tmp_path / "a.pgm", FOUR_LEVELS)
    assert main(["report", src, "--methods", "", "--output", str(tmp_path / "r.csv")]) == 1
    assert main(["report", src, "--methods", "he,nope", "--output", str(tmp_path / "r.csv")]) == 1


def test_report_skips_bad_images_and_exits_3(tmp_path, capsys):
    good = write_pgm(tmp_path / "good.pgm", FOUR_LEVELS)
    missing = str(tmp_path / "missing.pgm")
    out = tmp_path / "report.csv"
    assert main(["report", good, missing, "--methods", "he", "--output", str(out)]) == 3
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2  # header + the good image
    assert good in lines[1]
    assert "missing.pgm" in capsys.readouterr().err


def test_report_deterministic_bytes(tmp_path):
    src = write_pgm(tmp_path / "a.pgm", generate_uniform_image(12, 12, 100, 150, 9))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["report", src, "--methods", "he,bbhe,mmbebhe,fuzzy", "--output", str(out1)]) == 0
    assert main(["report", src, "--methods", "he,bbhe,mmbebhe,fuzzy", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("edit", INVALID_CONFIG_EDITS)
def test_report_invalid_fuzzy_config_values_exit_2(tmp_path, capsys, edit):
    src = write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)
    cfg = write_invalid_config(tmp_path / "cfg.json", edit)
    out = tmp_path / "r.csv"
    code = main(["report", src, "--methods", "fuzzy", "--output", str(out), "--fuzzy-config", cfg])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_report_quotes_paths_with_commas(tmp_path):
    src = write_pgm(tmp_path / "a,b.pgm", FOUR_LEVELS)
    plain = write_pgm(tmp_path / "plain.pgm", FOUR_LEVELS)
    out = tmp_path / "r.csv"
    assert main(["report", src, plain, "--methods", "he", "--output", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert [len(row) for row in rows] == [6, 6, 6]
    assert rows[1][:2] == [src, "he"]
    assert out.read_text().splitlines()[2].startswith(f"{plain},he,")  # no quotes when not needed


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def test_histogram_constant_image(tmp_path):
    img = GrayImage(np.full((3, 3), 7, dtype=np.uint8))
    src = write_pgm(tmp_path / "c.pgm", img)
    out = tmp_path / "hist.csv"
    assert main(["histogram", src, str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "level,count,probability"
    assert len(lines) == 257
    assert lines[1 + 7] == "7,9,1.0"
    assert lines[1] == "0,0,0.0"


def test_histogram_four_levels_and_probability_sum(tmp_path):
    src = write_pgm(tmp_path / "f.pgm", FOUR_LEVELS)
    out = tmp_path / "hist.csv"
    assert main(["histogram", src, str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 256
    nonzero = [(int(l), int(c), float(p)) for l, c, p in rows if int(c) > 0]
    assert nonzero == [(0, 1, 0.25), (64, 1, 0.25), (128, 1, 0.25), (255, 1, 0.25)]
    assert sum(float(p) for _, _, p in rows) == pytest.approx(1.0, abs=1e-9)


def test_histogram_decode_error(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"nope")
    assert main(["histogram", str(bad), str(tmp_path / "h.csv")]) == 2


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_degenerate_range_is_constant(tmp_path):
    out = tmp_path / "c.pgm"
    code = main(["synth", str(out), "--width", "4", "--height", "3",
                 "--lo", "128", "--hi", "128", "--seed", "5"])
    assert code == 0
    img = load_pgm(out.read_bytes())
    assert np.all(img.pixels == 128)
    assert (img.width, img.height) == (4, 3)


def test_synth_same_seed_same_bytes(tmp_path):
    args = ["--width", "16", "--height", "16", "--lo", "100", "--hi", "156", "--seed", "42"]
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    assert main(["synth", str(a)] + args) == 0
    assert main(["synth", str(b)] + args) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_different_seed_differs(tmp_path):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    assert main(["synth", str(a), "--width", "16", "--height", "16", "--seed", "1"]) == 0
    assert main(["synth", str(b), "--width", "16", "--height", "16", "--seed", "2"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_synth_support_and_entropy(tmp_path):
    from contrastkit import entropy

    out = tmp_path / "s.pgm"
    assert main(["synth", str(out), "--width", "64", "--height", "64",
                 "--lo", "100", "--hi", "156", "--seed", "7"]) == 0
    img = load_pgm(out.read_bytes())
    assert int(img.pixels.min()) >= 100
    assert int(img.pixels.max()) <= 156
    assert entropy(img) > 0.0


def test_synth_lo_above_hi_is_usage_error(tmp_path, capsys):
    code = main(["synth", str(tmp_path / "x.pgm"), "--width", "4", "--height", "4",
                 "--lo", "200", "--hi", "100"])
    assert code == 1
    assert "lo" in capsys.readouterr().err


def test_synth_rejects_out_of_range_bounds(tmp_path):
    assert main(["synth", str(tmp_path / "x.pgm"), "--width", "4", "--height", "4",
                 "--lo", "0", "--hi", "300"]) == 1
    assert main(["synth", str(tmp_path / "x.pgm"), "--width", "0", "--height", "4"]) == 1


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "enhance" in capsys.readouterr().out


def test_generator_is_platform_stable():
    # first pixels for seed 0 pinned: catches accidental PRNG changes
    img = generate_uniform_image(4, 1, 0, 255, 0)
    assert img.pixels.ravel().tolist() == [175, 244, 79, 236]


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, 2**64 + 5, -1])
def test_generator_matches_scalar_splitmix64(seed):
    # pixel counts straddle the generator's block size
    shapes = [(255, 257), (256, 256), (_SYNTH_BLOCK + 1, 1), (3 * _SYNTH_BLOCK + 5, 1)]
    assert [w * h for w, h in shapes] == [
        _SYNTH_BLOCK - 1, _SYNTH_BLOCK, _SYNTH_BLOCK + 1, 3 * _SYNTH_BLOCK + 5
    ]
    stream = list(islice(splitmix64(seed), 3 * _SYNTH_BLOCK + 5))
    for width, height in shapes:
        for lo, hi in [(77, 77), (0, 255)]:
            img = generate_uniform_image(width, height, lo, hi, seed)
            expected = [lo + x % (hi - lo + 1) for x in stream[: width * height]]
            assert img.pixels.ravel().tolist() == expected, (width, height, lo, hi)
