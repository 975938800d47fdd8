import argparse
import contextlib
import csv
import errno
import io
import json
import os
import stat
import sys
import threading
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrastkit import (
    FuzzyConfig,
    GrayImage,
    Histogram,
    apply_lut,
    default_config,
    enhance,
    evaluate,
    fuzzy_lut,
    histogram,
    load_pgm,
    save_pgm,
)
from contrastkit import METHODS, cli, histeq, methods
from contrastkit.cli import _REPORT_GROUP, build_parser, generate_uniform_image, main
from contrastkit.image import _BLOCK

from bruteforce import fuzzy_per_level_map, splitmix64
from conftest import config_json, traced_peak

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
    cfg = default_config(histogram(FOUR_LEVELS))  # no input's own default
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config_json(cfg))
    dst = tmp_path / "out.pgm"
    assert main(["enhance", src, str(dst), "--method", "fuzzy", "--fuzzy-config", str(cfg_path)]) == 0
    expected = apply_lut(img, fuzzy_lut(FuzzyConfig.from_json(cfg_path.read_text())))
    assert load_pgm(dst.read_bytes()) == expected


def test_enhance_with_a_fuzzy_config_counts_no_pixels(tmp_path, monkeypatch):
    # a config's LUT depends on no histogram, so the image is not counted
    calls, original = [], methods._level_counts
    monkeypatch.setattr(methods, "_level_counts", lambda pixels: calls.append(pixels.size) or original(pixels))
    img = generate_uniform_image(16, 16, 100, 156, 7)
    src, dst = write_pgm(tmp_path / "in.pgm", img), tmp_path / "out.pgm"
    before = (tmp_path / "in.pgm").read_bytes()
    cfg = default_config(histogram(FOUR_LEVELS))  # no input's own default
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config_json(cfg))
    assert main(["enhance", src, str(dst), "--method", "fuzzy", "--fuzzy-config", str(cfg_path)]) == 0
    assert calls == []
    assert (tmp_path / "in.pgm").read_bytes() == before
    lut = fuzzy_per_level_map(cfg)
    assert load_pgm(dst.read_bytes()).pixels.tolist() == [[lut[v] for v in row] for row in img.pixels.tolist()]
    # the default config is the image's own, from its counts
    assert main(["enhance", src, str(dst), "--method", "fuzzy"]) == 0
    assert calls == [img.size]


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
    doc = json.loads(config_json(default_config(histogram(FOUR_LEVELS))))
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
    def failing_rule(counts, cum):
        raise ValueError("cannot compile this histogram")

    monkeypatch.setitem(histeq._SPLIT_RULES, "he", failing_rule)
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


def test_report_rows_equal_metrics_of_each_enhance_output(tmp_path, capsys, monkeypatch):
    # `report` scores from the level counts alone and `metrics` compares the
    # enhanced image pixel by pixel: each row prints the same four fields.
    # One group of 4 inputs, a full-range, a constant and a P2 one among
    # them, and a repeated method. Each `enhance` writes the library's bytes
    monkeypatch.chdir(tmp_path)
    for argv in ("in.pgm --width 64 --height 48 --lo 90 --hi 140 --seed 3",
                 "c.pgm --width 50 --height 20 --lo 0 --hi 255 --seed 5",
                 "d.pgm --width 30 --height 30 --lo 128 --hi 128 --seed 6"):
        assert main(["synth", *argv.split()]) == 0
    assert main(["enhance", "in.pgm", "out.pgm", "--method", "mmbebhe", "--format", "P2"]) == 0
    inputs, methods = ["in.pgm", "out.pgm", "c.pgm", "d.pgm"], ["mmbebhe", "he", "fuzzy", "he", "bbhe"]
    assert main(["report", *inputs, "--methods", ",".join(methods), "--output", "four.csv"]) == 0
    rows = [line.split(",", 2) for line in (tmp_path / "four.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [[image, m] for image in inputs for m in methods]
    for image, method, scores in rows:
        assert main(["enhance", image, "e.pgm", "--method", method]) == 0
        library = save_pgm(enhance(load_pgm((tmp_path / image).read_bytes()), method), "P5")
        assert (tmp_path / "e.pgm").read_bytes() == library
        capsys.readouterr()
        assert main(["metrics", image, "e.pgm"]) == 0
        assert capsys.readouterr().out == f"mse,psnr,entropy,ambe\n{scores}\n", (image, method)


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


def test_report_skips_an_undecodable_input_whole(tmp_path, capsys):
    # the inputs are compiled and scored as one stack: a bad input in the
    # middle leaves no row of its own and changes no byte of the others'
    good = [
        write_pgm(tmp_path / f"{i}.pgm", generate_uniform_image(9 + i, 7, 40 * i, 40 * i + 100, i))
        for i in range(2)
    ]
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\n" + bytes(3))  # a short raster
    methods = ["--methods", "he,bbhe,mmbebhe,fuzzy,he"]
    out = tmp_path / "report.csv"
    assert main(["report", good[0], str(bad), good[1], *methods, "--output", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"skipping {bad}: truncated")
    singles = []
    for i, path in enumerate(good):
        single = tmp_path / f"single{i}.csv"
        assert main(["report", path, *methods, "--output", str(single)]) == 0
        singles.append(single.read_bytes().split(b"\n", 1)[1])
    header = b"image,method,mse,psnr,entropy,ambe\n"
    assert out.read_bytes() == header + b"".join(singles)


def test_report_compile_error_exits_2_without_output(tmp_path, capsys, monkeypatch):
    def failing_rule(counts, cum):
        raise ValueError("boom")

    monkeypatch.setitem(histeq._SPLIT_RULES, "mmbebhe", failing_rule)
    srcs = [write_pgm(tmp_path / f"{i}.pgm", FOUR_LEVELS) for i in range(2)]
    out = tmp_path / "report.csv"
    assert main(["report", *srcs, "--methods", "he,mmbebhe", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: boom\n"
    assert not out.exists()


def test_report_compiles_a_fuzzy_config_once(tmp_path, monkeypatch):
    calls = []
    original = fuzzy_lut

    def counting_fuzzy_lut(cfg):
        calls.append(cfg)
        return original(cfg)

    monkeypatch.setattr("contrastkit.fuzzy.fuzzy_lut", counting_fuzzy_lut)
    # the config's row stands in for the default maps, which are never computed
    default_maps = []
    monkeypatch.setattr("contrastkit.fuzzy._default_maps", lambda counts: default_maps.append(counts))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_json(default_config(histogram(FOUR_LEVELS))))  # no input's own default
    # two report groups, the second holding an undecodable input and one good one
    imgs = [generate_uniform_image(6, 5, 20 * (i % 8), 90 + 20 * (i % 8), i) for i in range(_REPORT_GROUP + 1)]
    srcs = [write_pgm(tmp_path / f"{i}.pgm", img) for i, img in enumerate(imgs)]
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\n" + bytes(3))  # a short raster
    options = ["--methods", "fuzzy,he", "--fuzzy-config", str(cfg)]
    out = tmp_path / "r.csv"
    argv = ["report", *srcs[:_REPORT_GROUP], str(bad), srcs[-1], *options, "--output", str(out)]
    assert main(argv) == 3
    assert len(calls) == 1
    assert default_maps == []
    expected = fuzzy_lut(FuzzyConfig.from_json(cfg.read_text()))
    rows = out.read_text().splitlines()[1::2]
    assert len(rows) == len(imgs)
    for img, row in zip(imgs, rows):
        assert row.split(",", 2)[2] == cli._SCORES % tuple(evaluate(img, apply_lut(img, expected)))
    # each input's rows are those of its own report, byte for byte
    singles = []
    for src in srcs:
        single = tmp_path / "single.csv"
        assert main(["report", src, *options, "--output", str(single)]) == 0
        singles.append(single.read_bytes().split(b"\n", 1)[1])
    assert out.read_bytes() == b"image,method,mse,psnr,entropy,ambe\n" + b"".join(singles)


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


def test_report_paths_read_back_whole_through_a_csv_reader(tmp_path):
    # a CR, alone or in a CRLF, once went bare and split its row in two
    names = ["a\rb.pgm", "c\r\nd.pgm", "e\nf.pgm", "g,h.pgm", 'say "hi".pgm', "plain.pgm"]
    srcs = [write_pgm(tmp_path / name, FOUR_LEVELS) for name in names]
    out = tmp_path / "r.csv"
    assert main(["report", *srcs, "--methods", "he,fuzzy", "--output", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_bytes().decode("utf-8"), newline="")))
    assert [len(row) for row in rows] == [6] * (1 + 2 * len(srcs))
    assert [row[:2] for row in rows[1:]] == [[src, m] for src in srcs for m in ("he", "fuzzy")]


def test_report_rows_match_a_csv_writer_reference(tmp_path):
    # each row is one format of its scores, and its path one field quoted
    # where it holds a comma, a quote, an LF or a CR. No path here holds a
    # CR, which `csv.writer` leaves bare, so the bytes are those of a
    # `csv.writer` with every score formatted alone. An image all at 255
    # keeps HE's identity, an MSE of 0, so its PSNR is `inf` and its entropy -0.0
    imgs = [generate_uniform_image(9, 7, 40 + 30 * i, 90 + 40 * i, i) for i in range(3)]
    imgs.append(GrayImage(np.full((2, 3), 255, dtype=np.uint8)))
    names = ['say "hi".pgm', "a,b.pgm", "two\nlines.pgm", "plain.pgm"]
    srcs = [write_pgm(tmp_path / name, img) for name, img in zip(names, imgs)]
    methods = ["mmbebhe", "he", "fuzzy", "he", "bbhe"]  # a repeated method, a changed order
    out = tmp_path / "r.csv"
    assert main(["report", *srcs, "--methods", ",".join(methods), "--output", str(out)]) == 0
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["image", "method", "mse", "psnr", "entropy", "ambe"])
    for src, img in zip(srcs, imgs):
        for m in methods:
            writer.writerow([src, m, *(f"{v:.4f}" for v in evaluate(img, enhance(img, m)))])
    assert out.read_bytes() == text.getvalue().encode("utf-8")
    assert f"{srcs[3]},he,0.0000,inf,-0.0000,0.0000\n" in out.read_text()


def test_report_writes_non_ascii_paths_as_utf8(tmp_path):
    src = write_pgm(tmp_path / "\u00e9.pgm", FOUR_LEVELS)
    out = tmp_path / "r.csv"
    assert main(["report", src, "--methods", "he", "--output", str(out)]) == 0
    assert out.read_bytes().decode("utf-8").splitlines()[1].startswith(f"{src},he,")


def test_report_writes_undecodable_path_bytes(tmp_path):
    src = write_pgm(tmp_path / os.fsdecode(b"\xff.pgm"), FOUR_LEVELS)
    out = tmp_path / "r.csv"
    assert main(["report", src, "--methods", "he", "--output", str(out)]) == 0
    assert out.read_bytes().splitlines()[1].startswith(os.fsencode(src) + b",he,")


def test_report_builds_one_histogram_per_input(tmp_path, monkeypatch):
    # each input is counted once, by the one kernel, and neither `report`
    # nor `enhance` builds a `Histogram` object
    calls, built = [], []
    original = sys.modules["contrastkit.image"]._level_counts

    def counting_level_counts(pixels):
        calls.append(pixels.size)
        return original(pixels)

    for name, module in list(sys.modules.items()):
        if name.startswith("contrastkit") and getattr(module, "_level_counts", None) is original:
            monkeypatch.setattr(module, "_level_counts", counting_level_counts)
    post_init = Histogram.__post_init__
    monkeypatch.setattr(Histogram, "__post_init__", lambda self: built.append(post_init(self)))
    srcs = [
        write_pgm(tmp_path / f"{i}.pgm", generate_uniform_image(8 + i, 8, 30 * i, 30 * i + 90, i))
        for i in range(3)
    ]
    out = tmp_path / "r.csv"
    assert main(["report", *srcs, "--methods", "he,bbhe,mmbebhe,fuzzy", "--output", str(out)]) == 0
    assert calls == [64, 72, 80]
    for method in METHODS:
        assert main(["enhance", srcs[0], str(tmp_path / "o.pgm"), "--method", method]) == 0
    assert calls == [64, 72, 80] + [64] * len(METHODS)
    assert built == []
    histogram(GrayImage(np.zeros((2, 2), dtype=np.uint8)))  # the public wrapper still builds one
    assert len(built) == 1


def write_deeply_nested_config(path):
    path.write_text("[" * 100_000 + "]" * 100_000)
    return str(path)


def test_enhance_deeply_nested_fuzzy_config_exits_2(tmp_path, capsys):
    src = write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)
    cfg = write_deeply_nested_config(tmp_path / "cfg.json")
    dst = tmp_path / "out.pgm"
    assert main(["enhance", src, str(dst), "--method", "fuzzy", "--fuzzy-config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not dst.exists()


def test_report_deeply_nested_fuzzy_config_exits_2(tmp_path, capsys):
    src = write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)
    cfg = write_deeply_nested_config(tmp_path / "cfg.json")
    out = tmp_path / "r.csv"
    assert main(["report", src, "--methods", "fuzzy", "--output", str(out), "--fuzzy-config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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
    out = tmp_path / "s.pgm"
    assert main(["synth", str(out), "--width", "64", "--height", "64",
                 "--lo", "100", "--hi", "156", "--seed", "7"]) == 0
    img = load_pgm(out.read_bytes())
    assert int(img.pixels.min()) >= 100
    assert int(img.pixels.max()) <= 156
    assert evaluate(img, img).entropy > 0.0


def test_synth_lo_above_hi_is_usage_error(tmp_path, capsys):
    code = main(["synth", str(tmp_path / "x.pgm"), "--width", "4", "--height", "4",
                 "--lo", "200", "--hi", "100"])
    assert code == 1
    assert "lo" in capsys.readouterr().err


def test_synth_rejects_out_of_range_bounds(tmp_path):
    assert main(["synth", str(tmp_path / "x.pgm"), "--width", "4", "--height", "4",
                 "--lo", "0", "--hi", "300"]) == 1
    assert main(["synth", str(tmp_path / "x.pgm"), "--width", "0", "--height", "4"]) == 1


@pytest.mark.parametrize(
    "width, height",
    [("1000000000", "1000000000"), ("10000000000", "10000000000"), ("16385", "16384")],
)
def test_synth_over_pixel_cap_is_usage_error(tmp_path, capsys, width, height):
    # the cap is checked first, so these sizes allocate nothing
    out = tmp_path / "x.pgm"
    assert main(["synth", str(out), "--width", width, "--height", height]) == 1
    err = capsys.readouterr().err
    assert err == "error: width x height must not exceed 268435456 pixels\n"  # 16384**2
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv",
    [
        ["enhance", "in.pgm", "out.pgm", "--method", "fuzzy", "--format", "P2"],
        ["metrics", "a.pgm", "b.pgm"],
        ["report", "a.pgm", "b.pgm", "--methods", "he,fuzzy", "--output", "r.csv", "--fuzzy-config", "c.json"],
        ["histogram", "in.pgm", "h.csv"],
        ["synth", "s.pgm", "--width", "4", "--height", "3", "--seed", "-1"],
        ["-h"],
        ["synth", "-h"],
        [],
        ["frobnicate"],
        ["enhance", "in.pgm", "out.pgm"],
        ["enhance", "in.pgm", "out.pgm", "--method", "clahe"],
        ["synth", "s.pgm", "--width", "x", "--height", "3"],
        ["enhance", "in.pgm", "out.pgm", "--meth", "he"],
        ["enhance", "a", "b", "--method", "he", "extra"],
        ["metrics", "a", "b", "c"],
        ["report", "a.pgm", "--methods", "he", "--output", "r.csv", "--bogus"],
    ],
    ids=lambda argv: " ".join(argv) or "no argv",
)
def test_main_parses_as_the_top_level_parser_does(monkeypatch, capsys, argv):
    # main hands a command's arguments to that command's own parser; what it
    # prints and returns, and the namespace a command gets, stay the top level's
    commands = next(a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = []
    for command in commands.values():
        monkeypatch.setitem(command._defaults, "func", lambda args: parsed.append(vars(args)) or 0)
    got = (main(list(argv)), *capsys.readouterr())
    try:
        expected_args = vars(build_parser().parse_args(list(argv)))
        code = 0
    except SystemExit as exc:
        expected_args, code = None, exc.code
    assert got == (code, *capsys.readouterr())
    if expected_args is None:
        assert parsed == []
    else:
        del expected_args["command"]
        assert parsed == [expected_args]


def test_main_reads_sys_argv_when_given_no_argv(tmp_path, monkeypatch, capsys):
    out = tmp_path / "s.pgm"
    monkeypatch.setattr(sys, "argv", ["contrastkit", "synth", str(out), "--width", "4", "--height", "3"])
    assert main() == 0
    assert out.read_bytes() == save_pgm(generate_uniform_image(4, 3, 100, 156, 0), "P5")
    monkeypatch.setattr(sys, "argv", ["contrastkit"])
    assert main() == 1
    assert "the following arguments are required: command" in capsys.readouterr().err


def test_generator_is_platform_stable():
    # first pixels for seed 0 pinned: catches accidental PRNG changes
    img = generate_uniform_image(4, 1, 0, 255, 0)
    assert img.pixels.ravel().tolist() == [175, 244, 79, 236]


@pytest.mark.parametrize("width, height", [(0, 5), (5, 0), (0, 0)])
def test_generator_rejects_an_empty_image(width, height):
    with pytest.raises(ValueError) as exc:
        generate_uniform_image(width, height, 0, 255, 0)
    assert str(exc.value) == f"image dimensions must be >= 1, got {(height, width)}"


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, 2**64 + 5, -1])
def test_generator_matches_scalar_splitmix64(seed):
    # pixel counts straddle the generator's block size
    shapes = [(255, 257), (256, 256), (_BLOCK + 1, 1), (3 * _BLOCK + 5, 1)]
    assert [w * h for w, h in shapes] == [
        _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5
    ]
    stream = list(islice(splitmix64(seed), 3 * _BLOCK + 5))
    for width, height in shapes:
        # spans 1 and 256, and spans that are not powers of two
        for lo, hi in [(77, 77), (0, 255), (10, 12), (100, 156), (0, 254)]:
            img = generate_uniform_image(width, height, lo, hi, seed)
            expected = [lo + x % (hi - lo + 1) for x in stream[: width * height]]
            assert img.pixels.ravel().tolist() == expected, (width, height, lo, hi)


@pytest.mark.parametrize("width, height", [(1024, 1024), (2048, 2048), (4096, 1024)])
def test_generator_memory_is_bounded(width, height):
    # the image itself and a few uint64 block buffers of `_BLOCK` elements
    # each, at any number of blocks
    assert traced_peak(generate_uniform_image, width, height, 0, 255, 7) < width * height + 4 * 8 * _BLOCK


@pytest.mark.parametrize("fmt", ["P5", "P2"])
def test_enhance_writes_its_output_as_it_is_encoded(tmp_path, fmt):
    # the input file, which the decoded image views, the output raster and
    # at most 1 MiB besides: no copy of the whole output is made
    img = generate_uniform_image(2048, 2048, 60, 190, 3)
    src, dst = write_pgm(tmp_path / "in.pgm", img), tmp_path / "out.pgm"
    build_parser()  # once per process: not a cost of the write
    peak = traced_peak(main, ["enhance", src, str(dst), "--method", "he", "--format", fmt])
    assert peak <= os.path.getsize(src) + img.size + (1 << 20)
    assert dst.read_bytes() == save_pgm(enhance(img, "he"), fmt)


def test_synth_writes_its_image_as_it_is_generated(tmp_path):
    # the raster and the generator's temporaries, which share one block
    dst = tmp_path / "out.pgm"
    build_parser()
    assert traced_peak(main, ["synth", str(dst), "--width", "2048", "--height", "2048"]) <= 2048 * 2048 + 8 * _BLOCK
    assert dst.read_bytes() == save_pgm(generate_uniform_image(2048, 2048, 100, 156, 0), "P5")


# ---------------------------------------------------------------------------
# one error boundary: every failure is an exit code, never a traceback
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "{nul}", "--width", "4", "--height", "4"],
        ["histogram", "{nul}", "{out}"],
        ["histogram", "{src}", "{nul}"],
        ["enhance", "{src}", "{nul}", "--method", "he"],
        ["report", "{src}", "--methods", "he", "--output", "{nul}"],
    ],
    ids=["synth output", "histogram input", "histogram output", "enhance output", "report output"],
)
def test_nul_byte_path_exits_2(tmp_path, capsys, argv):
    paths = {"nul": str(tmp_path / "a\0b"), "out": str(tmp_path / "out"),
             "src": write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err == "error: embedded null byte\n"
    assert sorted(os.listdir(tmp_path)) == ["in.pgm"]


# subcommand -> (positional count, options it requires, optional ones)
GRAMMAR = {
    "enhance": (2, ("--method",), ("--fuzzy-config", "--format")),
    "metrics": (2, (), ()),
    "report": (2, ("--methods", "--output"), ("--fuzzy-config",)),
    "histogram": (2, (), ()),
    "synth": (1, ("--width", "--height"), ("--lo", "--hi", "--seed")),
}
NUMBERS = ["0", "3", "-2", "255", "300", "99999999999", "x"]
VALUES = {
    "--method": ["he", "bbhe", "mmbebhe", "fuzzy", "nope"],
    "--methods": ["he,bbhe,mmbebhe,fuzzy", "fuzzy", ",", "he,nope"],
    "--format": ["P2", "P5", "P7"],
    **{flag: NUMBERS for flag in ("--width", "--height", "--lo", "--hi", "--seed")},
}


def _path_pool(root):
    """Write a small pool of good, bad and missing files into `root`; return
    the paths naming them."""
    write_pgm(root / "good.pgm", generate_uniform_image(5, 4, 90, 160, 7))
    write_pgm(root / "flat.pgm", generate_uniform_image(3, 3, 9, 9, 0), "P2")
    (root / "bad.pgm").write_bytes(b"P5\n4 4\n255\n\x00")
    (root / "cfg.json").write_text(config_json(default_config(histogram(FOUR_LEVELS))))
    (root / "badcfg.json").write_text('{"input_sets": [[]]}')
    (root / "dir").mkdir(exist_ok=True)
    names = ["good.pgm", "flat.pgm", "bad.pgm", "cfg.json", "badcfg.json", "dir",
             "missing.pgm", "no/such/out.csv", "nul\0.pgm"]
    return [str(root / name) for name in names] + [os.devnull]


@st.composite
def argvs(draw, paths):
    """A subcommand with its positionals and required options, some optional
    ones, and sometimes a few stray tokens, drawn from the pool."""
    text = st.text(st.characters(exclude_characters="./\\"), max_size=4)
    path = st.one_of(*map(st.just, paths), text)
    command = draw(st.sampled_from(list(GRAMMAR)))
    count, required, optional = GRAMMAR[command]
    argv = [command, *(draw(path) for _ in range(count))]
    for flag in required + tuple(f for f in optional if draw(st.booleans())):
        argv += [flag, draw(st.sampled_from(VALUES[flag]) if flag in VALUES else path)]
    if draw(st.integers(0, 3)):
        return argv
    return argv + draw(st.lists(st.sampled_from([*GRAMMAR, *VALUES, *NUMBERS]) | path, max_size=2))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_main_maps_every_argv_to_an_exit_code(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("argv")
    argv = data.draw(argvs(_path_pool(root)))
    previous = os.getcwd()
    os.chdir(root)  # a drawn relative path lands in the pool directory
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(previous)
    assert code in (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# outputs are replaced whole
# ---------------------------------------------------------------------------


def test_failed_rename_keeps_old_output_and_leaves_no_temporary(tmp_path, capsys, monkeypatch):
    src = write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)
    dst = tmp_path / "out.pgm"
    dst.write_bytes(b"old output")

    def failing_replace(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(["enhance", src, str(dst), "--method", "he"]) == 2
    assert capsys.readouterr().err == f"error: [Errno 28] No space left on device: {str(dst)!r}\n"
    assert dst.read_bytes() == b"old output"
    assert sorted(os.listdir(tmp_path)) == ["in.pgm", "out.pgm"]


@pytest.mark.parametrize("command", ["enhance", "report", "histogram", "synth"])
def test_write_failing_midway_keeps_old_output(tmp_path, capsys, monkeypatch, command):
    src = write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)
    dst = tmp_path / "out"
    dst.write_bytes(b"old output")
    real_open = open

    class HalfWriter:
        def __init__(self, file):
            self.file = file

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, data):
            self.file.write(data[: len(data) // 2])
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(cli, "open", lambda *a: HalfWriter(real_open(*a)), raising=False)
    argv = {
        "enhance": ["enhance", src, str(dst), "--method", "fuzzy"],
        "report": ["report", src, "--methods", "he", "--output", str(dst)],
        "histogram": ["histogram", src, str(dst)],
        "synth": ["synth", str(dst), "--width", "30", "--height", "20"],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: [Errno 5] Input/output error: {str(dst)!r}\n"
    assert dst.read_bytes() == b"old output"
    assert sorted(os.listdir(tmp_path)) == ["in.pgm", "out"]


@pytest.mark.parametrize(
    "output, message",
    [("old.pgm/", "[Errno 20] Not a directory"), ("new/.", "[Errno 2] No such file or directory")],
)
def test_output_path_is_used_as_typed(tmp_path, capsys, monkeypatch, output, message):
    # "old.pgm/" names a folder and "new/." a file in a folder that does
    # not exist: both are refused, as a plain open refuses them
    monkeypatch.chdir(tmp_path)
    write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)
    (tmp_path / "old.pgm").write_bytes(b"old output")
    assert main(["enhance", "in.pgm", output, "--method", "he"]) == 2
    assert capsys.readouterr().err == f"error: {message}: {output!r}\n"
    assert (tmp_path / "old.pgm").read_bytes() == b"old output"
    assert sorted(os.listdir(tmp_path)) == ["in.pgm", "old.pgm"]


NOT_A_DIRECTORY = "[Errno 20] Not a directory: 'in.pgm/'"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["enhance", "in.pgm/", "out", "--method", "he"], 2, f"error: {NOT_A_DIRECTORY}\n"),
        (["metrics", "in.pgm", "in.pgm/"], 2, f"error: {NOT_A_DIRECTORY}\n"),
        (["histogram", "in.pgm/", "out"], 2, f"error: {NOT_A_DIRECTORY}\n"),
        (
            ["enhance", "in.pgm", "out", "--method", "fuzzy", "--fuzzy-config", "cfg.json/"],
            2,
            "error: [Errno 20] Not a directory: 'cfg.json/'\n",
        ),
        (
            ["report", "in.pgm/", "in.pgm", "--methods", "he", "--output", "out"],
            3,
            f"skipping in.pgm/: {NOT_A_DIRECTORY}\n",
        ),
    ],
    ids=["enhance", "metrics", "histogram", "fuzzy-config", "report"],
)
def test_input_path_is_used_as_typed(tmp_path, capsys, monkeypatch, argv, code, err):
    # "in.pgm/" names a folder, not the file in.pgm, as a plain open reads it
    monkeypatch.chdir(tmp_path)
    write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)
    (tmp_path / "cfg.json").write_text(config_json(default_config(histogram(FOUR_LEVELS))))
    assert main(argv) == code
    assert capsys.readouterr().err == err
    if code == 3:  # the other input's rows are still written
        rows = (tmp_path / "out").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["in.pgm", "he"]]
    else:
        assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_an_input_read_from_a_pipe_scores_as_the_file_does(tmp_path, capsys):
    # a pipe's st_size is 0: the input is read whole, not by its size
    src = write_pgm(tmp_path / "in.pgm", generate_uniform_image(64, 48, 90, 140, 3))
    dst = write_pgm(tmp_path / "out.pgm", enhance(load_pgm((tmp_path / "in.pgm").read_bytes()), "bbhe"))
    assert main(["metrics", src, dst]) == 0
    expected = capsys.readouterr().out
    r, w = os.pipe()
    with os.fdopen(w, "wb") as writer:  # 3,085 bytes, within any pipe's buffer
        writer.write((tmp_path / "in.pgm").read_bytes())
    try:
        assert main(["metrics", f"/dev/fd/{r}", dst]) == 0
    finally:
        os.close(r)
    assert capsys.readouterr().out == expected


def test_dev_null_is_a_valid_output(tmp_path, capsys):
    src = write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)
    assert main(["synth", os.devnull, "--width", "4", "--height", "4"]) == 0
    assert main(["enhance", src, os.devnull, "--method", "mmbebhe"]) == 0
    assert main(["report", src, "--methods", "he", "--output", os.devnull]) == 0
    assert main(["histogram", src, os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_output_symlink_is_written_through(tmp_path):
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "image.pgm"
    target.write_bytes(b"old output")
    link = tmp_path / "link.pgm"
    link.symlink_to(os.path.join("real", "image.pgm"))
    assert main(["synth", str(link), "--width", "4", "--height", "3", "--seed", "5"]) == 0
    assert link.is_symlink() and os.readlink(link) == os.path.join("real", "image.pgm")
    assert load_pgm(target.read_bytes()) == generate_uniform_image(4, 3, 100, 156, 5)
    assert sorted(os.listdir(tmp_path / "real")) == ["image.pgm"]


@pytest.mark.parametrize(
    "output, reached",
    [("dirlink/image.pgm", "a/real/image.pgm"), ("dirlink/../out.pgm", "a/out.pgm")],
    ids=["symlinked-folder", "dotdot-after-link"],
)
def test_output_through_a_symlinked_folder_replaces_the_file_open_reaches(tmp_path, monkeypatch, output, reached):
    # the kernel takes "dirlink/.." as the parent of a/real, a, not as the
    # folder that holds the link
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a" / "real").mkdir(parents=True)
    olds = ["a/real/image.pgm", "a/out.pgm", "out.pgm"]
    for name in olds:
        (tmp_path / name).write_bytes(b"old output")
    (tmp_path / "dirlink").symlink_to(os.path.join("a", "real"))
    assert main(["synth", output, "--width", "4", "--height", "3", "--seed", "5"]) == 0
    assert os.readlink("dirlink") == os.path.join("a", "real")
    assert load_pgm((tmp_path / reached).read_bytes()) == generate_uniform_image(4, 3, 100, 156, 5)
    assert [(tmp_path / name).read_bytes() for name in olds if name != reached] == [b"old output"] * 2
    listing = [sorted(os.listdir(folder)) for folder in (".", "a", "a/real")]
    assert listing == [["a", "dirlink", "out.pgm"], ["out.pgm", "real"], ["image.pgm"]]


def test_dangling_output_symlink_creates_its_target(tmp_path):
    link = tmp_path / "link.pgm"
    link.symlink_to(tmp_path / "new.pgm")
    assert main(["synth", str(link), "--width", "2", "--height", "2"]) == 0
    assert link.is_symlink() and (tmp_path / "new.pgm").is_file()


def test_new_output_mode_follows_umask_and_old_mode_is_kept(tmp_path):
    new, old = tmp_path / "new.pgm", tmp_path / "old.pgm"
    old.write_bytes(b"old output")
    old.chmod(0o640)
    umask = os.umask(0o027)
    try:
        for path in (new, old):
            assert main(["synth", str(path), "--width", "2", "--height", "2"]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~0o027
    assert stat.S_IMODE(old.stat().st_mode) == 0o640
    assert load_pgm(old.read_bytes()).size == 4


def test_output_in_an_unwritable_folder_is_written_in_place(tmp_path, monkeypatch):
    # where no temporary file can be made beside it, a writable file is
    # overwritten as a plain write would, not refused
    dst = tmp_path / "out.pgm"
    dst.write_bytes(b"old output")
    real_access = os.access
    monkeypatch.setattr(os, "access", lambda p, mode: p != str(tmp_path) and real_access(p, mode))
    monkeypatch.setattr(os, "replace", None)  # the rename path must not run
    assert main(["synth", str(dst), "--width", "2", "--height", "2"]) == 0
    assert load_pgm(dst.read_bytes()).size == 4
    assert sorted(os.listdir(tmp_path)) == ["out.pgm"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_output_link_to_a_pipe_is_written_into_the_pipe(tmp_path):
    # /dev/stdout is such a link when stdout is a pipe: it is written in place
    src = write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)
    r, w = os.pipe()
    with os.fdopen(r, "rb") as reader:
        try:
            assert main(["report", src, "--methods", "he", "--output", f"/proc/self/fd/{w}"]) == 0
        finally:
            os.close(w)
        assert reader.read().startswith(b"image,method,mse,psnr,entropy,ambe\n")
    assert sorted(os.listdir(tmp_path)) == ["in.pgm"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_multi_block_p2_output_streams_into_a_pipe_whole(tmp_path):
    # six P2 blocks, far more than a pipe holds: read as they are written
    img = generate_uniform_image(300, 300, 60, 190, 4)
    src = write_pgm(tmp_path / "in.pgm", img)
    r, w = os.pipe()
    with os.fdopen(r, "rb") as reader:
        received = []
        thread = threading.Thread(target=lambda: received.append(reader.read()), daemon=True)
        thread.start()
        try:
            assert main(["enhance", src, f"/proc/self/fd/{w}", "--method", "bbhe", "--format", "P2"]) == 0
        finally:
            os.close(w)
            thread.join(timeout=60)
    assert not thread.is_alive() and received == [save_pgm(enhance(img, "bbhe"), "P2")]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_output_link_to_an_open_file_fills_that_file(tmp_path):
    # /dev/stdout when stdout is redirected to a file
    src = write_pgm(tmp_path / "in.pgm", FOUR_LEVELS)
    dst = tmp_path / "out.csv"
    with open(dst, "wb") as f:
        assert main(["histogram", src, f"/proc/self/fd/{f.fileno()}"]) == 0
    assert dst.read_text().startswith("level,count,probability\n0,1,0.25\n")
    assert sorted(os.listdir(tmp_path)) == ["in.pgm", "out.csv"]


def test_output_with_a_250_byte_name(tmp_path):
    dst = tmp_path / ("o" * 250)
    dst.write_bytes(b"old output")
    assert main(["synth", str(dst), "--width", "3", "--height", "2"]) == 0
    assert load_pgm(dst.read_bytes()) == generate_uniform_image(3, 2, 100, 156, 0)
    assert os.listdir(tmp_path) == [dst.name]


def test_replacement_of_a_private_output_is_never_wider(tmp_path, monkeypatch):
    dst = tmp_path / "out.pgm"
    dst.write_bytes(b"old output")
    dst.chmod(0o600)
    seen = []
    real_open = open

    def recording_open(file, *args):
        f = real_open(file, *args)
        if isinstance(file, int):  # the temporary file's descriptor
            real_write = f.write
            f.write = lambda data: seen.append(stat.S_IMODE(os.fstat(file).st_mode)) or real_write(data)
        return f

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    umask = os.umask(0o022)
    try:
        assert main(["synth", str(dst), "--width", "2", "--height", "2"]) == 0
    finally:
        os.umask(umask)
    # one write per chunk of the output, each to a file already private
    assert seen and set(seen) == {0o600} and stat.S_IMODE(dst.stat().st_mode) == 0o600
