"""Build every checked-in generated file and compare it, or rewrite it:
the golden outputs of the contrastkit CLI and the default fuzzy LUT table.

Each case is one `contrastkit.cli.main(argv)` call in a scratch directory,
with relative paths so that messages do not depend on where it runs. The
manifest records its exit code, stdout, stderr and the SHA-256 of every
file it writes. The inputs are seeded `synth` images (themselves cases),
a few hand-written P2 files and hand-written headers that probe the PGM
header grammar. The `report corpus` CSV is also kept in readable form as
report.csv, the paper's comparison table.

Inside an image's intensity range [lo, hi] the default-config fuzzy LUT
depends only on the span width w = hi - lo; outside it is the identity.
src/contrastkit/fuzzy_default.bin holds, for each width w in 2..255, the
w + 1 outputs of levels lo..hi, starting at byte w(w + 1)/2 - 3: 32,893
bytes in all. Each table is `bruteforce.fuzzy_default_map(0, w)[: w + 1]`,
which rounds the exact centroid in integer arithmetic.

    python tests/golden/regen.py           # compare; exit 1 on any difference
    python tests/golden/regen.py --write   # rewrite fuzzy_default.bin, manifest.json and report.csv
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

MANIFEST = Path(__file__).with_name("manifest.json")
REPORT = Path(__file__).with_name("report.csv")
TABLE = Path(__file__).resolve().parents[2] / "src" / "contrastkit" / "fuzzy_default.bin"
METHODS = ("he", "bbhe", "mmbebhe", "fuzzy")

# name -> (width, height, lo, hi, seed): spans 0, 1, 2, 56 and 255
SYNTH_INPUTS = {
    "span0.pgm": (48, 48, 128, 128, 1),
    "span1.pgm": (64, 48, 100, 101, 2),
    "span2.pgm": (56, 72, 10, 12, 3),
    "span56.pgm": (96, 64, 100, 156, 4),
    "span255.pgm": (96, 96, 0, 255, 5),
}

HAND_INPUTS = {
    "comments.pgm": b"P2\n# made by hand\n4 3 # width height\n255\n"
    b"10 20 30 40 # first row\n# a whole comment line\n50 60 70 80\n90 100 110 120\n",
    "maxval15.pgm": b"P2\n5 2\n15\n0 3 7 11 15\n1 1 2 2 9\n",
    "crlf.pgm": b"P2\r\n3 3\r\n255\r\n100 101 102\r\n110 111 112\r\n120 121 130\r\n",
    "badmagic.pgm": b"P3\n1 1\n255\n0\n",
    "truncated.pgm": b"P5\n4 4\n255\n\x00\x01\x02",
    "oversample.pgm": b"P2\n2 1\n15\n3 16\n",
}

# The header grammar: fields are runs of bytes other than ASCII whitespace
# and `#`, and a comment ends at the next CR or LF. These decode...
HEADER_INPUTS = {
    "hdr_comments_p2.pgm": b"P2#cr\r3#lf\n2#crlf\r\n255#\n1 2 3\n4 5 6\n",
    "hdr_comments_p5.pgm": b"P5#cr\r3#lf\n2#crlf\r\n255\n\x01\x02\x03\x04\x05\x06",
    "hdr_tab_vt_ff_p2.pgm": b"P2\x0c3\t2\x0b255\x0c1\t2\x0b3\x0c4 5 6\n",
    "hdr_tab_vt_ff_p5.pgm": b"P5\t3\x0b2\x0c255\t\x07\x08\x09\x0a\x0b\x0c",
    "hdr_leading_zeros.pgm": b"P2 0003 002 000255\n0 128 255 9 99 199\n",
}
# ... and these fail, each with its own message.
BAD_HEADER_INPUTS = {
    "hdr_comment_after_maxval.pgm": b"P5 2 1 255#x\n\x01\x02",
    "hdr_eof.pgm": b"P5 3 2 # no maxval",
    "hdr_bad_height.pgm": b"P2 3 2x 255\n",
    "hdr_19_digit_width.pgm": b"P5 1000000000000000000 1 255\n",
    "hdr_zero_dimension.pgm": b"P5 3 0 255\n",
    "hdr_maxval0.pgm": b"P2 1 1 0\n0\n",
    "hdr_maxval256.pgm": b"P2 1 1 256\n0\n",
    "hdr_nbsp.pgm": b"P2 1\xa01 255\n0\n",
}

FUZZY_CONFIG = {
    "input_sets": [
        {"a": 100.0, "b": 100.0, "c": 128.0},
        {"a": 100.0, "b": 128.0, "c": 156.0},
        {"a": 128.0, "b": 156.0, "c": 156.0},
    ],
    "output_sets": [
        {"a": 0.0, "b": 0.0, "c": 127.0},
        {"a": 0.0, "b": 127.0, "c": 255.0},
        {"a": 127.0, "b": 255.0, "c": 255.0},
    ],
    "resolution": 64,
}

# input sets over [110, 146] only: the levels of span56 outside them fire
# no rule and pass through
NARROW_CONFIG = {
    "input_sets": [
        {"a": 110.0, "b": 110.0, "c": 128.0},
        {"a": 110.0, "b": 128.0, "c": 146.0},
        {"a": 128.0, "b": 146.0, "c": 146.0},
    ],
    "output_sets": [
        {"a": 0.0, "b": 0.0, "c": 128.0},
        {"a": 64.0, "b": 128.0, "c": 192.0},
        {"a": 128.0, "b": 255.0, "c": 255.0},
    ],
    "resolution": 100,
}

CONFIG_INPUTS = {
    "fuzzy.json": json.dumps(FUZZY_CONFIG).encode("ascii"),
    "narrow.json": json.dumps(NARROW_CONFIG).encode("ascii"),
    "notjson.json": b"{input_sets",
    "badvalues.json": json.dumps({**FUZZY_CONFIG, "resolution": 1}).encode("ascii"),
}


def cases() -> list[tuple[str, list[str], list[str]]]:
    """(name, argv, output files) of every case, in run order."""
    out = []
    for name, (w, h, lo, hi, seed) in SYNTH_INPUTS.items():
        argv = f"synth {name} --width {w} --height {h} --lo {lo} --hi {hi} --seed {seed}"
        out.append((f"synth {name}", argv.split(), [name]))
    out.append(("synth default range", "synth default.pgm --width 7 --height 5".split(), ["default.pgm"]))

    for method in METHODS:
        for fmt in ("P2", "P5"):
            dst = f"span56.{method}.{fmt}.pgm"
            argv = f"enhance span56.pgm {dst} --method {method} --format {fmt}"
            out.append((f"enhance {method} {fmt}", argv.split(), [dst]))
    corpus = list(SYNTH_INPUTS) + ["comments.pgm", "maxval15.pgm", "crlf.pgm"]
    for src in (n for n in corpus if n != "span56.pgm"):
        for method in METHODS:
            dst = f"{src[:-4]}.{method}.pgm"
            out.append((f"enhance {method} {src}", ["enhance", src, dst, "--method", method], [dst]))
    argv = "enhance span56.pgm span56.cfg.pgm --method fuzzy --fuzzy-config fuzzy.json"
    out.append(("enhance fuzzy config", argv.split(), ["span56.cfg.pgm"]))
    argv = "enhance span56.pgm span56.narrow.pgm --method fuzzy --fuzzy-config narrow.json"
    out.append(("enhance fuzzy narrow config", argv.split(), ["span56.narrow.pgm"]))
    for src in HEADER_INPUTS:
        dst = f"{src[:-4]}.he.pgm"
        argv = ["enhance", src, dst, "--method", "he", "--format", "P2"]
        out.append((f"header: {src}", argv, [dst]))

    argv = ["report", *corpus, "--methods", ",".join(METHODS), "--output", "report.csv"]
    out.append(("report corpus", argv, ["report.csv"]))
    argv = "report span56.pgm span255.pgm --methods fuzzy,he --fuzzy-config fuzzy.json --output report.cfg.csv"
    out.append(("report fuzzy config", argv.split(), ["report.cfg.csv"]))
    argv = "report span56.pgm badmagic.pgm missing.pgm --methods bbhe --output partial.csv"
    out.append(("report skips bad inputs", argv.split(), ["partial.csv"]))

    out.append(("metrics pair", "metrics span56.pgm span56.he.P5.pgm".split(), []))
    out.append(("metrics identical", "metrics crlf.pgm crlf.pgm".split(), []))
    out.append(("metrics P2 against P5", "metrics span56.he.P2.pgm span56.he.P5.pgm".split(), []))
    for src in ("span56", "maxval15"):
        dst = f"{src}.hist.csv"
        out.append((f"histogram {src}", ["histogram", f"{src}.pgm", dst], [dst]))

    usage = {
        "synth lo above hi": "synth u.pgm --width 4 --height 4 --lo 9 --hi 8",
        "synth hi out of range": "synth u.pgm --width 4 --height 4 --hi 256",
        "synth lo out of range": "synth u.pgm --width 4 --height 4 --lo -1",
        "synth zero width": "synth u.pgm --width 0 --height 4",
        "synth over pixel cap": "synth u.pgm --width 16385 --height 16384",
        "report empty methods": "report span56.pgm --methods , --output u.csv",
        "report unknown method": "report span56.pgm --methods he,clahe --output u.csv",
    }
    out += [(f"usage: {name}", argv.split(), []) for name, argv in usage.items()]

    errors = {
        "enhance missing input": "enhance missing.pgm e.pgm --method he",
        "enhance bad magic": "enhance badmagic.pgm e.pgm --method he",
        "enhance truncated": "enhance truncated.pgm e.pgm --method bbhe",
        "enhance sample over maxval": "enhance oversample.pgm e.pgm --method mmbebhe",
        "enhance config not json": "enhance span56.pgm e.pgm --method fuzzy --fuzzy-config notjson.json",
        "enhance config bad values": "enhance span56.pgm e.pgm --method fuzzy --fuzzy-config badvalues.json",
        "enhance config missing": "enhance span56.pgm e.pgm --method fuzzy --fuzzy-config missing.json",
        "metrics missing": "metrics span56.pgm missing.pgm",
        "metrics bad magic": "metrics badmagic.pgm span56.pgm",
        "metrics dimension mismatch": "metrics span56.pgm span255.pgm",
        "histogram missing": "histogram missing.pgm h.csv",
        "histogram truncated": "histogram truncated.pgm h.csv",
        "report config not json": "report span56.pgm --methods fuzzy --fuzzy-config notjson.json --output r.csv",
        "report all inputs bad": "report badmagic.pgm --methods he --output r.csv",
        # the output path names a directory: one failed write per writing command
        "enhance write fails": "enhance span56.pgm outdir --method he",
        "report write fails": "report span56.pgm --methods he --output outdir",
        "histogram write fails": "histogram span56.pgm outdir",
        "synth write fails": "synth outdir --width 4 --height 4",
    }
    errors.update({f"header {src}": f"histogram {src} h.csv" for src in BAD_HEADER_INPUTS})
    out += [(f"error: {name}", argv.split(), ["e.pgm", "h.csv", "r.csv"]) for name, argv in errors.items()]
    return out


def table_bytes() -> bytes:
    """The default fuzzy LUT table from the exact oracle, widths 2..255 in order."""
    import bruteforce

    return bytes(v for w in range(2, 256) for v in bruteforce.fuzzy_default_map(0, w)[: w + 1])


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def run_cases(workdir: Path) -> dict:
    """Run every case in `workdir` (an empty directory); returns the manifest."""
    from contrastkit.cli import main

    for name, data in {**HAND_INPUTS, **HEADER_INPUTS, **BAD_HEADER_INPUTS, **CONFIG_INPUTS}.items():
        (workdir / name).write_bytes(data)
    (workdir / "outdir").mkdir()
    results = {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv, outputs in cases():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            results[name] = {
                "argv": argv,
                "exit": code,
                "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(),
                "files": {out: _digest(Path(out)) for out in outputs},
            }
        # no case leaves a stray file behind, such as a temporary
        results["files left in the directory"] = sorted(os.listdir("."))
    finally:
        os.chdir(previous)
    return results


def dumps(manifest: dict) -> str:
    return json.dumps(manifest, indent=1, sort_keys=False) + "\n"


def main(argv: list[str] | None = None) -> int:
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite every generated file from this run")
    args = parser.parse_args(argv)
    table = table_bytes()
    if args.write:  # first, as the default fuzzy cases read it
        TABLE.write_bytes(table)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = dumps(run_cases(Path(tmp))).encode("utf-8")
        files = {TABLE: table, MANIFEST: manifest, REPORT: (Path(tmp) / "report.csv").read_bytes()}
    names = ", ".join(path.name for path in files)
    if args.write:
        for path, data in files.items():
            path.write_bytes(data)
        print(f"wrote {names}")
        return 0
    differ = [path.name for path, data in files.items() if not path.is_file() or path.read_bytes() != data]
    if differ:
        print(f"this run differs from {', '.join(differ)}", file=sys.stderr)
        return 1
    print(f"{names} match this run")
    return 0


if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(root / "src"), str(root / "tests")]  # the package and the exact oracles
    sys.exit(main())
