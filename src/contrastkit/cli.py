"""Command-line harness: enhance PGM images, score them, and build reports.

Subcommands:

  enhance    apply one method (he | bbhe | mmbebhe | fuzzy) to a PGM file
  metrics    print the four quality measures for an (original, processed) pair
  report     batch: every image x every method, one CSV row each
  histogram  dump an image's 256-bin histogram as CSV
  synth      write a reproducible pseudo-random low-contrast test image

Exit codes: 0 success, 1 usage error, 2 I/O or decode error, 3 partial
batch failure. All numeric CSV output uses 4 decimal places and a literal
`inf` for the PSNR of a zero MSE; identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

import numpy as np

from . import fuzzy as fz
from . import histeq, metrics
from .image import GrayImage, PgmDecodeError, histogram, load_pgm, save_pgm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PARTIAL = 3

METHOD_NAMES = ("he", "bbhe", "mmbebhe", "fuzzy")

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MUL2 = np.uint64(0x94D049BB133111EB)
# elements per generator block: bounds each uint64 temporary to 512 KiB
_SYNTH_BLOCK = 1 << 16


def generate_uniform_image(width: int, height: int, lo: int, hi: int, seed: int) -> GrayImage:
    """Deterministic pseudo-random image, pixels uniform over [lo, hi].

    Pixels are drawn row-major as lo + (splitmix64 output mod (hi-lo+1)),
    so the same arguments always reproduce the same image on any platform.
    The generator state before output i (1-based) is seed + i * gamma
    (mod 2**64), which lets each block of outputs be computed at once.
    """
    if not (0 <= lo <= hi <= 255):
        raise ValueError(f"need 0 <= lo <= hi <= 255, got lo={lo} hi={hi}")
    count = width * height
    seed64 = np.uint64(seed & _MASK64)
    span = np.uint64(hi - lo + 1)
    flat = np.empty(count, dtype=np.uint8)
    for start in range(0, count, _SYNTH_BLOCK):
        stop = min(start + _SYNTH_BLOCK, count)
        z = np.arange(start + 1, stop + 1, dtype=np.uint64)
        z *= _SPLITMIX_GAMMA
        z += seed64
        z ^= z >> np.uint64(30)
        z *= _SPLITMIX_MUL1
        z ^= z >> np.uint64(27)
        z *= _SPLITMIX_MUL2
        z ^= z >> np.uint64(31)
        z %= span
        flat[start:stop] = z
    flat += lo
    return GrayImage.from_flat(width, height, flat)


def enhance_image(img: GrayImage, method: str, config: fz.FuzzyConfig | None = None) -> GrayImage:
    """Apply one enhancement method; `config` is only consulted by fuzzy."""
    if method == "he":
        return histeq.equalize(img)
    if method == "bbhe":
        return histeq.bbhe(img)
    if method == "mmbebhe":
        return histeq.mmbebhe(img)
    if method == "fuzzy":
        cfg = config if config is not None else fz.default_config(img)
        return fz.apply_lut(img, fz.fuzzy_lut(img, cfg))
    raise ValueError(f"unknown method {method!r}")


def _fmt(value: float) -> str:
    return "inf" if value == float("inf") else f"{value:.4f}"


def _read_image(path: str) -> GrayImage:
    return load_pgm(Path(path).read_bytes())


def _load_fuzzy_config(path: str | None) -> fz.FuzzyConfig | None:
    if path is None:
        return None
    return fz.FuzzyConfig.from_json(Path(path).read_text(encoding="ascii"))


def cmd_enhance(args: argparse.Namespace) -> int:
    try:
        img = _read_image(args.input)
        config = _load_fuzzy_config(args.fuzzy_config)
        out = enhance_image(img, args.method, config)
    except (OSError, PgmDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        Path(args.output).write_bytes(save_pgm(out, args.format))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"{args.method}: {img.width}x{img.height} {args.input} -> {args.output}")
    return EXIT_OK


def cmd_metrics(args: argparse.Namespace) -> int:
    try:
        original = _read_image(args.original)
        processed = _read_image(args.processed)
        report = metrics.evaluate(original, processed, "pair")
    except (OSError, PgmDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print("mse,psnr,entropy,ambe")
    print(f"{_fmt(report.mse)},{_fmt(report.psnr)},{_fmt(report.entropy)},{_fmt(report.ambe)}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    methods = [m for m in args.methods.split(",") if m]
    if not methods:
        print("error: empty methods list", file=sys.stderr)
        return EXIT_USAGE
    for m in methods:
        if m not in METHOD_NAMES:
            print(f"error: unknown method {m!r}", file=sys.stderr)
            return EXIT_USAGE
    try:
        config = _load_fuzzy_config(args.fuzzy_config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    rows = []
    failed = False
    for path in args.inputs:
        try:
            img = _read_image(path)
            for method in methods:
                out = enhance_image(img, method, config)
                rows.append((path, method, metrics.evaluate(img, out, method)))
        except (OSError, PgmDecodeError, ValueError) as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
            failed = True
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")  # minimal quoting: plain paths stay bare
    writer.writerow(["image", "method", "mse", "psnr", "entropy", "ambe"])
    for path, method, rep in rows:
        writer.writerow([path, method, *map(_fmt, (rep.mse, rep.psnr, rep.entropy, rep.ambe))])
    try:
        Path(args.output).write_text(text.getvalue(), encoding="ascii", newline="\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_histogram(args: argparse.Namespace) -> int:
    try:
        img = _read_image(args.input)
    except (OSError, PgmDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    hist = histogram(img)
    probs = hist.probabilities()
    lines = ["level,count,probability"]
    for level in range(256):
        lines.append(f"{level},{int(hist.counts[level])},{float(probs[level])!r}")
    try:
        Path(args.output).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    if args.lo > args.hi:
        print(f"error: lo ({args.lo}) must not exceed hi ({args.hi})", file=sys.stderr)
        return EXIT_USAGE
    if not (0 <= args.lo and args.hi <= 255):
        print("error: lo and hi must lie in [0, 255]", file=sys.stderr)
        return EXIT_USAGE
    if args.width < 1 or args.height < 1:
        print("error: width and height must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    img = generate_uniform_image(args.width, args.height, args.lo, args.hi, args.seed)
    try:
        Path(args.output).write_bytes(save_pgm(img, "P5"))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"synth: {args.width}x{args.height} [{args.lo},{args.hi}] seed={args.seed} -> {args.output}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; remap to the usage code
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contrastkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enhance", help="enhance one PGM image")
    p.add_argument("input", help="input PGM path (P2 or P5)")
    p.add_argument("output", help="output PGM path")
    p.add_argument("--method", required=True, choices=METHOD_NAMES)
    p.add_argument("--fuzzy-config", help="JSON membership config (fuzzy method only)")
    p.add_argument("--format", choices=("P2", "P5"), default="P5", help="output encoding")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("metrics", help="print quality measures for a pair of images")
    p.add_argument("original")
    p.add_argument("processed")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("report", help="CSV report over images x methods")
    p.add_argument("inputs", nargs="+", help="input PGM paths")
    p.add_argument("--methods", required=True, help="comma-separated: he,bbhe,mmbebhe,fuzzy")
    p.add_argument("--output", required=True, help="output CSV path")
    p.add_argument("--fuzzy-config", help="JSON membership config (fuzzy method only)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("histogram", help="dump the 256-bin histogram as CSV")
    p.add_argument("input")
    p.add_argument("output", help="output CSV path")
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("synth", help="write a deterministic random test image")
    p.add_argument("output", help="output PGM path")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--lo", type=int, default=100, help="lowest intensity (default 100)")
    p.add_argument("--hi", type=int, default=156, help="highest intensity (default 156)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
