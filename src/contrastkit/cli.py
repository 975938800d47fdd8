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
byte-identical files. Every path is used as typed: an input is read whole
in one raw read, and `report` keeps only each input's 256 level counts.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import stat
import sys

import numpy as np

from . import fuzzy as fz
from . import metrics
from .image import _BLOCK, LEVELS, GrayImage, _level_counts, histogram, load_pgm, save_pgm
from .methods import METHODS, compile_maps, enhance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PARTIAL = 3

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MUL2 = np.uint64(0x94D049BB133111EB)
# largest image `synth` writes, 16384 x 16384: checked before any allocation
SYNTH_MAX_PIXELS = 1 << 28
# inputs that `report` compiles and scores together: its (inputs x methods
# x 256) stacks hold at most `_BLOCK` elements
_REPORT_GROUP = _BLOCK // (len(METHODS) * LEVELS)


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
    span = np.uint64(hi - lo + 1)
    flat = np.empty(count, dtype=np.uint8)
    # i * gamma for i = 1..block; the block from `start` adds seed + start * gamma
    steps = np.arange(1, min(count, _BLOCK) + 1, dtype=np.uint64)
    steps *= np.uint64(_SPLITMIX_GAMMA)
    z, q = np.empty_like(steps), np.empty_like(steps)  # reused by every block
    for start in range(0, count, _BLOCK):
        n = min(_BLOCK, count - start)
        zb, qb = z[:n], q[:n]
        np.add(steps[:n], np.uint64((seed + start * _SPLITMIX_GAMMA) & _MASK64), out=zb)
        zb ^= np.right_shift(zb, np.uint64(30), out=qb)
        zb *= _SPLITMIX_MUL1
        zb ^= np.right_shift(zb, np.uint64(27), out=qb)
        zb *= _SPLITMIX_MUL2
        zb ^= np.right_shift(zb, np.uint64(31), out=qb)
        # z mod span as z - (z // span) * span: a scalar floor_divide is
        # much faster than a scalar remainder on uint64
        np.floor_divide(zb, span, out=qb)
        qb *= span
        zb -= qb
        flat[start : start + n] = zb
    flat += lo
    flat.setflags(write=False)  # fresh, so the image keeps it without a copy
    return GrayImage.from_flat(width, height, flat)


class UsageError(Exception):
    """A command-line value the command rejects: exit code 1."""


# MSE, PSNR, entropy and AMBE to 4 places; the PSNR of a zero MSE, +inf, is `inf`
_SCORES = "%.4f,%.4f,%.4f,%.4f"
# a `report` row: the input path as one CSV field, the method, then its scores
_REPORT_ROW = f"%s,%s,{_SCORES}\n"


def _csv_field(text: str) -> str:
    """`text` as one field of a CSV row, quoted as a `csv.writer` with
    minimal quoting quotes it, so a plain path stays bare."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _read_file(path: str) -> bytes:
    """The whole file at `path`, read unbuffered with no tty probe. `path` is
    used as given, so "in.pgm/" names a folder, and errors name it as given."""
    with io.FileIO(path) as f:
        return f.readall()


def _read_image(path: str) -> GrayImage:
    return load_pgm(_read_file(path))


def _load_fuzzy_config(path: str | None) -> fz.FuzzyConfig | None:
    if path is None:
        return None
    return fz.FuzzyConfig.from_json(_read_file(path).decode("ascii"))


def _write_output(path: str, data: bytes) -> None:
    """Replace the file at `path` (through a symlink) with `data` whole, via a
    new file renamed over it, so a failed write leaves the old file intact; an
    existing file keeps its permission bits. What is not a writable regular
    file once links are followed (/dev/null, /dev/stdout on a pipe, a read-only
    file) or lies in an unwritable folder is written in place, as a plain
    write would. `path` is used as given, so "out.pgm/" names a folder, and
    errors name it as given."""
    try:
        try:
            mode = os.stat(path).st_mode  # of the file that `open` would reach
        except FileNotFoundError:
            mode = None  # a new file, or the missing target of a dangling link
        # the file a link leads to is replaced; any other path is taken as the
        # kernel reads it, so its folder is the one `open` reaches
        target = os.path.realpath(path) if os.path.islink(path) else path
        folder = os.path.dirname(target) or "."
        in_place = mode is not None and not (stat.S_ISREG(mode) and os.access(path, os.W_OK))
        if in_place or not os.access(folder, os.W_OK | os.X_OK):
            with open(path, "wb") as f:
                f.write(data)
            return
        temp = os.path.join(folder, f".contrastkit-{os.urandom(4).hex()}.tmp")
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies
        try:
            with open(fd, "wb") as f:
                if mode is not None:  # before any byte is written
                    os.fchmod(fd, stat.S_IMODE(mode))
                f.write(data)
            os.replace(temp, target)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def cmd_enhance(args: argparse.Namespace) -> int:
    img = _read_image(args.input)
    out = enhance(img, args.method, _load_fuzzy_config(args.fuzzy_config))
    _write_output(args.output, save_pgm(out, args.format))
    print(f"{args.method}: {img.width}x{img.height} {args.input} -> {args.output}")
    return EXIT_OK


def cmd_metrics(args: argparse.Namespace) -> int:
    report = metrics.evaluate(_read_image(args.original), _read_image(args.processed))
    print("mse,psnr,entropy,ambe")
    print(_SCORES % report)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    methods = [m for m in args.methods.split(",") if m]
    if not methods:
        raise UsageError("empty methods list")
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}")
    cfg = _load_fuzzy_config(args.fuzzy_config)
    # its LUT depends on no histogram: compiled once for every group
    custom_fuzzy = fz.fuzzy_lut(cfg) if cfg is not None and "fuzzy" in methods else None
    distinct = list(dict.fromkeys(methods))  # each compiled and scored once

    rows = ["image,method,mse,psnr,entropy,ambe\n"]
    failed = False
    for start in range(0, len(args.inputs), _REPORT_GROUP):
        paths, counts = [], []
        for path in args.inputs[start : start + _REPORT_GROUP]:
            try:
                counts.append(_level_counts(_read_image(path).pixels))
                paths.append(path)
            except (OSError, ValueError) as exc:  # PgmDecodeError is a ValueError
                # an input that cannot be read is skipped whole; its rows are never begun
                print(f"skipping {path}: {exc}", file=sys.stderr)
                failed = True
        if not paths:
            continue
        stack = np.array(counts)
        scores = metrics._evaluate_maps(stack, compile_maps(distinct, stack, custom_fuzzy))
        for i, path in enumerate(paths):  # method j's scores of input i are at j * len(paths) + i
            field = _csv_field(path)
            rows += [_REPORT_ROW % (field, m, *scores[distinct.index(m) * len(paths) + i]) for m in methods]
    # an undecodable argv path comes back as the bytes it was given
    _write_output(args.output, "".join(rows).encode("utf-8", "surrogateescape"))
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_histogram(args: argparse.Namespace) -> int:
    hist = histogram(_read_image(args.input))
    pairs = zip(hist.counts, hist.probabilities())
    rows = [f"{level},{int(n)},{float(p)!r}\n" for level, (n, p) in enumerate(pairs)]
    _write_output(args.output, "".join(["level,count,probability\n", *rows]).encode("ascii"))
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    if args.lo > args.hi:
        raise UsageError(f"lo ({args.lo}) must not exceed hi ({args.hi})")
    if not (0 <= args.lo and args.hi <= 255):
        raise UsageError("lo and hi must lie in [0, 255]")
    if args.width < 1 or args.height < 1:
        raise UsageError("width and height must be >= 1")
    if args.width * args.height > SYNTH_MAX_PIXELS:
        raise UsageError(f"width x height must not exceed {SYNTH_MAX_PIXELS} pixels")
    img = generate_uniform_image(args.width, args.height, args.lo, args.hi, args.seed)
    _write_output(args.output, save_pgm(img, "P5"))
    print(f"synth: {args.width}x{args.height} [{args.lo},{args.hi}] seed={args.seed} -> {args.output}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; remap to the usage code
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process: building it costs more than a parse
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contrastkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enhance", help="enhance one PGM image")
    p.add_argument("input", help="input PGM path (P2 or P5)")
    p.add_argument("output", help="output PGM path")
    p.add_argument("--method", required=True, choices=METHODS)
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
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:  # PgmDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
