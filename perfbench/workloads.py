"""Seeded inputs for the benchmark workloads.

Inputs come from numpy's PCG64 generator seeded with `--seed`, never from
`contrastkit synth`, and are written as PGM files by the oracle's own
encoders. Each workload is a cycle of operations; an operation is one
`contrastkit` command line plus the exact bytes it must write.

Why these workloads:

- ascii_io: P2 decode, P2 encode and `synth` generation are per-pixel
  Python loops; this mix is dominated by them and barely touches the
  LUT compilers.
- report_small: a batch of small P5 images makes the per-image LUT
  compilers (MMBEBHE's threshold search, the fuzzy LUT) dominate, while
  the per-pixel passes stay cheap. Spans come from a small seeded set,
  so a known share of images repeat a (min, max) span within a batch,
  and some have a span under 2 (the fuzzy identity fallback).
- report_large: one large, wide-span P5 image per report makes the
  per-pixel numpy passes (histogram, apply, metrics) and memory dominate;
  compile cost is fixed per image and so falls to a small share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

METHODS = oracle.METHODS
REPORT_METHODS = ",".join(METHODS)

# Sizes and span widths are fixed so that every seed gives ops of the same
# cost; the seed draws span offsets, pixel content and the op order.
ASCII_SIZES = [(128, 128), (112, 144), (144, 112), (120, 136)] * 2
SYNTH_SIZE = (512, 512)
SMALL_SIZES = [(96, 96), (160, 160), (128, 112), (112, 144), (144, 128), (96, 160), (160, 120), (120, 100)]
SMALL_SPAN_WIDTHS = (24, 64, 112, 160, 232, 1)
# span index per image of a batch: two spans repeat, one image is degenerate
SMALL_SPAN_SLOTS = (0, 1, 2, 0, 3, 1, 4, 5)
LARGE_SIZE = (1152, 1152)


@dataclass
class Op:
    """One CLI invocation and the bytes its output file must hold."""

    kind: str
    argv: list[str]
    output: Path
    expected: bytes
    pixels: int  # pixels decoded (enhance, report) or generated (synth)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: dict = field(default_factory=dict)
    # the calibration kernel whose work matches these ops' (calibration.py)
    kernel: str = "mixed"


def _image(rng: np.random.Generator, width: int, height: int, lo: int, hi: int) -> np.ndarray:
    """Pixels in [lo, hi] drawn from a seeded beta shape; both ends occur."""
    a, b = rng.uniform(0.7, 3.0, 2)
    px = np.empty((height, width), dtype=np.uint8)
    # row blocks keep the generator's memory peak below the program's
    for start in range(0, height, oracle.CHUNK_ROWS):
        u = rng.beta(a, b, (min(oracle.CHUNK_ROWS, height - start), width))
        px[start : start + len(u)] = np.minimum(lo + np.floor(u * (hi - lo + 1)), hi)
    px[0, 0], px[-1, -1] = lo, hi
    return px


def ascii_io(rng: np.random.Generator, tmp: Path) -> Workload:
    # 3-digit samples only, so P2 decode and encode cost per pixel is fixed
    inputs = []
    for i, (w, h) in enumerate(ASCII_SIZES):
        lo = int(rng.integers(100, 156))
        px = _image(rng, w, h, lo, lo + 99)
        path = tmp / f"ascii_{i}.pgm"
        path.write_bytes(oracle.encode_p2(px))
        inputs.append((path, px))
    pairs = [(i, m) for i in range(len(inputs)) for m in METHODS]
    order = rng.permutation(len(pairs))
    out = tmp / "enhanced.pgm"
    enhance = []
    for k in order:
        i, method = pairs[k]
        path, px = inputs[i]
        argv = ["enhance", str(path), str(out), "--method", method, "--format", "P2"]
        enhance.append(Op("enhance", argv, out, oracle.enhance_output(px, method, "P2"), px.size))
    synth = []
    out = tmp / "synth.pgm"
    for _ in range(4):
        w, h = SYNTH_SIZE
        lo = int(rng.integers(0, 156))
        hi = lo + int(rng.integers(20, 100))
        seed = int(rng.integers(0, 2**63))
        argv = ["synth", str(out), "--width", str(w), "--height", str(h),
                "--lo", str(lo), "--hi", str(hi), "--seed", str(seed)]
        synth.append(Op("synth", argv, out, oracle.synth_output(w, h, lo, hi, seed), w * h))
    # two enhance ops, then one synth op
    ops = []
    for j, op in enumerate(enhance):
        ops.append(op)
        if j % 2 == 1:
            ops.append(synth[(j // 2) % len(synth)])
    props = {
        "enhance_sizes": [f"{w}x{h}" for w, h in ASCII_SIZES],
        "synth_size": "{}x{}".format(*SYNTH_SIZE),
        "synth_op_share": round(sum(op.kind == "synth" for op in ops) / len(ops), 4),
        "pixels_per_op": round(sum(op.pixels for op in ops) / len(ops), 1),
    }
    return Workload("ascii_io", ops, props, "interpreter")


def _report_ops(batches, tmp: Path, prefix: str):
    out = tmp / f"{prefix}.csv"
    ops = []
    for b, batch in enumerate(batches):
        named = []
        for i, px in enumerate(batch):
            path = tmp / f"{prefix}_{b}_{i}.pgm"
            path.write_bytes(oracle.encode_p5(px))
            named.append((str(path), px))
        argv = ["report", *(p for p, _ in named), "--methods", REPORT_METHODS, "--output", str(out)]
        ops.append(Op("report", argv, out, oracle.report_csv(named), sum(px.size for px in batch)))
    return ops


def _size_ranges(images) -> dict:
    widths = [px.shape[1] for px in images]
    heights = [px.shape[0] for px in images]
    return {"width": [min(widths), max(widths)], "height": [min(heights), max(heights)]}


def _span_props(batches) -> dict:
    spans = [[(int(px.min()), int(px.max())) for px in batch] for batch in batches]
    flat = [s for batch in spans for s in batch]
    repeats_in_op = sum(len(batch) - len(set(batch)) for batch in spans)
    return {
        "images": len(flat),
        "sizes": _size_ranges([px for batch in batches for px in batch]),
        "span_repeat_share_in_op": round(repeats_in_op / len(flat), 4),
        "span_repeat_share_in_run": round(1 - len(set(flat)) / len(flat), 4),
        "degenerate_span_share": round(sum(hi - lo < 2 for lo, hi in flat) / len(flat), 4),
        "pixels_per_op": round(sum(px.size for batch in batches for px in batch) / len(batches), 1),
    }


def report_small(rng: np.random.Generator, tmp: Path) -> Workload:
    # span set: fixed widths at seeded offsets; the last is under 2 levels
    spans = []
    for width in SMALL_SPAN_WIDTHS:
        lo = int(rng.integers(0, 256 - width))
        spans.append((lo, lo + width))
    batches = []
    for _ in range(16):
        batch = [_image(rng, w, h, *spans[k]) for (w, h), k in zip(SMALL_SIZES, SMALL_SPAN_SLOTS)]
        batches.append(batch)
    return Workload("report_small", _report_ops(batches, tmp, "small"), _span_props(batches))


def report_large(rng: np.random.Generator, tmp: Path) -> Workload:
    batches = []
    for _ in range(4):
        lo, hi = int(rng.integers(0, 24)), int(rng.integers(232, 256))
        batches.append([_image(rng, *LARGE_SIZE, lo, hi)])
    return Workload("report_large", _report_ops(batches, tmp, "large"), _span_props(batches), "numpy")


WORKLOADS = {"ascii_io": ascii_io, "report_small": report_small, "report_large": report_large}
