"""Rule-based fuzzy contrast enhancement.

`fuzzy_lut` compiles three stages for all 256 gray levels into one LUT:

1. fuzzification - each gray level gets membership degrees in three
   input sets (dark / gray / bright triangles; `default_config` anchors
   them at the lowest, middle, and highest occupied level of a histogram);
2. inference - Mamdani style: each of the three rules (dark->darker,
   gray->mid, bright->brighter) clips its output set at the rule's
   activation degree (min), and the clipped sets are aggregated pointwise
   by max;
3. defuzzification - center of gravity of the aggregate, sampled on a
   uniform grid over [0, 255], rounded half up; a level that fires no
   rule passes through unchanged.

The public surface is `FuzzyConfig` (of `MembershipFunction` sets),
`default_config` and `fuzzy_lut`. The `fuzzy` method's image-adaptive
default is `_default_maps`, which `methods.compile_maps` runs on a stack
of histograms.

The fixed full-range output sets are what stretch a narrow input range
toward the full scale. `_default_maps` maps an image whose range is
narrower than `MIN_USEFUL_SPAN` by the identity. Otherwise it is the
identity outside the range [lo, hi] and, inside, the table of the width
hi - lo in `fuzzy_default.bin`: exact integer centroids that
tests/golden/regen.py rebuilds, so nothing is sampled at run time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .histeq import _IDENTITY, IntensityLut
from .image import _BLOCK, LEVELS, MAX_LEVEL, Histogram

# Dynamic ranges narrower than this admit no meaningful input triangles;
# `_default_maps` then falls back to the identity mapping.
MIN_USEFUL_SPAN = 2

# The default LUT of each range width w in 2..255 on levels lo..hi: its
# w + 1 outputs start at byte w(w + 1)/2 - 3.
_DEFAULT_TABLES = np.frombuffer(Path(__file__).with_name("fuzzy_default.bin").read_bytes(), np.uint8)
if len(_DEFAULT_TABLES) != 32893:  # the sum of w + 1 over w in 2..255
    raise ImportError(f"fuzzy_default.bin holds {len(_DEFAULT_TABLES)} bytes, expected 32893")


@dataclass(frozen=True)
class MembershipFunction:
    """Triangular membership function with feet `a`, `c` and peak `b`."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.c) and self.a <= self.b <= self.c):
            raise ValueError(f"breakpoints must be finite and satisfy a <= b <= c, got {self}")

    def sample(self, xs: np.ndarray) -> np.ndarray:
        """Membership degree of each point of `xs`, in [0, 1]."""
        xs = np.asarray(xs, dtype=np.float64)
        out = np.zeros_like(xs)
        if self.b > self.a:
            rising = (xs > self.a) & (xs < self.b)
            out[rising] = (xs[rising] - self.a) / (self.b - self.a)
        if self.c > self.b:
            falling = (xs > self.b) & (xs < self.c)
            out[falling] = (self.c - xs[falling]) / (self.c - self.b)
        out[xs == self.b] = 1.0
        return out


@dataclass(frozen=True)
class FuzzyConfig:
    """Membership functions and sampling resolution for the pipeline.

    `input_sets` holds the (dark, gray, bright) sets over the intensity
    domain, `output_sets` the (darker, mid, brighter) sets; rule i pairs
    input_sets[i] with output_sets[i].
    """

    input_sets: tuple[MembershipFunction, MembershipFunction, MembershipFunction]
    output_sets: tuple[MembershipFunction, MembershipFunction, MembershipFunction]
    resolution: int = 256

    def __post_init__(self) -> None:
        if len(self.input_sets) != 3 or len(self.output_sets) != 3:
            raise ValueError("expected exactly three input and three output sets")
        object.__setattr__(self, "input_sets", tuple(self.input_sets))
        object.__setattr__(self, "output_sets", tuple(self.output_sets))
        r = self.resolution  # at most `_BLOCK`, as is every LUT-compile temporary
        if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or not 2 <= r <= _BLOCK:
            raise ValueError(f"resolution must be an integer in [2, {_BLOCK}], got {r!r}")
        object.__setattr__(self, "resolution", int(r))

    @classmethod
    def from_json(cls, text: str) -> "FuzzyConfig":
        try:
            doc = json.loads(text)  # RecursionError on deeply nested arrays
            inputs, outputs = (
                tuple(MembershipFunction(*(_breakpoint(s[k]) for k in "abc")) for s in doc[key])
                for key in ("input_sets", "output_sets")
            )
            resolution = doc.get("resolution", 256)
        except (AttributeError, KeyError, OverflowError, RecursionError, TypeError) as exc:
            raise ValueError(f"malformed fuzzy config document: {exc}") from exc
        return cls(inputs, outputs, resolution)  # type: ignore[arg-type]


def _breakpoint(value: object) -> float:
    """A breakpoint from its JSON value, which must be a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"breakpoint must be a JSON number, got {value!r}")
    return float(value)


def _ranges(counts: np.ndarray) -> tuple[list[int], list[int]]:
    """The first and the last occupied level of each row of `counts`
    (k x 256), as two lists; every row holds a pixel."""
    occupied = counts > 0
    highs = MAX_LEVEL - occupied[:, ::-1].argmax(axis=1)  # less the empty levels above the range
    return occupied.argmax(axis=1).tolist(), highs.tolist()


def default_config(hist: Histogram) -> FuzzyConfig:
    """Image-adaptive config: input triangles anchored at the image's min,
    midpoint, and max intensity (the first and last non-zero bins of its
    histogram); fixed full-range output triangles."""
    (lo,), (hi,) = _ranges(hist.counts[None])
    g_min, g_max = float(lo), float(hi)
    m = (g_min + g_max) / 2.0
    inputs = (
        MembershipFunction(g_min, g_min, m),
        MembershipFunction(g_min, m, g_max),
        MembershipFunction(m, g_max, g_max),
    )
    outputs = (
        MembershipFunction(0.0, 0.0, 128.0),
        MembershipFunction(64.0, 128.0, 192.0),
        MembershipFunction(128.0, 255.0, 255.0),
    )
    return FuzzyConfig(inputs, outputs)


def _aggregate(acts: np.ndarray, out_sets: list[np.ndarray]) -> np.ndarray:
    """Aggregate of each row of (dark, gray, bright) activations: each rule
    clips its sampled output set at its activation (min), and the clipped
    sets combine pointwise by max."""
    agg = np.minimum(acts[:, :1], out_sets[0])
    for rule in (1, 2):
        np.maximum(agg, np.minimum(acts[:, rule, None], out_sets[rule]), out=agg)
    return agg


def _centroids(agg: np.ndarray, grid: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Each row's center of gravity on `grid`, rounded half up, or `fallback`
    where no rule fired; overwrites `agg`. Rows are summed one by one:
    `agg @ grid` and `einsum` let the other rows change a row's sums."""
    total = agg.sum(axis=1)
    moment = np.multiply(agg, grid, out=agg).sum(axis=1)
    fired = total > 0.0
    out = np.where(fired, 0, fallback)
    out[fired] = np.clip(np.floor(moment[fired] / total[fired] + 0.5), 0, MAX_LEVEL)
    return out


def fuzzy_lut(cfg: FuzzyConfig) -> IntensityLut:
    """Compile the pipeline into a LUT: fuzzify, infer, and defuzzify all
    gray levels at once, in blocks of at most `_BLOCK` aggregate samples."""
    levels = np.arange(LEVELS, dtype=np.float64)
    # (256, 3) memberships, each in [0, 1]: no activation needs clipping
    plane = np.column_stack([mf.sample(levels) for mf in cfg.input_sets])
    # a level with no positive activation fires no rule and passes through
    active = np.flatnonzero((plane > 0.0).any(axis=1))
    grid = np.linspace(0.0, float(MAX_LEVEL), cfg.resolution)
    out_sets = [mf.sample(grid) for mf in cfg.output_sets]
    out = np.arange(LEVELS)
    rows = max(1, _BLOCK // cfg.resolution)
    for start in range(0, len(active), rows):
        block = active[start : start + rows]
        out[block] = _centroids(_aggregate(plane[block], out_sets), grid, block)
    return IntensityLut(out)


def _default_maps(counts: np.ndarray) -> np.ndarray:
    """For each row of `counts` (k x 256), the LUT of
    `fuzzy_lut(default_config(hist))` for its histogram, as a (k x 256)
    uint8 stack: read from the shipped table of the row range's width, or
    the identity where that range is narrower than `MIN_USEFUL_SPAN`."""
    out = np.empty(counts.shape, dtype=np.uint8)
    out[:] = _IDENTITY
    for row, lo, hi in zip(out, *_ranges(counts)):
        width = hi - lo
        if width >= MIN_USEFUL_SPAN:
            start = width * (width + 1) // 2 - 3
            row[lo : lo + width + 1] = _DEFAULT_TABLES[start : start + width + 1]
    return out
