"""Rule-based fuzzy contrast enhancement.

Three stages, compiled per image into an intensity LUT:

1. fuzzification - each gray level gets membership degrees in three
   image-adaptive input sets (dark / gray / bright, triangles anchored at
   the image's min, midpoint, and max intensity);
2. inference - Mamdani style: each of the three rules (dark->darker,
   gray->mid, bright->brighter) clips its output set at the rule's
   activation degree (min), and the clipped sets are aggregated pointwise
   by max;
3. defuzzification - center of gravity of the aggregate, sampled on a
   uniform grid over [0, 255], rounded half away from zero.

The fixed full-range output sets are what stretch a narrow input range
toward the full scale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .histeq import IntensityLut, identity_lut, apply_lut, round_half_away
from .image import LEVELS, MAX_LEVEL, GrayImage

# Dynamic ranges narrower than this admit no meaningful input triangles;
# the pipeline then falls back to the identity mapping.
MIN_USEFUL_SPAN = 2


@dataclass(frozen=True)
class MembershipFunction:
    """Triangular membership function with feet `a`, `c` and peak `b`."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.c) and self.a <= self.b <= self.c):
            raise ValueError(f"breakpoints must be finite and satisfy a <= b <= c, got {self}")

    def grade(self, x: float) -> float:
        """Membership degree of `x`, in [0, 1]."""
        if x == self.b:
            return 1.0
        if x < self.b:
            if x <= self.a:
                return 0.0
            return (x - self.a) / (self.b - self.a)
        if x >= self.c:
            return 0.0
        return (self.c - x) / (self.c - self.b)

    def sample(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`grade` over an array of points."""
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
    input_sets[i] with output_sets[i]. `degenerate` marks configs built
    from images whose dynamic range is too narrow to enhance; downstream
    they short-circuit to an identity LUT.
    """

    input_sets: tuple[MembershipFunction, MembershipFunction, MembershipFunction]
    output_sets: tuple[MembershipFunction, MembershipFunction, MembershipFunction]
    resolution: int = 256
    degenerate: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.input_sets) != 3 or len(self.output_sets) != 3:
            raise ValueError("expected exactly three input and three output sets")
        object.__setattr__(self, "input_sets", tuple(self.input_sets))
        object.__setattr__(self, "output_sets", tuple(self.output_sets))
        r = self.resolution  # at most 2**16, so no LUT-compile temporary exceeds 2**16 floats
        if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or not 2 <= r <= 65536:
            raise ValueError(f"resolution must be an integer in [2, 65536], got {r!r}")

    def to_json(self) -> str:
        def sets(fns):
            return [{"a": f.a, "b": f.b, "c": f.c} for f in fns]

        doc = {
            "input_sets": sets(self.input_sets),
            "output_sets": sets(self.output_sets),
            "resolution": self.resolution,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FuzzyConfig":
        doc = json.loads(text)
        try:
            inputs = tuple(
                MembershipFunction(float(s["a"]), float(s["b"]), float(s["c"]))
                for s in doc["input_sets"]
            )
            outputs = tuple(
                MembershipFunction(float(s["a"]), float(s["b"]), float(s["c"]))
                for s in doc["output_sets"]
            )
            resolution = doc.get("resolution", 256)
        except (AttributeError, KeyError, OverflowError, TypeError) as exc:
            raise ValueError(f"malformed fuzzy config document: {exc}") from exc
        return cls(inputs, outputs, resolution)  # type: ignore[arg-type]


def default_config(img: GrayImage) -> FuzzyConfig:
    """Image-adaptive config: input triangles anchored at the image's min,
    midpoint, and max intensity; fixed full-range output triangles."""
    g_min = float(img.pixels.min())
    g_max = float(img.pixels.max())
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
    return FuzzyConfig(inputs, outputs, degenerate=(g_max - g_min) < MIN_USEFUL_SPAN)


def fuzzify(g: float, cfg: FuzzyConfig) -> tuple[float, float, float]:
    """Membership degrees of gray level `g` in the (dark, gray, bright) sets."""
    dark, gray, bright = cfg.input_sets
    return (dark.grade(g), gray.grade(g), bright.grade(g))


def sample_grid(resolution: int) -> np.ndarray:
    """Uniform defuzzification grid over [0, 255]."""
    return np.linspace(0.0, float(MAX_LEVEL), resolution)


def infer(triple: tuple[float, float, float], cfg: FuzzyConfig) -> np.ndarray:
    """Aggregated output membership function for the given activations.

    Each rule clips its output set at the activation degree; the clipped
    sets are combined pointwise by max. Returns the aggregate sampled at
    `cfg.resolution` points over [0, 255].
    """
    grid = sample_grid(cfg.resolution)
    agg = np.zeros(cfg.resolution)
    for activation, out_set in zip(triple, cfg.output_sets):
        if activation > 0.0:
            np.maximum(agg, np.minimum(activation, out_set.sample(grid)), out=agg)
    return agg


def defuzzify_centroid(agg: np.ndarray) -> int | None:
    """Center of gravity of a sampled membership function, as an intensity.

    The grid is assumed uniform over [0, 255]. Returns None for an
    all-zero aggregate (no rule fired); callers substitute the input gray
    level unchanged.
    """
    agg = np.asarray(agg, dtype=np.float64)
    if agg.ndim != 1 or agg.size < 2:
        raise ValueError("aggregate must be a 1-D sample of at least 2 points")
    total = float(agg.sum())
    if total <= 0.0:
        return None
    grid = sample_grid(agg.size)
    centroid = float(np.dot(grid, agg)) / total
    return min(MAX_LEVEL, max(0, round_half_away(centroid)))


def membership_plane(cfg: FuzzyConfig) -> np.ndarray:
    """(256, 3) array of (dark, gray, bright) memberships per gray level."""
    levels = np.arange(LEVELS, dtype=np.float64)
    return np.column_stack([mf.sample(levels) for mf in cfg.input_sets])


def fuzzy_lut(img: GrayImage, cfg: FuzzyConfig) -> IntensityLut:
    """Compile the pipeline into a LUT: fuzzify, infer, and defuzzify all
    gray levels at once, in blocks of at most 2**16 aggregate samples. A
    degenerate config yields the identity LUT."""
    if cfg.degenerate:
        return identity_lut()
    plane = membership_plane(cfg)
    # a level with no positive activation fires no rule and passes through
    active = np.flatnonzero((plane > 0.0).any(axis=1))
    grid = sample_grid(cfg.resolution)
    out_sets = [mf.sample(grid) for mf in cfg.output_sets]
    out = np.arange(LEVELS)
    rows = max(1, 2**16 // cfg.resolution)
    for start in range(0, len(active), rows):
        levels = active[start : start + rows]
        acts = plane[levels]
        agg = np.zeros((len(levels), cfg.resolution))
        clipped = np.empty_like(agg)
        for rule, out_set in enumerate(out_sets):
            np.minimum(acts[:, rule, None], out_set, out=clipped)
            clipped[~(acts[:, rule] > 0.0)] = 0.0  # a rule fires only above 0
            np.maximum(agg, clipped, out=agg)
        total = agg.sum(axis=1)
        fired = total > 0.0
        centroid = (agg @ grid)[fired] / total[fired]
        out[levels[fired]] = np.clip(np.floor(centroid + 0.5), 0, MAX_LEVEL)
    return IntensityLut(out, "FUZZY")


def enhance_fuzzy(img: GrayImage) -> GrayImage:
    """Fuzzy enhancement of `img` with the image-adaptive default config."""
    return apply_lut(img, fuzzy_lut(img, default_config(img)))
