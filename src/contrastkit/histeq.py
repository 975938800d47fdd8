"""Global histogram equalization and its brightness-preserving variants.

Every method compiles a histogram to a 256-entry lookup table, which is
then applied per pixel or scored from the histogram alone. Classical HE
stretches the cumulative distribution across the full range; BBHE splits
the histogram at the mean and equalizes each half into its own
sub-range; MMBEBHE searches all 256 split thresholds for the one whose
output mean is closest to the input mean. All maps round in
exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import LEVELS, MAX_LEVEL, GrayImage, Histogram, _frozen_levels, histogram

@dataclass(frozen=True, eq=False)
class IntensityLut:
    """A gray-level -> gray-level mapping: the compiled form of a method."""

    map: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.map)
        if arr.shape != (LEVELS,):
            raise ValueError(f"LUT must have {LEVELS} entries, got shape {arr.shape}")
        object.__setattr__(self, "map", _frozen_levels(arr, "LUT entries"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntensityLut):
            return NotImplemented
        return bool(np.array_equal(self.map, other.map))


def identity_lut() -> IntensityLut:
    return IntensityLut(np.arange(LEVELS, dtype=np.uint8))


def apply_lut(img: GrayImage, lut: IntensityLut) -> GrayImage:
    """Map each pixel through the LUT; dimensions are unchanged."""
    pixels = lut.map[img.pixels]
    pixels.setflags(write=False)  # fresh, so the image keeps it without a copy
    return GrayImage(pixels)


def _round_ratio(num, den):
    """num / den rounded half up in exact integers (num >= 0, den > 0)."""
    return (2 * num + den) // (2 * den)


def he_lut(hist: Histogram) -> IntensityLut:
    """Classical equalization table: level k maps to round(255 * CDF(k)).

    Rounding is half up, in exact integers. The map is non-decreasing and
    sends every level at which the CDF has reached 1 to 255.
    """
    if hist.total == 0:
        raise ValueError("cannot equalize an empty histogram")
    cum = np.cumsum(hist.counts)  # int64, exact
    return IntensityLut(_round_ratio(MAX_LEVEL * cum, hist.total))


def _segment_map(counts: np.ndarray, threshold: int) -> np.ndarray:
    """Bi-equalization map for a split at `threshold`.

    Levels <= threshold equalize onto [0, threshold]; levels > threshold
    onto [threshold + 1, 255]. An empty side keeps the identity mapping on
    its segment.
    """
    t = threshold
    cum = np.cumsum(counts)
    out = np.arange(LEVELS, dtype=np.int64)
    n_low = int(cum[t])
    n_high = int(cum[-1]) - n_low
    if n_low > 0:
        out[: t + 1] = _round_ratio(t * cum[: t + 1], n_low)
    if n_high > 0:
        width = MAX_LEVEL - (t + 1)
        out[t + 1 :] = (t + 1) + _round_ratio(width * (cum[t + 1 :] - n_low), n_high)
    return out


def bbhe_lut(hist: Histogram) -> IntensityLut:
    """Bi-equalization table split at floor(mean intensity).

    The boundary level (exactly at the floored mean) belongs to the lower
    segment.
    """
    if hist.total == 0:
        raise ValueError("cannot equalize an empty histogram")
    t = math.floor(hist.mean())
    return IntensityLut(_segment_map(hist.counts, t))


def mmbebhe_threshold(hist: Histogram) -> int:
    """Split threshold whose bi-equalized output sum is nearest the input
    sum; ties go to the smallest threshold.

    The output sums of all 256 candidate thresholds come from the histogram
    alone, as one (threshold, occupied level) integer expression of the
    `_segment_map` rule, so there is neither an image pass nor a float
    comparison.
    """
    if hist.total == 0:
        raise ValueError("cannot equalize an empty histogram")
    occupied = np.flatnonzero(hist.counts)
    weights = hist.counts[occupied]
    cum = np.cumsum(hist.counts)
    cum_k = cum[occupied]
    t = np.arange(LEVELS)[:, None]
    n_low = cum[:, None]
    n_high = hist.total - n_low
    below = occupied <= t
    num = np.where(below, t * cum_k, (MAX_LEVEL - 1 - t) * (cum_k - n_low))
    den = np.where(below, n_low, n_high)  # an occupied level's side is never empty
    out_sums = _round_ratio(num, den) @ weights + ((t + 1) * n_high)[:, 0]  # upper side from t + 1
    return int(np.argmin(np.abs(out_sums - occupied @ weights)))  # first minimum


def mmbebhe_lut(hist: Histogram) -> IntensityLut:
    """Bi-equalization table at the minimum-brightness-error threshold."""
    t = mmbebhe_threshold(hist)
    return IntensityLut(_segment_map(hist.counts, t))


def equalize(img: GrayImage) -> GrayImage:
    """Classical histogram equalization of `img`."""
    return apply_lut(img, he_lut(histogram(img)))


def bbhe(img: GrayImage) -> GrayImage:
    """Brightness-preserving bi-histogram equalization of `img`."""
    return apply_lut(img, bbhe_lut(histogram(img)))


def mmbebhe(img: GrayImage) -> GrayImage:
    """Minimum mean brightness error bi-histogram equalization of `img`."""
    return apply_lut(img, mmbebhe_lut(histogram(img)))
