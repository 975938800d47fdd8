"""Global histogram equalization and its brightness-preserving variants.

Every method compiles a histogram to a 256-entry lookup table, which is
then applied per pixel or scored from the histogram alone. HE, BBHE and
MMBEBHE are one bi-equalization, `_segment_map`: levels up to a split t
equalize onto [0, t], the rest onto [t + 1, 255]. HE splits at 255, BBHE
at the floored mean, and MMBEBHE at the threshold whose output mean is
nearest the input mean: a float pass over prefix sums bounds every
threshold's error in O(256), and only the few that can win are scored
exactly. All maps round in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import LEVELS, MAX_LEVEL, GrayImage, Histogram, _frozen_levels

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
    return IntensityLut(_segment_map(hist.counts, MAX_LEVEL))


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
    """Bi-equalization table split at floor(sum k * w_k / N), the floored
    mean in exact integers.

    The boundary level (exactly at the floored mean) belongs to the lower
    segment.
    """
    t = hist.level_sum // hist.total
    return IntensityLut(_segment_map(hist.counts, t))


# Slack of the float bound pass in `mmbebhe_threshold`, as a multiple of N.
# With unit roundoff u = 2**-53 and gamma_k = k*u / (1 - k*u), a product of
# floats with k roundings, and any summation of k + 1 nonnegative terms, is
# off by at most gamma_k of its exact value (Higham, "Accuracy and Stability
# of Numerical Algorithms", 2nd ed., Lemma 3.1 and §4.2, for any summation
# order). In `_unrounded_out_sums` the lower side takes one product, t
# additions, a scale and a divide: gamma_258 of at most 255*n_low. The upper
# side takes one product, 254 - t additions, a divide, a subtraction from
# n_high and a scale: gamma_258 of at most 254*n_high. The two sides, the
# int64 upper start and the input sum take five more roundings (two
# int-to-float casts, two additions, one subtraction), so a computed
# |approx - input sum| is within eps = 255*gamma_263*N < 2**-36 * N of the
# exact one. A threshold is kept when its float error is within N + 2*eps of
# the smallest: the factor below exceeds 1 + 2**-35 even after its own
# rounding, and float rounding is monotone, so rounding can only keep more
# thresholds, never fewer.
_BOUND_SLACK = 1.0 + 2.0**-34


def _unrounded_out_sums(hist: Histogram) -> np.ndarray:
    """Every threshold's bi-equalized output sum before rounding, in float64.

    The lower side is t * sum_{k<=t} w_k * cum_k / n_low. The upper side is
    (t + 1) * n_high + (254 - t) * (n_high - Q_t / n_high), with Q_t =
    sum_{k>t} w_k * tail_k and tail_k = sum_{j>k} w_j taken as suffix sums,
    so no two terms of size N**2 cancel. An empty side adds 0.
    """
    levels = np.arange(LEVELS)
    n_low = np.cumsum(hist.counts)  # int64, exact
    n_high = hist.total - n_low  # also tail_k: the pixels above level k
    w = hist.counts.astype(np.float64)
    q = np.zeros(LEVELS)
    q[:-1] = np.cumsum((w * n_high)[:0:-1])[::-1]  # Q_t, summed from level 255 down
    return (
        levels * np.cumsum(w * n_low) / np.maximum(n_low, 1)
        + (levels + 1) * n_high
        + (MAX_LEVEL - 1 - levels) * (n_high - q / np.maximum(n_high, 1))
    )


def mmbebhe_threshold(hist: Histogram) -> int:
    """Split threshold whose bi-equalized output sum is nearest the input
    sum; ties go to the smallest threshold.

    The comparison is of exact integer sums, `|S_in - S_t|`, computed from
    the histogram alone, in two passes:

    1. A float bound pass computes every threshold's unrounded output sum
       in O(256) from prefix and suffix sums (`_unrounded_out_sums`).
       Half-up rounding moves each pixel by at most 1/2, so the exact error
       lies within N/2 + eps of the float one (`_BOUND_SLACK`).
    2. An exact re-check scores only the thresholds whose lower bound is at
       most the smallest upper bound, with the `_segment_map` rule as one
       (candidate, occupied level) integer expression, and takes the first
       minimum. Every dropped threshold is strictly worse than a kept one,
       so the result is that of the exact search over all 256.
    """
    in_sum = hist.level_sum
    err = np.abs(_unrounded_out_sums(hist) - in_sum)
    cand = np.flatnonzero(err - err.min() <= hist.total * _BOUND_SLACK)
    n_low = np.cumsum(hist.counts)
    occupied = np.flatnonzero(hist.counts)
    weights = hist.counts[occupied]
    cum_k = n_low[occupied]
    t = cand[:, None]
    low = n_low[t]
    high = hist.total - low
    below = occupied <= t
    num = np.where(below, t * cum_k, (MAX_LEVEL - 1 - t) * (cum_k - low))
    den = np.where(below, low, high)  # an occupied level's side is never empty
    out_sums = _round_ratio(num, den) @ weights + ((t + 1) * high)[:, 0]  # upper side from t + 1
    return int(cand[np.argmin(np.abs(out_sums - in_sum))])  # first minimum


def mmbebhe_lut(hist: Histogram) -> IntensityLut:
    """Bi-equalization table at the minimum-brightness-error threshold."""
    t = mmbebhe_threshold(hist)
    return IntensityLut(_segment_map(hist.counts, t))
