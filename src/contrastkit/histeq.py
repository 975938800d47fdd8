"""Global histogram equalization and its brightness-preserving variants.

Every method compiles a histogram to a 256-entry lookup table, an
`image.IntensityLut`, which `apply_lut` applies per pixel or `metrics` scores
from the histogram alone. HE, BBHE and MMBEBHE are one bi-equalization,
`_split_maps`: levels up to a split t equalize onto [0, t], the rest onto
[t + 1, 255]. It maps the (k x 256) cumulative counts of k histograms and an
(m x k) grid of thresholds, a row per split rule, to (m x k x 256) uint8
maps in one broadcast pass of `_split_values`, the exact integer kernel that
MMBEBHE's search also scores with, and one masked copy keeps the identity on
an empty side; `methods.compile_maps` fills every split method's maps in one
such pass. The methods differ only in the rule that picks t, their entries of
`_SPLIT_RULES`: HE splits at 255, BBHE at the floored mean, and MMBEBHE at
the threshold whose output mean is nearest the input mean: a float pass over
prefix sums bounds every threshold's error in O(256), and only its best and
the few that can beat that best are scored exactly. `mmbebhe_threshold` is
that rule on one histogram. All maps round in exact integer arithmetic.

At one histogram a kernel's cost is its count of NumPy calls, so the
kernels call ufunc and array methods (`np.add.reduce`, `x.cumsum`) rather
than the `np.*` wrappers, whose Python dispatch costs as much as the work.
"""

from __future__ import annotations

import numpy as np

from .image import _BLOCK, _IDENTITY, _LEVEL_VALUES, LEVELS, MAX_LEVEL, GrayImage, Histogram, IntensityLut


def apply_lut(img: GrayImage, lut: IntensityLut) -> GrayImage:
    """Map each pixel through the LUT; dimensions are unchanged. `take` casts
    its index to intp, so it maps `_BLOCK` pixels at a time into one array."""
    pixels = np.empty(img.pixels.shape, dtype=np.uint8)
    flat, out = img.pixels.ravel(), pixels.ravel()  # views: both are C-contiguous
    for start in range(0, flat.size, _BLOCK):  # `clip`, which no uint8 index reaches, writes `out` unbuffered
        lut.map.take(flat[start : start + _BLOCK], out=out[start : start + _BLOCK], mode="clip")
    return GrayImage._adopt(pixels)


def _split_values(
    cum: np.ndarray, levels: np.ndarray, t: np.ndarray, low: np.ndarray, high: np.ndarray
) -> np.ndarray:
    """The `_split_maps` value of each row's map at each of `levels`, int64,
    from the row's cumulative counts `cum` at those levels (rows x levels),
    its threshold `t` and the pixels `low` and `high` on either side of it
    (each rows x 1).

    The upper start t + 1 is folded into the numerator as (t + 1) * high. A
    level on an empty side holds none of its row's pixels: a divisor of 1
    there only keeps its value finite, and that value is not the identity.
    """
    below = levels <= t
    low1, high1 = np.maximum(low, 1), np.maximum(high, 1)
    s = MAX_LEVEL - 1 - t
    shift = np.where(below, low1 // 2, (t + 1) * high1 - s * low + high1 // 2)
    return (np.where(below, t, s) * cum + shift) // np.where(below, low1, high1)


def _split_maps(cum: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Bi-equalization maps (m x k x 256 uint8) of the k histograms whose
    cumulative counts are the rows of `cum`, split at the (m x k) grid
    `thresholds` of m split rules; a (k,) vector gives (k x 256) maps.

    Levels <= t, the boundary level included, equalize onto [0, t] and
    levels > t onto [t + 1, 255], so every map is non-decreasing; at t = 255
    each level at which the CDF has reached 1 maps to 255. One masked copy
    keeps the identity on an empty side. Each side divides by one integer,
    rounding half up in exact integers as floor((num + floor(den / 2)) /
    den), in one `_split_values` pass that broadcasts the grid over `cum`.
    """
    t = thresholds[..., None]
    low = cum[np.arange(len(cum)), thresholds][..., None]
    high = cum[:, -1:] - low
    out = _split_values(cum, _LEVEL_VALUES, t, low, high).astype(np.uint8)
    # an empty side keeps the identity; at t = 255 no level lies above t
    np.copyto(out, _IDENTITY, where=np.where(_LEVEL_VALUES <= t, low == 0, high == 0))
    return out


# Slack of the re-check's keep test in `_mmbebhe_thresholds`, as a
# multiple of N. With unit roundoff u = 2**-53 and gamma_k = k*u / (1 - k*u),
# a product of floats with k roundings, and any summation of k + 1
# nonnegative terms, is off by at most gamma_k of its exact value (Higham,
# "Accuracy and Stability of Numerical Algorithms", 2nd ed., Lemma 3.1 and
# §4.2, for any summation order). In `_unrounded_out_sums` the lower side
# takes one product, t additions, a scale and a divide: gamma_258 of at most
# 255*n_low. The upper side takes one product, 254 - t additions, a divide,
# a subtraction from n_high and a scale: gamma_258 of at most 254*n_high.
# The two sides, the int64 upper start and the input sum take five more
# roundings (two int-to-float casts, two additions, one subtraction), so a
# computed float error `err` is within eps = 255*gamma_263*N < 2**-36 * N of
# the exact unrounded one, and the exact rounded error E of the threshold
# is at least err - N/2 - eps. A threshold is kept when err <= I + c*N, I
# the incumbent's exact error, both sides in float64. The right side is
# fl(fl(I) + fl(c*N)), N <= 2**47 casting exactly; with I <= 255*N it is at
# least (I + c*N)(1 - 2u) > I + N/2 + eps for any c >= 1/2 + 2**-35. So
# every threshold with E <= I is kept, and a dropped one has E > I.
_BOUND_SLACK = 0.5 + 2.0**-35

# (input, threshold) pairs per block of the exact re-check: its (pairs x
# occupied levels) temporaries hold at most `_BLOCK` elements.
_PAIR_BLOCK = _BLOCK // LEVELS
# the re-check's score of a dropped threshold: above any exact error
_NEVER_BEST = 1 << 62


# each threshold t's upper segment [t + 1, 255]: its start and its width
_UPPER_STARTS = _LEVEL_VALUES + 1
_UPPER_WIDTHS = MAX_LEVEL - 1 - _LEVEL_VALUES


def _unrounded_out_sums(counts: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Every threshold's bi-equalized output sum before rounding, in
    float64, for each row of `counts` with cumulative counts `cum`.

    The lower side is t * sum_{k<=t} w_k * cum_k / n_low. The upper side is
    (t + 1) * n_high + (254 - t) * (n_high - Q_t / n_high), with Q_t =
    sum_{k>t} w_k * tail_k and tail_k = sum_{j>k} w_j taken as suffix sums,
    so no two terms of size N**2 cancel. An empty side adds 0.
    """
    n_high = cum[:, -1:] - cum  # also tail_k: the pixels above level k
    w = counts.astype(np.float64)
    q = np.zeros(counts.shape)
    (w * n_high)[:, :0:-1].cumsum(axis=1, out=q[:, -2::-1])  # Q_t, summed from level 255 down
    return (
        _LEVEL_VALUES * (w * cum).cumsum(axis=1) / np.maximum(cum, 1)
        + _UPPER_STARTS * n_high
        + _UPPER_WIDTHS * (n_high - q / np.maximum(n_high, 1))
    )


def _mmbebhe_thresholds(counts: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Each row's split threshold whose bi-equalized output sum is nearest
    its input sum, for the rows of `counts` with cumulative counts `cum`;
    ties go to the smallest threshold.

    The comparison is of exact integer sums, `|S_in - S_t|`, computed from
    the counts alone, in three steps:

    1. A float bound pass computes every threshold's unrounded output sum
       in O(256) per row from prefix and suffix sums (`_unrounded_out_sums`).
       Half-up rounding moves each pixel by at most 1/2, so the exact error
       lies within N/2 + eps of the float one (`_BOUND_SLACK`).
    2. Each row's float argmin, its incumbent, is scored exactly with
       `_split_values` over the levels occupied in any row of the stack
       (an empty level weighs 0), in blocks of `_PAIR_BLOCK` pairs.
    3. An exact re-check scores only the other thresholds whose lower bound
       is at most the incumbent's exact error, and takes each row's first
       minimum. Every dropped threshold is strictly worse than the
       incumbent, so the result is that of the exact search over all 256.
    """
    total = cum[:, -1:]
    in_sum = counts @ _LEVEL_VALUES
    levels = np.add.reduce(counts).nonzero()[0]  # occupied in some row
    cum_at, counts_at = cum[:, levels], counts[:, levels]
    dev = np.empty(counts.shape, dtype=np.int64)
    dev.fill(_NEVER_BEST)

    def score(rows: np.ndarray, cand: np.ndarray) -> None:
        """Set dev[rows, cand] to the exact error of each (row, threshold) pair."""
        for start in range(0, len(rows), _PAIR_BLOCK):
            r, c = rows[start : start + _PAIR_BLOCK], cand[start : start + _PAIR_BLOCK]
            low = cum[r, c][:, None]
            values = _split_values(cum_at[r], levels, c[:, None], low, total[r] - low)
            dev[r, c] = np.abs(np.add.reduce(values * counts_at[r], axis=1) - in_sum[r])

    err = np.abs(_unrounded_out_sums(counts, cum) - in_sum[:, None])
    rows = np.arange(len(counts))
    best = err.argmin(axis=1)
    score(rows, best)
    keep = err <= dev[rows, best][:, None] + total * _BOUND_SLACK
    keep[rows, best] = False  # already scored
    score(*keep.nonzero())
    return dev.argmin(axis=1)  # the first minimum: ties go to the smallest threshold


# Each bi-equalization's split rule, (counts, cum) -> (k,) thresholds, at
# which `methods.compile_maps` splits its maps: HE splits at 255 (level k
# maps to round(255 * CDF(k))), BBHE (Kim 1997) at the floored mean
# floor(sum k * w_k / N) in exact integers, and MMBEBHE (Chen and Ramli
# 2003) at the minimum-brightness-error threshold.
_SPLIT_RULES = {
    "he": lambda counts, cum: np.full(len(counts), MAX_LEVEL),
    "bbhe": lambda counts, cum: (counts @ _LEVEL_VALUES) // cum[:, -1],
    "mmbebhe": _mmbebhe_thresholds,
}


def mmbebhe_threshold(hist: Histogram) -> int:
    """Split threshold whose bi-equalized output sum is nearest the input
    sum; ties go to the smallest threshold (see `_mmbebhe_thresholds`)."""
    counts = hist.counts[None]
    return int(_mmbebhe_thresholds(counts, counts.cumsum(axis=1))[0])
