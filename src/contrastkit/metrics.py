"""Image quality measures: MSE, PSNR, entropy, and AMBE.

PSNR uses the 8-bit peak (L-1)^2 = 255^2 = 65025 and returns +inf for a
zero MSE so that a perfect reconstruction is representable rather than an
error. Entropy is in bits (log base 2), bounded by 8 for 8-bit images.

`_report` is the one derivation of the four measures, from exact integers.
`evaluate` scores two arbitrary images pixel by pixel; `evaluate_luts`
scores an image against each of several LUTs in one stacked (LUTs x 256)
pass over its histogram alone, each report bit-identical to
`evaluate(img, apply_lut(img, lut))`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .histeq import IntensityLut
from .image import _HIST_BLOCK, _LEVEL_VALUES, LEVELS, GrayImage, Histogram, histogram

PSNR_PEAK_SQ = 255.0 * 255.0


@dataclass(frozen=True)
class MetricsReport:
    """The four quality measures of one enhancement result."""

    mse: float
    psnr: float
    entropy: float
    ambe: float


def _report(n: int, sq_err: int, in_sum: int, out_sum: int, after_counts: np.ndarray) -> MetricsReport:
    """The report of `n` pixels with squared error `sq_err`, input and output
    level sums `in_sum` and `out_sum`, and output level counts `after_counts`."""
    err = sq_err / n
    psnr = math.inf if sq_err == 0 else 10.0 * math.log10(PSNR_PEAK_SQ / err)
    # summed over this row's positive terms alone: zero padding, or one
    # `np.add.reduceat` over many rows, changes NumPy's pairwise blocking
    p = after_counts[after_counts > 0] / n
    return MetricsReport(err, psnr, float(-(p * np.log2(p)).sum()), abs(in_sum / n - out_sum / n))


def evaluate(original: GrayImage, processed: GrayImage) -> MetricsReport:
    """Bundle the four measures for one enhancement result.

    Entropy is measured on the processed image (detail richness of the
    output); the other three compare processed against original.
    """
    if (original.width, original.height) != (processed.width, processed.height):
        raise ValueError(
            f"dimension mismatch: {original.width}x{original.height} vs "
            f"{processed.width}x{processed.height}"
        )
    a, b = original.pixels.ravel(), processed.pixels.ravel()
    sq_err = 0  # exact integer squares, block by block: the extra memory is bounded
    for start in range(0, a.size, _HIST_BLOCK):
        diff = a[start : start + _HIST_BLOCK].astype(np.int64) - b[start : start + _HIST_BLOCK]
        sq_err += int(diff @ diff)
    before, after = histogram(original), histogram(processed)
    return _report(before.total, sq_err, before.level_sum, after.level_sum, after.counts)


def evaluate_luts(hist: Histogram, luts: Sequence[IntensityLut]) -> list[MetricsReport]:
    """:func:`evaluate` of an image against each LUT applied to it, from the
    image's histogram `hist` alone; no LUTs give no reports.

    The squared errors, output sums and output counts are the same exact
    integers the pixel path takes, so every report is bit-identical.
    """
    if not luts:
        return []
    maps = np.array([lut.map for lut in luts])  # (m, 256) uint8
    diff = _LEVEL_VALUES - maps
    errs = ((diff * diff) @ hist.counts).tolist()
    # row i's output levels land in bins 256 i .. 256 i + 255; the float64
    # weighted counts are exact integers below 2**53
    bins = (maps + np.arange(0, maps.size, LEVELS)[:, None]).ravel()
    weights = np.concatenate([hist.counts] * len(luts))
    after = np.bincount(bins, weights, minlength=maps.size).astype(np.int64).reshape(maps.shape)
    sums = (after @ _LEVEL_VALUES).tolist()
    n, in_sum = hist.total, hist.level_sum
    return [_report(n, e, in_sum, s, row) for e, s, row in zip(errs, sums, after)]
