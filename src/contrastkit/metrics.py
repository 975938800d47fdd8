"""Image quality measures: MSE, PSNR, entropy, and AMBE.

PSNR uses the 8-bit peak (L-1)^2 = 255^2 = 65025 and returns +inf for a
zero MSE so that a perfect reconstruction is representable rather than an
error. Entropy is in bits (log base 2), bounded by 8 for 8-bit images.

`evaluate` scores two arbitrary images pixel by pixel. `evaluate_luts`
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


def _check_same_dims(original: GrayImage, processed: GrayImage) -> None:
    if (original.width, original.height) != (processed.width, processed.height):
        raise ValueError(
            f"dimension mismatch: {original.width}x{original.height} vs "
            f"{processed.width}x{processed.height}"
        )


@dataclass(frozen=True)
class MetricsReport:
    """The four quality measures of one enhancement result."""

    mse: float
    psnr: float
    entropy: float
    ambe: float


def mse(original: GrayImage, processed: GrayImage) -> float:
    """Mean squared pixel difference; lower is better. Exact integer squares
    are summed block by block, so the extra memory is bounded."""
    _check_same_dims(original, processed)
    a, b = original.pixels.ravel(), processed.pixels.ravel()
    total = 0
    for start in range(0, a.size, _HIST_BLOCK):
        diff = a[start : start + _HIST_BLOCK].astype(np.int64) - b[start : start + _HIST_BLOCK]
        total += int(diff @ diff)
    return total / original.size


def psnr(original: GrayImage, processed: GrayImage) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the images are identical."""
    return _psnr_from_mse(mse(original, processed))


def _entropy_bits(counts: np.ndarray, total: int) -> float:
    # summed over this row's positive terms alone: zero padding, or one
    # `np.add.reduceat` over many rows, changes NumPy's pairwise blocking
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _psnr_from_mse(err: float) -> float:
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(PSNR_PEAK_SQ / err)


def entropy(img: GrayImage) -> float:
    """Shannon entropy of the intensity distribution, in bits (0..8)."""
    hist = histogram(img)
    return _entropy_bits(hist.counts, hist.total)


def ambe(original: GrayImage, processed: GrayImage) -> float:
    """Absolute mean brightness error; lower means brightness preserved."""
    _check_same_dims(original, processed)
    return abs(histogram(original).mean() - histogram(processed).mean())


def _report(err: float, mean_shift: float, after: np.ndarray, total: int) -> MetricsReport:
    """The report from an MSE, an AMBE and the result's counts."""
    return MetricsReport(err, _psnr_from_mse(err), _entropy_bits(after, total), mean_shift)


def evaluate(original: GrayImage, processed: GrayImage) -> MetricsReport:
    """Bundle the four measures for one enhancement result.

    Entropy is measured on the processed image (detail richness of the
    output); the other three compare processed against original.
    """
    before, after = histogram(original), histogram(processed)
    mean_shift = abs(before.mean() - after.mean())
    return _report(mse(original, processed), mean_shift, after.counts, after.total)


def evaluate_luts(hist: Histogram, luts: Sequence[IntensityLut]) -> list[MetricsReport]:
    """:func:`evaluate` of an image against each LUT applied to it, from the
    image's histogram `hist` alone; no LUTs give no reports.

    MSE and both means come from the same exact integer sums as the pixel
    path, and entropy from the same output counts, so every report is
    bit-identical.
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
    mean_in, n = hist.mean(), hist.total
    return [_report(e / n, abs(mean_in - s / n), row, n) for e, s, row in zip(errs, sums, after)]
