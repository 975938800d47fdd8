"""Image quality measures: MSE, PSNR, entropy, and AMBE.

PSNR uses the 8-bit peak (L-1)^2 = 255^2 = 65025 and returns +inf for a
zero MSE so that a perfect reconstruction is representable rather than an
error. Entropy is in bits (log base 2), bounded by 8 for 8-bit images.

`evaluate` scores two arbitrary images pixel by pixel. `evaluate_lut`
scores an image against `lut` applied to it in O(256), from the image's
histogram alone, with a report bit-identical to
`evaluate(img, apply_lut(img, lut))`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .histeq import IntensityLut
from .image import _HIST_BLOCK, LEVELS, GrayImage, Histogram, histogram

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


def _entropy_bits(hist: Histogram) -> float:
    p = hist.probabilities()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _psnr_from_mse(err: float) -> float:
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(PSNR_PEAK_SQ / err)


def entropy(img: GrayImage) -> float:
    """Shannon entropy of the intensity distribution, in bits (0..8)."""
    return _entropy_bits(histogram(img))


def ambe(original: GrayImage, processed: GrayImage) -> float:
    """Absolute mean brightness error; lower means brightness preserved."""
    _check_same_dims(original, processed)
    return abs(histogram(original).mean() - histogram(processed).mean())


def _report(err: float, before: Histogram, after: Histogram) -> MetricsReport:
    """The report from an MSE and the original's and result's histograms."""
    mean_shift = abs(before.mean() - after.mean())
    return MetricsReport(err, _psnr_from_mse(err), _entropy_bits(after), mean_shift)


def evaluate(original: GrayImage, processed: GrayImage) -> MetricsReport:
    """Bundle the four measures for one enhancement result.

    Entropy is measured on the processed image (detail richness of the
    output); the other three compare processed against original.
    """
    return _report(mse(original, processed), histogram(original), histogram(processed))


def evaluate_lut(hist: Histogram, lut: IntensityLut) -> MetricsReport:
    """:func:`evaluate` of an image against `lut` applied to it, from the
    image's histogram `hist` alone.

    MSE and both means come from the same exact integer sums as the pixel
    path, and entropy from the same output histogram, so the report is
    bit-identical.
    """
    if hist.total == 0:
        raise ValueError("cannot score an empty histogram")
    diff = np.arange(LEVELS, dtype=np.int64) - lut.map
    err = int((diff * diff) @ hist.counts) / hist.total
    # the float64 weighted counts are exact integers below 2**53
    after = np.bincount(lut.map, weights=hist.counts, minlength=LEVELS).astype(np.int64)
    return _report(err, hist, Histogram(after))
