"""Image quality measures: MSE, PSNR, entropy, and AMBE.

PSNR uses the 8-bit peak (L-1)^2 = 255^2 = 65025 and returns +inf for a
zero MSE so that a perfect reconstruction is representable rather than an
error. Entropy is in bits (log base 2), bounded by 8 for 8-bit images.

`MetricsReport` is the one score type, a named tuple, and `_reports` its
one derivation, from exact integers, for a stack of rows: the squared
error, the input level sum and the output level counts of each.
`evaluate` scores two arbitrary images pixel by pixel.
`_evaluate_maps` scores k images against m maps each in one stacked
(m x k x 256) pass over their histograms alone; `evaluate_luts` is that
pass for one image. Every score is bit-identical to
`evaluate(img, apply_lut(img, lut))`. As in `histeq`,
the stacked kernels call ufunc methods rather than the `np.*` wrappers.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .image import _BLOCK, _LEVEL_VALUES, LEVELS, GrayImage, Histogram, IntensityLut, _level_counts

PSNR_PEAK_SQ = 255.0 * 255.0


class MetricsReport(NamedTuple):
    """The four quality measures of one enhancement result."""

    mse: float
    psnr: float
    entropy: float
    ambe: float


def _reports(sq_errs: np.ndarray, in_sums: np.ndarray, after: np.ndarray) -> list[MetricsReport]:
    """The scores of each row r of `after` (rows x 256), the output level
    counts (so the pixel count and output level sum) of an image with
    squared error `sq_errs[r]` and input level sum `in_sums[r]`, all int64."""
    ns, out_sums = np.add.reduce(after, axis=1), after @ _LEVEL_VALUES
    # p * log2(p) of each count, 0 where it is 0 (as log2 of 1), elementwise
    # over the stack; each row sums all 256 of its terms, so a sum does not
    # depend on how many rows the stack holds
    p = after / ns[:, None]
    terms = np.log2(np.where(after > 0, p, 1.0))
    terms *= p
    entropies = np.add.reduce(terms, axis=1).tolist()
    scores = []
    for n, sq_err, in_sum, out_sum, e in zip(*(a.tolist() for a in (ns, sq_errs, in_sums, out_sums)), entropies):
        err = sq_err / n
        psnr = math.inf if sq_err == 0 else 10.0 * math.log10(PSNR_PEAK_SQ / err)
        scores.append(MetricsReport(err, psnr, -e, abs(in_sum / n - out_sum / n)))
    return scores


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
    for start in range(0, a.size, _BLOCK):
        diff = a[start : start + _BLOCK].astype(np.int64) - b[start : start + _BLOCK]
        sq_err += int(diff @ diff)
    in_sum = original.pixels.sum(dtype=np.int64)  # exact: at most 255 * 2**47
    return _reports(np.array([sq_err]), in_sum[None], _level_counts(processed.pixels)[None])[0]


def _evaluate_maps(counts: np.ndarray, maps: np.ndarray) -> list[MetricsReport]:
    """The scores of :func:`evaluate` of k images against m maps each, from
    their level counts `counts` (k x 256) alone: `maps` (m x k x 256, uint8)
    holds map j of image i at [j, i], and the scores come in that row-major
    order; no maps give no scores.

    The squared errors, input sums and output counts are the same exact
    integers the pixel path takes, so every score is bit-identical.
    """
    rows = maps.reshape(-1, LEVELS)
    weights = np.repeat(counts[None], len(maps), axis=0).reshape(rows.shape)  # row r: the counts of image r % k
    diff = _LEVEL_VALUES - rows
    # row r's output levels land in bins 256 r .. 256 r + 255; the float64
    # weighted counts are exact integers below 2**53
    bins = rows + np.arange(0, rows.size, LEVELS)[:, None]
    after = np.bincount(bins.ravel(), weights.ravel(), minlength=rows.size)
    after = after.astype(np.int64).reshape(rows.shape)
    return _reports(np.add.reduce(diff * diff * weights, axis=1), weights @ _LEVEL_VALUES, after)


def evaluate_luts(hist: Histogram, luts: Sequence[IntensityLut]) -> list[MetricsReport]:
    """:func:`evaluate` of an image against each LUT applied to it, from the
    image's histogram `hist` alone; no LUTs give no reports."""
    maps = np.array([lut.map for lut in luts], dtype=np.uint8).reshape(len(luts), 1, LEVELS)
    return _evaluate_maps(hist.counts[None], maps)
