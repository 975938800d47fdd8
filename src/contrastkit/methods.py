"""The enhancement methods by CLI name, `METHODS`, and their one compile
path, `compile_maps`: from the level counts of k histograms to the maps of
m methods, all split methods in one pass.

Each kind of input has one entry point over it: an image goes to
`enhance`, a histogram to `compile_lut`, and a fuzzy config, whose LUT
needs no counts, to the `fuzzy` module. Enhancing compiles one image's
level counts and applies the map (`apply_lut`); scoring compiles a batch
of images in one call and scores it with `metrics._evaluate_maps` in one
pass, with no pixel pass. Both take their counts from `_level_counts`,
build no `Histogram` and compile with `_compile_maps`, which skips
`compile_maps`'s check of them.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import fuzzy, histeq
from .histeq import apply_lut
from .image import GrayImage, Histogram, IntensityLut, _checked_counts, _level_counts

# in the order of the CLI usage text
METHODS = (*histeq._SPLIT_RULES, "fuzzy")


def compile_maps(names: Sequence[str], counts: np.ndarray) -> np.ndarray:
    """The maps (m x k x 256 uint8) of the m methods `names`, each in
    `METHODS`, for the level counts `counts` (k x 256) of k histograms. The
    split methods share one cumsum and one `histeq._split_maps` pass over
    all their thresholds; `fuzzy` maps each histogram by its default config.
    Counts `Histogram` would refuse, or not of shape (k x 256), raise `ValueError`."""
    return _compile_maps(names, _checked_counts(counts, 2))


def _compile_maps(names: Sequence[str], counts: np.ndarray) -> np.ndarray:
    """`compile_maps` of counts already checked: the int64 (k x 256) stack
    of `_level_counts` or `Histogram` counts, which meet every rule."""
    maps = {}
    split = [name for name in dict.fromkeys(names) if name != "fuzzy"]  # each rule runs once
    if split:
        cum = counts.cumsum(axis=1)
        thresholds = np.array([histeq._SPLIT_RULES[name](counts, cum) for name in split])
        maps = dict(zip(split, histeq._split_maps(cum, thresholds)))
    if "fuzzy" in names:
        maps["fuzzy"] = fuzzy._default_maps(counts)
    return np.array([maps[name] for name in names], dtype=np.uint8).reshape(len(names), *counts.shape)


def enhance(img: GrayImage, method: str) -> GrayImage:
    """`img` enhanced by `method`, a name in `METHODS`: the LUT of its level
    counts applied to every pixel."""
    return apply_lut(img, IntensityLut(_compile_maps([method], _level_counts(img.pixels)[None])[0, 0]))


def compile_lut(hist: Histogram, method: str) -> IntensityLut:
    """The LUT that `method`, a name in `METHODS`, compiles for `hist`."""
    return IntensityLut(_compile_maps([method], hist.counts[None])[0, 0])
