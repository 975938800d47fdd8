"""The enhancement methods by CLI name, one registry of the single method
shape: a compiler from the level counts of k histograms, a (k x 256)
int64 stack, to their k maps, a (k x 256) uint8 stack. HE, BBHE and
MMBEBHE are `histeq._split_maps` over their `histeq._SPLIT_RULES`.

Each kind of input has one entry point over the registry: an image goes
to `enhance`, a histogram to `compile_lut`, and a fuzzy config to
`fuzzy.fuzzy_lut`. Enhancing compiles one image's level counts and
applies the map (`apply_lut`); scoring compiles and calls
`metrics._evaluate_maps`, which needs no pixel pass, so a batch of images
pays each NumPy call once per method.
Both take the counts from `image._level_counts` and build no `Histogram`.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from . import fuzzy, histeq
from .histeq import IntensityLut, apply_lut
from .image import GrayImage, Histogram, _level_counts

LutCompiler = Callable[[np.ndarray], np.ndarray]

# in the key order of `cli.METHOD_NAMES` and the CLI usage text
LUT_COMPILERS: dict[str, LutCompiler] = {
    **{name: functools.partial(histeq._split_maps, rule=rule) for name, rule in histeq._SPLIT_RULES.items()},
    "fuzzy": fuzzy._default_maps,
}


def lut_compilers(fuzzy_config: fuzzy.FuzzyConfig | None = None) -> dict[str, LutCompiler]:
    """The registry, with `fuzzy` mapping every histogram to the LUT of
    `fuzzy_config` instead of its default config when one is given. That
    LUT depends on no histogram, so it is compiled once, on first use."""
    if fuzzy_config is None:
        return LUT_COMPILERS
    compiled = functools.cache(lambda: fuzzy.fuzzy_lut(fuzzy_config).map)
    return {**LUT_COMPILERS, "fuzzy": lambda counts: np.broadcast_to(compiled(), counts.shape)}


def enhance(img: GrayImage, method: str, fuzzy_config: fuzzy.FuzzyConfig | None = None) -> GrayImage:
    """`img` enhanced by `method`, a key of `LUT_COMPILERS`: the LUT of its
    level counts applied to every pixel."""
    maps = lut_compilers(fuzzy_config)[method](_level_counts(img.pixels)[None])
    return apply_lut(img, IntensityLut(maps[0]))


def compile_lut(hist: Histogram, method: str) -> IntensityLut:
    """The LUT that `method`, a key of `LUT_COMPILERS`, compiles for `hist`:
    the registry's map of a stack of one."""
    return IntensityLut(LUT_COMPILERS[method](hist.counts[None])[0])
