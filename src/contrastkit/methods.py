"""The enhancement methods by CLI name, one registry of the single method
shape: a compiler from an image's `Histogram` to its `IntensityLut`.

Enhancing is compile + `apply_lut` (`enhance`); scoring is compile +
`metrics.evaluate_luts`, which needs no pixel pass.
"""

from __future__ import annotations

from typing import Callable

from . import fuzzy, histeq
from .histeq import IntensityLut, apply_lut
from .image import GrayImage, Histogram, histogram

LutCompiler = Callable[[Histogram], IntensityLut]

# Each entry looks its compiler up when called, so a rebound module
# attribute (a profiler's wrapper, a test double) is the one that runs.
LUT_COMPILERS: dict[str, LutCompiler] = {
    "he": lambda hist: histeq.he_lut(hist),
    "bbhe": lambda hist: histeq.bbhe_lut(hist),
    "mmbebhe": lambda hist: histeq.mmbebhe_lut(hist),
    "fuzzy": lambda hist: fuzzy.default_lut(hist),
}


def lut_compilers(fuzzy_config: fuzzy.FuzzyConfig | None = None) -> dict[str, LutCompiler]:
    """The registry, with `fuzzy` compiling `fuzzy_config` instead of the
    histogram's default config when one is given."""
    if fuzzy_config is None:
        return LUT_COMPILERS
    return {**LUT_COMPILERS, "fuzzy": lambda hist: fuzzy.fuzzy_lut(fuzzy_config)}


def enhance(img: GrayImage, method: str, fuzzy_config: fuzzy.FuzzyConfig | None = None) -> GrayImage:
    """`img` enhanced by `method`, a key of `LUT_COMPILERS`: its histogram's
    LUT applied to every pixel."""
    return apply_lut(img, lut_compilers(fuzzy_config)[method](histogram(img)))
