"""Grayscale contrast enhancement toolkit.

Histogram equalization and its brightness-preserving variants (BBHE,
MMBEBHE), a rule-based fuzzy enhancement pipeline, four quality measures
(MSE, PSNR, entropy, AMBE), and a bit-exact PGM codec. See the
`contrastkit` CLI for batch use.
"""

from .fuzzy import (
    FuzzyConfig,
    MembershipFunction,
    default_config,
    fuzzy_lut,
)
from .histeq import (
    IntensityLut,
    apply_lut,
    mmbebhe_threshold,
)
from .image import (
    GrayImage,
    Histogram,
    PgmDecodeError,
    histogram,
    load_pgm,
    save_pgm,
)
from .methods import LUT_COMPILERS, compile_lut, enhance
from .metrics import MetricsReport, evaluate, evaluate_luts

__version__ = "0.1.0"

__all__ = [
    "GrayImage",
    "Histogram",
    "PgmDecodeError",
    "histogram",
    "load_pgm",
    "save_pgm",
    "IntensityLut",
    "apply_lut",
    "mmbebhe_threshold",
    "MembershipFunction",
    "FuzzyConfig",
    "default_config",
    "fuzzy_lut",
    "LUT_COMPILERS",
    "compile_lut",
    "enhance",
    "MetricsReport",
    "evaluate",
    "evaluate_luts",
    "__version__",
]
