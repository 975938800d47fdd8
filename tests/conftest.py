import json
import tracemalloc

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from contrastkit import GrayImage


def pixel_arrays(max_side: int = 16):
    """uint8 arrays of shape (h, w), 1 <= h, w <= max_side."""
    return hnp.arrays(
        dtype=np.uint8,
        shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=max_side),
    )


def gray_images(max_side: int = 16):
    return pixel_arrays(max_side).map(GrayImage)


@st.composite
def low_contrast_images(draw, min_span=2, max_span=56):
    """Images whose pixel values all sit inside a narrow window."""
    lo = draw(st.integers(0, 255 - min_span))
    hi = draw(st.integers(lo + min_span, min(255, lo + max_span)))
    w = draw(st.integers(2, 12))
    h = draw(st.integers(2, 12))
    vals = draw(
        st.lists(st.integers(lo, hi), min_size=w * h, max_size=w * h).filter(
            lambda v: max(v) - min(v) >= min_span
        )
    )
    return GrayImage.from_flat(w, h, vals)


def traced_peak(fn, *args):
    """Peak bytes traced while `fn(*args)` runs, above what was live before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def config_json(cfg) -> str:
    """`cfg`, a `FuzzyConfig`, as the JSON document that `FuzzyConfig.from_json`
    and `--fuzzy-config` read."""
    def sets(fns):
        return [{"a": f.a, "b": f.b, "c": f.c} for f in fns]

    doc = {"input_sets": sets(cfg.input_sets), "output_sets": sets(cfg.output_sets), "resolution": cfg.resolution}
    return json.dumps(doc, indent=2)
