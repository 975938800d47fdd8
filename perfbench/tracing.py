"""Per-layer tracing from outside the program.

`Tracer` wraps each public function named in `TRACED` in every
`contrastkit.*` module namespace that binds it (the CLI imports functions
by name, so wrapping only the defining module would miss its calls).
Each call records a span (name, start, end, parent span, op id) in memory,
written out when the run ends; self time is a span's duration minus the
time its child spans cover. A name that no longer exists is reported as
absent instead of failing.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

TRACED = (
    "image.load_pgm",
    "image.save_pgm",
    "image.histogram",
    "histeq.he_lut",
    "histeq.bbhe_lut",
    "histeq.mmbebhe_lut",
    "histeq.apply_lut",
    "fuzzy.default_config",
    "fuzzy.fuzzy_lut",
    "metrics.evaluate",
    "cli.enhance_image",
    "cli.generate_uniform_image",
    "cli.main",
)

# calls whose arguments or result feed a counter
_CAPTURED = {"image.load_pgm", "image.save_pgm", "image.histogram", "fuzzy.fuzzy_lut"}

COUNTERS = (
    ("image.load_pgm.mb_per_s", "MB/s", "higher"),
    ("image.save_pgm.mb_per_s", "MB/s", "higher"),
    ("image.histogram.useful_ratio", "share", "higher"),
    ("fuzzy.fuzzy_lut.distinct_span_ratio", "share", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

PER_FUNCTION = (("calls_per_op", "count"), ("self_ms_per_op", "ms"), ("share", "share"))


def per_layer_names() -> list[tuple[str, str, str]]:
    """(metric, unit, better) for every per-layer metric, in report order."""
    names = [(f"{f}.{m}", unit, "lower") for f in TRACED for m, unit in PER_FUNCTION]
    return names + list(COUNTERS)


def _pixels(arg):
    pixels = getattr(arg, "pixels", arg)
    return pixels if isinstance(pixels, np.ndarray) else None


def _span_key(args):
    """(min, max) intensity of the image a fuzzy compile was asked for."""
    for arg in args:
        pixels = _pixels(arg)
        if pixels is not None:
            return int(pixels.min()), int(pixels.max())
        counts = getattr(arg, "counts", None)
        if isinstance(counts, np.ndarray):
            nonzero = np.flatnonzero(counts)
            return int(nonzero[0]), int(nonzero[-1])
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._captured: list = []
        self._bindings: list = []
        self._counts: dict = defaultdict(int)
        package = [m for n, m in sys.modules.items() if n == "contrastkit" or n.startswith("contrastkit.")]
        for name in TRACED:
            module, _, attr = name.partition(".")
            original = getattr(sys.modules.get(f"contrastkit.{module}"), attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, key, original, wrapper))

    def install(self) -> None:
        for mod, key, _, wrapper in self._bindings:
            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original, _ in self._bindings:
            setattr(mod, key, original)

    def _wrap(self, name, fn):
        spans, stack, captured = self.spans, self._stack, self._captured
        capture = name in _CAPTURED

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if capture:
                captured.append((name, args, result))
            return result

        return traced

    def end_op(self) -> None:
        """Fold the arguments captured during one op into counters."""
        arrays: set = set()
        op_spans: set = set()
        for name, args, result in self._captured:
            if name == "image.load_pgm" and args:
                self._counts["load_bytes"] += len(args[0])
            elif name == "image.save_pgm" and isinstance(result, (bytes, bytearray)):
                self._counts["save_bytes"] += len(result)
            elif name == "image.histogram" and args and _pixels(args[0]) is not None:
                self._counts["hist_calls"] += 1
                arrays.add(hashlib.blake2b(_pixels(args[0]).tobytes(), digest_size=16).digest())
            elif name == "fuzzy.fuzzy_lut":
                key = _span_key(args)
                if key is not None:
                    self._counts["fuzzy_calls"] += 1
                    op_spans.add(key)
        self._counts["hist_distinct"] += len(arrays)
        self._counts["fuzzy_distinct"] += len(op_spans)
        self._captured.clear()

    def write(self, path) -> None:
        """One JSON line per span: name, start and end (ns), parent index, op id."""
        with open(path, "w", encoding="ascii") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def metrics(self, ops: int, op_seconds: float, overhead_ratio: float) -> tuple[dict, list[str]]:
        """Per-layer metrics over `ops` traced ops that took `op_seconds`."""
        dur = [end - start for _, start, end, _, _ in self.spans]
        child = [0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        calls: dict = defaultdict(int)
        self_ns: dict = defaultdict(int)
        for i, (name, *_rest) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += dur[i] - child[i]
        out = {}
        for name in TRACED:
            out[f"{name}.calls_per_op"] = calls[name] / ops
            out[f"{name}.self_ms_per_op"] = self_ns[name] / 1e6 / ops
            out[f"{name}.share"] = self_ns[name] / 1e9 / op_seconds
        absent = [f"{name}.{m}" for name in self.absent for m, _ in PER_FUNCTION]

        def ratio(metric, num, den):
            if den:
                out[metric] = num / den
            else:
                out[metric] = 0.0
                absent.append(metric)

        c = self._counts
        ratio("image.load_pgm.mb_per_s", c["load_bytes"] / 1e6, self_ns["image.load_pgm"] / 1e9)
        ratio("image.save_pgm.mb_per_s", c["save_bytes"] / 1e6, self_ns["image.save_pgm"] / 1e9)
        ratio("image.histogram.useful_ratio", c["hist_distinct"], c["hist_calls"])
        ratio("fuzzy.fuzzy_lut.distinct_span_ratio", c["fuzzy_distinct"], c["fuzzy_calls"])
        out["trace.overhead_ratio"] = overhead_ratio
        return out, absent
