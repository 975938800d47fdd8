"""Independent output oracle for the benchmark.

Nothing here imports contrastkit. Each function rebuilds what a CLI
command must write from the documented rules, in exact integer arithmetic
where the rules are exact:

- HE, BBHE and MMBEBHE maps with exact half-up rounding; MMBEBHE takes the
  threshold with the smallest |input sum - output sum|, ties to the
  smallest threshold;
- the three-rule Mamdani fuzzy LUT on the default image-adaptive sets,
  evaluated with integer numerators over a common denominator;
- MSE, PSNR, entropy and AMBE recomputed from pixels, in row chunks so
  the oracle never holds a full-image temporary, and formatted as the
  `report` CSV is;
- the scalar splitmix64 stream for `synth`;
- PGM encoding (P5 raw, P2 with 17 samples per line).
"""

from __future__ import annotations

import math

import numpy as np

LEVELS = 256
MAX = 255
CHUNK_ROWS = 64
METHODS = ("he", "bbhe", "mmbebhe", "fuzzy")


def counts_of(pixels: np.ndarray) -> np.ndarray:
    """256-bin tally of a uint8 array, accumulated one row chunk at a time."""
    counts = np.zeros(LEVELS, dtype=np.int64)
    for start in range(0, pixels.shape[0], CHUNK_ROWS):
        counts += np.bincount(pixels[start : start + CHUNK_ROWS].ravel(), minlength=LEVELS)
    return counts


def _round_half_up(num, den):
    return (2 * num + den) // (2 * den)


def he_map(counts: np.ndarray) -> np.ndarray:
    """Level k -> round(255 * cum(k) / N), halves up."""
    cum = np.cumsum(counts)
    return _round_half_up(MAX * cum, int(cum[-1]))


def segment_maps(counts: np.ndarray) -> np.ndarray:
    """(256, 256) array: row t is the bi-equalization map split at t.

    Levels <= t equalize onto [0, t], levels > t onto [t+1, 255]; a side
    with no pixels keeps the identity on its segment.
    """
    cum = np.cumsum(counts)
    total = int(cum[-1])
    t = np.arange(LEVELS, dtype=np.int64)[:, None]
    k = np.arange(LEVELS, dtype=np.int64)[None, :]
    n_low = cum[:, None]
    n_high = total - n_low
    low = np.where(n_low > 0, _round_half_up(t * cum[None, :], np.maximum(n_low, 1)), k)
    high = np.where(
        n_high > 0,
        t + 1 + _round_half_up((MAX - 1 - t) * (cum[None, :] - n_low), np.maximum(n_high, 1)),
        k,
    )
    return np.where(k <= t, low, high)


def bbhe_map(counts: np.ndarray) -> np.ndarray:
    total = int(counts.sum())
    level_sum = int(np.dot(np.arange(LEVELS, dtype=np.int64), counts))
    return segment_maps(counts)[level_sum // total]


def mmbebhe_map(counts: np.ndarray) -> np.ndarray:
    maps = segment_maps(counts)
    level_sum = int(np.dot(np.arange(LEVELS, dtype=np.int64), counts))
    errors = np.abs(maps @ counts - level_sum)
    return maps[int(np.argmin(errors))]  # argmin returns the first minimum


# Output sets (darker, mid, brighter) as integer numerators over 16256,
# the least common multiple of their slopes' denominators 128, 64, 127.
_OUT_DEN = 16256


def _output_numerators() -> np.ndarray:
    x = np.arange(LEVELS, dtype=np.int64)
    darker = np.where(x == 0, 128, np.where(x < 128, 128 - x, 0)) * (_OUT_DEN // 128)
    mid = np.where((x > 64) & (x < 128), x - 64, 0) + np.where((x >= 128) & (x < 192), 192 - x, 0)
    mid = np.where(x == 128, 64, mid) * (_OUT_DEN // 64)
    brighter = np.where(x == MAX, 127, np.where(x > 128, x - 128, 0)) * (_OUT_DEN // 127)
    return np.stack([darker, mid, brighter])


_OUTPUT_SETS = _output_numerators()


def fuzzy_map(lo: int, hi: int) -> np.ndarray:
    """Default-config fuzzy LUT for an image with intensity range [lo, hi].

    Input sets are the dark (lo, lo, m), gray (lo, m, hi) and bright
    (m, hi, hi) triangles with m = (lo + hi) / 2, so every activation is an
    integer over D = hi - lo. A range below 2 levels gives the identity.
    Levels where no rule fires pass through unchanged.
    """
    g = np.arange(LEVELS, dtype=np.int64)
    span = hi - lo
    if span < 2:
        return g.copy()
    two_g = 2 * g
    inside = (g >= lo) & (g <= hi)
    dark = np.where(g == lo, span, np.clip(lo + hi - two_g, 0, None))
    gray = np.clip(np.minimum(2 * (g - lo), 2 * (hi - g)), 0, None)
    gray = np.where(lo + hi == two_g, span, gray)
    bright = np.where(g == hi, span, np.clip(two_g - lo - hi, 0, None))
    acts = np.where(inside, np.stack([dark, gray, bright]), 0)  # (3, 256) over D
    # common denominator D * 16256: activations scale by 16256, memberships by D
    clipped = np.minimum(acts[:, :, None] * _OUT_DEN, _OUTPUT_SETS[:, None, :] * span)
    agg = clipped.max(axis=0)  # (levels, grid)
    den = agg.sum(axis=1)
    num = agg @ np.arange(LEVELS, dtype=np.int64)
    crisp = _round_half_up(num, np.maximum(den, 1))
    return np.where(den > 0, np.clip(crisp, 0, MAX), g)


def method_map(method: str, counts: np.ndarray) -> np.ndarray:
    if method == "he":
        return he_map(counts)
    if method == "bbhe":
        return bbhe_map(counts)
    if method == "mmbebhe":
        return mmbebhe_map(counts)
    nonzero = np.flatnonzero(counts)
    return fuzzy_map(int(nonzero[0]), int(nonzero[-1]))


def _fmt(value: float) -> str:
    return "inf" if value == math.inf else f"{value:.4f}"


def metrics_row(pixels: np.ndarray, lut: np.ndarray) -> str:
    """mse,psnr,entropy,ambe of (pixels, lut[pixels]), recomputed per pixel."""
    lut8 = lut.astype(np.uint8)
    n = pixels.size
    sq = in_sum = out_sum = 0
    out_counts = np.zeros(LEVELS, dtype=np.int64)
    for start in range(0, pixels.shape[0], CHUNK_ROWS):
        block = pixels[start : start + CHUNK_ROWS]
        out = lut8[block]
        diff = block.astype(np.int64) - out
        sq += int((diff * diff).sum())
        in_sum += int(block.sum(dtype=np.int64))
        out_sum += int(out.sum(dtype=np.int64))
        out_counts += np.bincount(out.ravel(), minlength=LEVELS)
    mse = sq / n
    psnr = math.inf if sq == 0 else 10.0 * math.log10(65025.0 / mse)
    p = out_counts[out_counts > 0] / n
    entropy = -math.fsum(p * np.log2(p))
    ambe = abs(in_sum / n - out_sum / n)
    return ",".join(_fmt(v) for v in (mse, psnr, entropy, ambe))


def report_csv(images: list[tuple[str, np.ndarray]], methods=METHODS) -> bytes:
    """Expected `report` output for (path, pixels) inputs, every method."""
    lines = ["image,method,mse,psnr,entropy,ambe"]
    for path, pixels in images:
        counts = counts_of(pixels)
        for method in methods:
            lines.append(f"{path},{method},{metrics_row(pixels, method_map(method, counts))}")
    return ("\n".join(lines) + "\n").encode("ascii")


def encode_p5(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes()


def encode_p2(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    lines = []
    for row in pixels.tolist():
        for start in range(0, w, 17):
            lines.append(" ".join(map(str, row[start : start + 17])))
    return f"P2\n{w} {h}\n255\n".encode("ascii") + ("\n".join(lines) + "\n").encode("ascii")


def enhance_output(pixels: np.ndarray, method: str, fmt: str) -> bytes:
    """Expected `enhance` output file for one input image."""
    out = method_map(method, counts_of(pixels))[pixels]
    return encode_p2(out) if fmt == "P2" else encode_p5(out)


def synth_output(width: int, height: int, lo: int, hi: int, seed: int) -> bytes:
    """Expected `synth` output: lo + splitmix64() mod (hi - lo + 1), row-major."""
    mask = (1 << 64) - 1
    span = hi - lo + 1
    state = seed & mask
    out = bytearray(width * height)
    for i in range(width * height):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out[i] = lo + (z ^ (z >> 31)) % span
    return f"P5\n{width} {height}\n255\n".encode("ascii") + bytes(out)
