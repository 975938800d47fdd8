"""Independent brute-force reimplementations used as test oracles.

Everything here is deliberately written from scratch in plain Python (or
exact integer arithmetic), without calling into contrastkit, so a bug in
the library cannot hide in its own oracle.
"""

from __future__ import annotations

import numpy as np


def tally_histogram(pixels) -> list[int]:
    """Naive per-pixel tally: O(N * L) scan, no bincount."""
    counts = [0] * 256
    for p in pixels:
        counts[int(p)] += 1
    return counts


def round_half_up_exact(num: int, den: int) -> int:
    """floor(num/den + 1/2) in exact integer arithmetic (num, den >= 0)."""
    return (2 * num + den) // (2 * den)


def he_map(counts: list[int]) -> list[int]:
    """Equalization map via plain prefix sums and exact rounding."""
    total = sum(counts)
    out = []
    cum = 0
    for k in range(256):
        cum += counts[k]
        out.append(round_half_up_exact(255 * cum, total))
    return out


def segment_map(counts: list[int], threshold: int) -> list[int]:
    """Bi-equalization map at `threshold`: levels <= t onto [0, t], levels
    > t onto [t+1, 255]; an empty side keeps identity."""
    t = threshold
    out = list(range(256))
    n_low = sum(counts[: t + 1])
    n_high = sum(counts[t + 1 :])
    cum = 0
    for k in range(t + 1):
        cum += counts[k]
        if n_low:
            out[k] = round_half_up_exact(t * cum, n_low)
    cum = 0
    for k in range(t + 1, 256):
        cum += counts[k]
        if n_high:
            out[k] = (t + 1) + round_half_up_exact((254 - t) * cum, n_high)
    return out


def apply_map(mapping: list[int], pixels) -> list[int]:
    return [mapping[int(p)] for p in pixels]


def min_mean_error_threshold(pixels) -> int:
    """Materialize the bi-equalized image at every threshold, measure each
    output mean directly, and pick the argmin (smallest t on ties)."""
    pixels = [int(p) for p in pixels]
    counts = tally_histogram(pixels)
    in_mean = sum(pixels) / len(pixels)
    best_t, best_err = 0, float("inf")
    for t in range(256):
        out = apply_map(segment_map(counts, t), pixels)
        err = abs(in_mean - sum(out) / len(out))
        if err < best_err:
            best_t, best_err = t, err
    return best_t


def triangle_centroid_quadrature(a: float, b: float, c: float, points: int = 200_001) -> float:
    """Continuous center of gravity of a triangular membership function via
    dense trapezoidal integration over [0, 255]."""
    xs = np.linspace(0.0, 255.0, points)
    mu = np.zeros_like(xs)
    if b > a:
        rising = (xs > a) & (xs < b)
        mu[rising] = (xs[rising] - a) / (b - a)
    if c > b:
        falling = (xs > b) & (xs < c)
        mu[falling] = (c - xs[falling]) / (c - b)
    mu[xs == b] = 1.0
    num = np.trapezoid(xs * mu, xs)
    den = np.trapezoid(mu, xs)
    return float(num / den)


# ---------------------------------------------------------------------------
# PGM codec and synth generator references
# ---------------------------------------------------------------------------

PGM_WHITESPACE = b" \t\n\r\x0b\x0c"
MASK64 = (1 << 64) - 1


def p2_raster_samples(raster: bytes, count: int, maxval: int) -> list[int]:
    """Token-at-a-time scan of a P2 raster (the bytes after maxval).

    Tokens are runs of bytes other than whitespace and `#`; a `#` starts a
    comment that ends after the next CR or LF. Each of the first `count`
    tokens must be ASCII digits. Raises ValueError carrying the decoder's
    message for the first problem met, in scan order.
    """
    pos, n = 0, len(raster)

    def skip_separators(pos: int) -> int:
        while pos < n:
            ch = raster[pos : pos + 1]
            if ch == b"#":
                ends = [e for e in (raster.find(b"\n", pos), raster.find(b"\r", pos)) if e != -1]
                pos = min(ends) + 1 if ends else n
            elif ch in PGM_WHITESPACE:
                pos += 1
            else:
                break
        return pos

    values = []
    for _ in range(count):
        pos = skip_separators(pos)
        if pos >= n:
            raise ValueError(f"truncated pixel data: expected {count} samples, got {len(values)}")
        start = pos
        while pos < n and raster[pos : pos + 1] not in PGM_WHITESPACE + b"#":
            pos += 1
        token = raster[start:pos]
        if not all(ord("0") <= b <= ord("9") for b in token):
            raise ValueError(f"malformed pixel sample: {token!r}")
        values.append(int(token))
    if skip_separators(pos) < n:
        raise ValueError("trailing data after ASCII raster")
    if max(values) > maxval:
        raise ValueError(f"pixel sample {max(values)} exceeds declared maxval {maxval}")
    return values


def encode_p2(pixels) -> bytes:
    """P2 file with maxval 255, each row wrapped into lines of at most 17
    space-separated decimal samples."""
    rows = [[int(v) for v in row] for row in pixels]
    lines = []
    for row in rows:
        for start in range(0, len(row), 17):
            lines.append(" ".join(str(v) for v in row[start : start + 17]))
    header = f"P2\n{len(rows[0])} {len(rows)}\n255\n"
    return (header + "\n".join(lines) + "\n").encode("ascii")


def splitmix64(seed: int):
    """Infinite stream of 64-bit outputs from the scalar splitmix64
    generator; the seed is reduced mod 2**64 first."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)
