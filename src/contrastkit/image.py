"""Grayscale image container, histogram statistics, and a PGM (P2/P5) codec.

Images are 8-bit: 256 gray levels, values 0..255. Files with maxval < 255
are accepted and their samples kept as-is (no rescaling); saving always
writes maxval 255.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

LEVELS = 256
MAX_LEVEL = LEVELS - 1

_WHITESPACE = b" \t\n\r\x0b\x0c"
_COMMENT = re.compile(rb"#[^\n\r]*")

# Value of each byte in a P2 raster: a digit's value, or one of two
# markers for whitespace and for any other byte.
_SEPARATOR, _MALFORMED = 10, 11
_BYTE_VALUE = np.full(256, _MALFORMED, dtype=np.uint16)
_BYTE_VALUE[list(_WHITESPACE)] = _SEPARATOR
_BYTE_VALUE[ord("0") : ord("9") + 1] = np.arange(10)

# P2 sample tokens with their separator: index v is level v and a space,
# index v + LEVELS is level v ending its line
_P2_TOKENS = [f"{v} ".encode("ascii") for v in range(LEVELS)] + [
    f"{v}\n".encode("ascii") for v in range(LEVELS)
]


class PgmDecodeError(ValueError):
    """Raised when a byte stream is not a decodable P2/P5 PGM file."""


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Immutable 8-bit grayscale image backed by a (height, width) array."""

    pixels: np.ndarray
    levels: ClassVar[int] = LEVELS

    def __post_init__(self) -> None:
        arr = np.asarray(self.pixels)
        if arr.ndim != 2:
            raise ValueError(f"pixels must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image dimensions must be >= 1, got {arr.shape}")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"pixel values must be integers, got dtype {arr.dtype}")
            if arr.min() < 0 or arr.max() > MAX_LEVEL:
                raise ValueError("pixel values must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @classmethod
    def from_flat(cls, width: int, height: int, values) -> "GrayImage":
        """Build an image from a row-major flat sequence of intensities."""
        arr = np.asarray(values)
        if arr.size != width * height:
            raise ValueError(f"expected {width * height} values, got {arr.size}")
        return cls(arr.reshape(height, width))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def size(self) -> int:
        """Total pixel count."""
        return self.pixels.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )


@dataclass(frozen=True, eq=False)
class Histogram:
    """Per-level pixel counts (256 bins) with derived probability views.

    Counts are raw integers; probabilities and the CDF are computed on
    demand in double precision.
    """

    counts: np.ndarray
    total: int = field(init=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts, dtype=np.int64)
        if arr.shape != (LEVELS,):
            raise ValueError(f"counts must have {LEVELS} bins, got shape {arr.shape}")
        if arr.min() < 0:
            raise ValueError("counts must be non-negative")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "total", int(arr.sum()))

    def probabilities(self) -> np.ndarray:
        """Occurrence probability of each level (counts / total)."""
        if self.total == 0:
            raise ValueError("empty histogram has no probability mass")
        return self.counts / self.total

    def cdf(self) -> np.ndarray:
        """Cumulative distribution over levels; non-decreasing, ends at 1."""
        if self.total == 0:
            raise ValueError("empty histogram has no CDF")
        return np.cumsum(self.counts) / self.total

    def mean(self) -> float:
        """Mean intensity of the tallied pixels."""
        if self.total == 0:
            raise ValueError("empty histogram has no mean")
        weighted = int(np.dot(np.arange(LEVELS, dtype=np.int64), self.counts))
        return weighted / self.total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return bool(np.array_equal(self.counts, other.counts))


def histogram(img: GrayImage) -> Histogram:
    """Count the pixels of `img` at each of the 256 gray levels."""
    counts = np.bincount(img.pixels.ravel(), minlength=LEVELS)
    return Histogram(counts)


def mean_intensity(img: GrayImage) -> float:
    """Arithmetic mean of all pixel values (exact integer sum / N)."""
    return int(img.pixels.sum(dtype=np.int64)) / img.size


# ---------------------------------------------------------------------------
# PGM codec
# ---------------------------------------------------------------------------


class _HeaderScanner:
    """Token scanner for the PGM header: whitespace-separated fields with
    `#` comments running to end of line."""

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos

    def skip_separators(self) -> None:
        data, n = self.data, len(self.data)
        while self.pos < n:
            ch = self.data[self.pos : self.pos + 1]
            if ch in (b"#",):
                nl = data.find(b"\n", self.pos)
                cr = data.find(b"\r", self.pos)
                ends = [e for e in (nl, cr) if e != -1]
                self.pos = min(ends) + 1 if ends else n
            elif ch in _WHITESPACE:
                self.pos += 1
            else:
                return

    def next_token(self, what: str) -> bytes:
        self.skip_separators()
        if self.pos >= len(self.data):
            raise PgmDecodeError(f"unexpected end of file while reading {what}")
        start = self.pos
        data, n = self.data, len(self.data)
        while self.pos < n and data[self.pos : self.pos + 1] not in _WHITESPACE:
            if data[self.pos : self.pos + 1] == b"#":
                break
            self.pos += 1
        return data[start : self.pos]

    def next_int(self, what: str) -> int:
        token = self.next_token(what)
        try:
            return int(token.decode("ascii"))
        except (UnicodeDecodeError, ValueError):
            raise PgmDecodeError(f"malformed {what}: {token!r}") from None


def _parse_header(scanner: _HeaderScanner) -> tuple[int, int, int]:
    width = scanner.next_int("width")
    height = scanner.next_int("height")
    if width <= 0 or height <= 0:
        raise PgmDecodeError(f"zero or negative dimension: {width} x {height}")
    maxval = scanner.next_int("maxval")
    if maxval <= 0:
        raise PgmDecodeError(f"maxval must be positive, got {maxval}")
    if maxval > MAX_LEVEL:
        raise PgmDecodeError(f"maxval {maxval} exceeds 255; only 8-bit PGM is supported")
    return width, height, maxval


def _parse_ascii_raster(raster: bytes, count: int, maxval: int) -> np.ndarray:
    """Parse a P2 raster (the bytes after maxval) into `count` samples.

    Samples are runs of ASCII digits separated by whitespace or `#`
    comments running to the next CR or LF. Errors come in the order a
    token-at-a-time scan meets them: a malformed token among the first
    `count`, then too few tokens, then too many.
    """
    raster = _COMMENT.sub(b" ", raster)
    values = _BYTE_VALUE[np.frombuffer(raster, dtype=np.uint8)]
    edges = np.flatnonzero(np.diff(values != _SEPARATOR, prepend=False, append=False))
    starts, ends = edges[::2], edges[1::2]
    bad = np.flatnonzero(values == _MALFORMED)
    if bad.size:
        k = int(np.searchsorted(starts, bad[0], side="right")) - 1
        if k < count:
            raise PgmDecodeError(f"malformed pixel sample: {raster[starts[k] : ends[k]]!r}")
    if len(starts) < count:
        raise PgmDecodeError(
            f"truncated pixel data: expected {count} samples, got {len(starts)}"
        )
    if len(starts) > count:
        raise PgmDecodeError("trailing data after ASCII raster")

    # Every token is now all digits: sum its last three by place, masking
    # the places a shorter token lacks.
    lengths = ends - starts
    samples = values[ends - 1]
    samples += 10 * values.take(ends - 2, mode="clip") * (lengths > 1)
    samples += 100 * values.take(ends - 3, mode="clip") * (lengths > 2)
    oversized = []
    for k in np.flatnonzero(lengths > 3).tolist():
        token = raster[starts[k] : ends[k]].lstrip(b"0")
        if len(token) > 3:
            oversized.append(token)
        else:
            samples[k] = int(token or b"0")
    if oversized:
        # 4+ significant digits exceed any maxval; compare as decimal
        # strings so the message is exact at any length
        largest = max(oversized, key=lambda t: (len(t), t)).decode("ascii")
        raise PgmDecodeError(f"pixel sample {largest} exceeds declared maxval {maxval}")
    return samples


def load_pgm(data: bytes) -> GrayImage:
    """Decode a P2 (ASCII) or P5 (binary) PGM byte stream.

    Header comments (`#` to end of line) are allowed; for P2 they are also
    allowed between samples. Raises :class:`PgmDecodeError` on a malformed
    magic number, maxval outside 1..255, zero dimensions, truncated or
    trailing pixel data, P2 samples that are not runs of ASCII digits, or
    samples exceeding maxval.
    """
    data = bytes(data)
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmDecodeError(f"malformed magic number {magic!r}; expected P2 or P5")
    scanner = _HeaderScanner(data, 2)
    width, height, maxval = _parse_header(scanner)
    count = width * height

    if magic == b"P5":
        if scanner.pos >= len(data) or data[scanner.pos : scanner.pos + 1] not in _WHITESPACE:
            raise PgmDecodeError("missing whitespace after maxval before binary raster")
        start = scanner.pos + 1
        raster = data[start : start + count]
        if len(raster) < count:
            raise PgmDecodeError(
                f"truncated pixel data: expected {count} bytes, got {len(raster)}"
            )
        if len(data) > start + count:
            raise PgmDecodeError("trailing data after binary raster")
        samples = np.frombuffer(raster, dtype=np.uint8)
    else:
        samples = _parse_ascii_raster(data[scanner.pos :], count, maxval)

    if int(samples.max()) > maxval:
        raise PgmDecodeError(
            f"pixel sample {int(samples.max())} exceeds declared maxval {maxval}"
        )
    return GrayImage.from_flat(width, height, samples.astype(np.uint8, copy=False))


def save_pgm(img: GrayImage, format: str = "P5") -> bytes:
    """Encode an image as PGM bytes; `format` is "P5" (binary) or "P2" (ASCII).

    Always writes maxval 255. load_pgm(save_pgm(img)) reproduces `img`
    exactly for either format.
    """
    if format not in ("P2", "P5"):
        raise ValueError(f"format must be 'P2' or 'P5', got {format!r}")
    header = f"{format}\n{img.width} {img.height}\n{MAX_LEVEL}\n".encode("ascii")
    if format == "P5":
        return header + img.pixels.tobytes()
    # keep lines within Netpbm's 70-character guideline: at most 17 samples
    col = np.arange(img.width)
    codes = img.pixels.astype(np.uint16)
    codes[:, (col % 17 == 16) | (col == img.width - 1)] += LEVELS
    return header + b"".join([b"".join([_P2_TOKENS[v] for v in row.tolist()]) for row in codes])
