"""Grayscale image container, histogram statistics, and a PGM (P2/P5) codec.

Images are 8-bit: 256 gray levels, values 0..255. Files with maxval < 255
are accepted and their samples kept as-is (no rescaling); saving always
writes maxval 255.

`histogram` wraps the counts of `_level_counts`, the one counting kernel,
in a `Histogram`; `report`, `enhance` and `evaluate` keep the counts alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

LEVELS = 256
MAX_LEVEL = LEVELS - 1
_LEVEL_VALUES = np.arange(LEVELS, dtype=np.int64)
# largest histogram total: the tightest integer kernel, MSE's sum of
# 65025 * N, stays below 2**63
MAX_TOTAL = 1 << 47
_TOO_MANY_PIXELS = (
    f"histogram total exceeds {MAX_TOTAL} (2**47) pixels, "
    "past which the integer kernels overflow int64"
)
# elements per temporary of every blocked pass: 512 KiB of 8-byte ones
_BLOCK = 1 << 16

_WHITESPACE = b" \t\n\r\x0b\x0c"
_COMMENT = re.compile(rb"#[^\n\r]*")
# A header field is a run of bytes other than ASCII whitespace and `#`.
# `finditer` matches one field or comment at a time and skips whitespace
# without a repeated group, so a header of any padding is read in linear
# time and constant memory.
_TOKEN_OR_COMMENT = re.compile(rb"[^\s#]+|" + _COMMENT.pattern)
# the significant digits of a P2 sample of 1000 or more
_OVERSIZED = re.compile(rb"[1-9][0-9]{3,}")

# Class of each byte in a P2 raster, as a `bytes.translate` table: a
# digit's value, or one of two markers for whitespace and for any other byte.
_SEPARATOR, _MALFORMED = 10, 11
_BYTE_CLASS = bytes(
    b - ord("0") if b in b"0123456789" else _SEPARATOR if b in _WHITESPACE else _MALFORMED
    for b in range(256)
)

# P2 sample tokens with their separator, NUL-padded to one 4-byte word:
# index v is level v and a space, index v + LEVELS is level v ending its line
_P2_WORDS = np.frombuffer(
    b"".join(f"{v}{end}".encode("ascii").ljust(4, b"\0") for end in " \n" for v in range(LEVELS)),
    dtype=np.uint32,
)


class PgmDecodeError(ValueError):
    """Raised when a byte stream is not a decodable P2/P5 PGM file."""


def _frozen_levels(values, what: str) -> np.ndarray:
    """`values`, checked to be integers in [0, 255], as a read-only C-contiguous
    uint8 array. A writable input is copied, so the caller's array is neither
    frozen nor aliased; a read-only uint8 one is kept as it is."""
    arr = np.asarray(values)
    if arr.dtype != np.uint8:
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
        if arr.min() < 0 or arr.max() > MAX_LEVEL:
            raise ValueError(f"{what} must lie in [0, 255]")
        arr = arr.astype(np.uint8, order="C")
    elif arr.flags.writeable or not arr.flags.c_contiguous:
        arr = np.array(arr, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Immutable 8-bit grayscale image backed by a (height, width) array."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.pixels)
        if arr.ndim != 2:
            raise ValueError(f"pixels must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image dimensions must be >= 1, got {arr.shape}")
        object.__setattr__(self, "pixels", _frozen_levels(arr, "pixel values"))

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


def _checked_counts(counts, ndim: int) -> np.ndarray:
    """`counts` as int64, checked to be the integer level counts of one
    histogram (`ndim` 1, shape 256) or of k (`ndim` 2, k x 256), none
    negative and each total from 1 to `MAX_TOTAL`; else `ValueError`."""
    arr = np.asarray(counts)
    if not np.issubdtype(arr.dtype, np.integer):  # the int64 cast would truncate them
        raise ValueError(f"counts must be integers, got dtype {arr.dtype}")
    if arr.ndim != ndim or arr.shape[-1:] != (LEVELS,):
        per_row = " per row" if ndim == 2 else ""
        raise ValueError(f"counts must have {LEVELS} bins{per_row}, got shape {arr.shape}")
    if arr.min(initial=0) < 0:
        raise ValueError("counts must be non-negative")
    # bins are bounded before the int64 cast, which would wrap a uint64
    # count past 2**63; below the bound the int64 sums are exact
    if arr.max(initial=0) > MAX_TOTAL or (totals := arr.sum(axis=-1, dtype=np.int64)).max(initial=0) > MAX_TOTAL:
        raise ValueError(_TOO_MANY_PIXELS)
    if not totals.all():
        raise ValueError("empty histogram: counts must not all be zero")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Per-level pixel counts (256 bins) with derived statistics.

    Counts are integers with a total from 1 to `MAX_TOTAL`. `level_sum` is
    the exact integer sum k * w_k and the mean `level_sum / total`;
    probabilities are computed on demand in double precision.
    """

    counts: np.ndarray
    total: int = field(init=False)
    level_sum: int = field(init=False)

    def __post_init__(self) -> None:
        arr = np.array(_checked_counts(self.counts, 1), order="C")  # a copy the caller cannot touch
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "total", int(arr.sum()))
        object.__setattr__(self, "level_sum", int(_LEVEL_VALUES @ arr))

    def probabilities(self) -> np.ndarray:
        """Occurrence probability of each level (counts / total)."""
        return self.counts / self.total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return bool(np.array_equal(self.counts, other.counts))


def _level_counts(pixels: np.ndarray) -> np.ndarray:
    """The (256,) int64 level counts of the uint8 `pixels`, the one counting
    kernel: counted `_BLOCK` pixels at a time, so the extra memory is bounded
    at any image size. More than `MAX_TOTAL` pixels raise `ValueError`."""
    if pixels.size > MAX_TOTAL:
        raise ValueError(_TOO_MANY_PIXELS)
    flat = pixels.ravel()  # a view: image pixels are C-contiguous
    counts = np.zeros(LEVELS, dtype=np.int64)  # bincount's intp is int32 on some platforms
    for start in range(0, flat.size, _BLOCK):
        counts += np.bincount(flat[start : start + _BLOCK], minlength=LEVELS)
    return counts


def histogram(img: GrayImage) -> Histogram:
    """Count the pixels of `img` at each of the 256 gray levels."""
    return Histogram(_level_counts(img.pixels))


# ---------------------------------------------------------------------------
# PGM codec
# ---------------------------------------------------------------------------


def _header_field(tokens, what: str) -> tuple[int, int]:
    """The next header field, a run of ASCII digits like a P2 sample, as
    (value, offset just past it)."""
    match = next(tokens, None)
    if match is None:
        raise PgmDecodeError(f"unexpected end of file while reading {what}")
    token = match.group()
    if not token.isdigit():  # bytes.isdigit accepts ASCII digits only
        raise PgmDecodeError(f"malformed {what}: {token!r}")
    digits = token.lstrip(b"0") or b"0"
    if len(digits) > 18:  # far past any image, and within int()'s digit limit
        raise PgmDecodeError(f"{what} out of range: {len(digits)} significant digits")
    return int(digits), match.end()


def _parse_ascii_raster(raster: bytes, count: int, maxval: int) -> np.ndarray:
    """Parse a P2 raster (the bytes after maxval) into `count` samples.

    Samples are runs of ASCII digits separated by whitespace or `#`
    comments running to the next CR or LF. Errors come in the order a
    token-at-a-time scan meets them: a malformed token among the first
    `count`, then too few tokens, then too many.

    Each sample is read by place value over the whole raster: at every
    byte, the ones, tens and hundreds of the token ending there, where a
    separator weighs 0 and the hundreds digit counts only when the tens
    byte is a digit. One gather at each token's last byte then picks the
    samples; leading zeros weigh 0, so zero padding costs nothing. Only
    byte-wide arrays span the raster, so the peak is about 8x the raster's
    length. A sample of 1000 or more is read from its bytes only to report it.
    """
    if b"#" in raster:  # a C scan, much cheaper than the regex on a raster without comments
        raster = _COMMENT.sub(b" ", raster)
    # two spaces before the raster and one after: raster byte i is byte
    # i + 2 of `classes`, and every place of every token has a byte
    classes = b"".join((b"  ", raster, b" ")).translate(_BYTE_CLASS)
    values = np.frombuffer(classes, dtype=np.uint8)
    digits = values != _SEPARATOR  # the bytes of tokens, digits or not
    ends = np.flatnonzero(digits[2:-1] > digits[3:])  # each token's last byte
    bad = classes.find(_MALFORMED)
    if bad >= 0:
        k = int(np.searchsorted(ends, bad - 2))  # the tokens before the malformed one
        if k < count:
            start = classes.rfind(_SEPARATOR, 0, bad) - 1  # a C search back to its first byte
            raise PgmDecodeError(f"malformed pixel sample: {raster[start : ends[k] + 1]!r}")
    if len(ends) < count:
        raise PgmDecodeError(
            f"truncated pixel data: expected {count} samples, got {len(ends)}"
        )
    if len(ends) > count:
        raise PgmDecodeError("trailing data after ASCII raster")

    # Every token is now all digits. Ones + tens stay below 100, so they
    # share one uint8 array; hundreds are widened only once gathered.
    place = values * digits  # a digit's value, 0 at a separator
    ones_tens = 10 * place[1:-2]
    ones_tens += place[2:-1]
    place[:-3] *= digits[1:-2]  # hundreds, where the tens byte is a digit
    # widened before the product, which a uint8 result would wrap on any NumPy
    samples = np.multiply(place[:-3].take(ends), 100, dtype=np.uint16)
    samples += ones_tens.take(ends)
    del ones_tens  # so that the check below does not add to the peak
    # a non-zero hundreds digit with 2 more token bytes after it: a sample of 1000+
    big = place[:-3] > 0
    del place
    big &= digits[2:-1]
    big &= digits[3:]
    if big.any():
        # 4+ significant digits exceed any maxval; compare as decimal
        # strings so the message is exact at any length
        largest = max((m[0] for m in _OVERSIZED.finditer(raster)), key=lambda t: (len(t), t))
        raise PgmDecodeError(f"pixel sample {largest.decode()} exceeds declared maxval {maxval}")
    return samples


def load_pgm(data: bytes) -> GrayImage:
    """Decode a P2 (ASCII) or P5 (binary) PGM byte stream.

    Header comments (`#` to end of line) are allowed; for P2 they are also
    allowed between samples. Raises :class:`PgmDecodeError` on a malformed
    magic number, maxval outside 1..255, zero dimensions, truncated or
    trailing pixel data, P2 samples that are not runs of ASCII digits, or
    samples exceeding maxval.
    """
    data = bytes(data)  # copies a mutable buffer, so the image never aliases one
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmDecodeError(f"malformed magic number {magic!r}; expected P2 or P5")
    tokens = (m for m in _TOKEN_OR_COMMENT.finditer(data, 2) if data[m.start()] != ord("#"))
    width, _ = _header_field(tokens, "width")
    height, _ = _header_field(tokens, "height")
    if width <= 0 or height <= 0:
        raise PgmDecodeError(f"zero or negative dimension: {width} x {height}")
    maxval, pos = _header_field(tokens, "maxval")
    if maxval <= 0:
        raise PgmDecodeError(f"maxval must be positive, got {maxval}")
    if maxval > MAX_LEVEL:
        raise PgmDecodeError(f"maxval {maxval} exceeds 255; only 8-bit PGM is supported")
    count = width * height

    if magic == b"P5":
        if not data[pos : pos + 1].isspace():
            raise PgmDecodeError("missing whitespace after maxval before binary raster")
        start = pos + 1
        if len(data) < start + count:
            raise PgmDecodeError(
                f"truncated pixel data: expected {count} bytes, got {len(data) - start}"
            )
        if len(data) > start + count:
            raise PgmDecodeError("trailing data after binary raster")
        # a read-only view of the file bytes, which nothing can mutate
        samples = np.frombuffer(data, dtype=np.uint8, count=count, offset=start)
    else:
        samples = _parse_ascii_raster(data[pos:], count, maxval)

    # a P5 byte cannot exceed a maxval of 255, so only a smaller maxval or a P2 sample is scanned
    if (maxval < MAX_LEVEL or magic == b"P2") and int(samples.max()) > maxval:
        raise PgmDecodeError(
            f"pixel sample {int(samples.max())} exceeds declared maxval {maxval}"
        )
    samples = samples.astype(np.uint8, copy=False)  # P2's uint16 samples become a fresh array
    samples.setflags(write=False)  # so the image keeps it without a copy
    return GrayImage.from_flat(width, height, samples)


def save_pgm(img: GrayImage, format: str = "P5") -> bytes:
    """Encode an image as PGM bytes; `format` is "P5" (binary) or "P2" (ASCII).

    Always writes maxval 255. load_pgm(save_pgm(img)) reproduces `img`
    exactly for either format.
    """
    if format not in ("P2", "P5"):
        raise ValueError(f"format must be 'P2' or 'P5', got {format!r}")
    header = f"{format}\n{img.width} {img.height}\n{MAX_LEVEL}\n".encode("ascii")
    if format == "P5":
        return b"".join((header, img.pixels))  # the raster is copied once
    # keep lines within Netpbm's 70-character guideline: at most 17 samples
    col = np.arange(img.width)
    line_end = np.where((col % 17 == 16) | (col == img.width - 1), LEVELS, 0).astype(np.uint16)
    # each block of about _BLOCK pixels gathers its padded tokens, then drops the padding
    rows = max(1, _BLOCK // img.width)
    blocks = [
        _P2_WORDS.take(img.pixels[top : top + rows] + line_end).tobytes().translate(None, b"\0")
        for top in range(0, img.height, rows)
    ]
    return b"".join([header, *blocks])
