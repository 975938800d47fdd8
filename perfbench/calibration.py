"""Machine-speed calibration for a shared, drifting host.

The benchmark runs on a shared 2-vCPU VM whose CPU speed drifts by up to
half between spells of seconds to minutes (see README.md). A fixed kernel
is timed next to every op; the op's wall time times REF / kernel time is
its time at the reference speed.

A slow spell does not slow every kind of work alike: interpreter loops
over Python objects, numpy passes over a megabyte array and process
start-up each slowed by their own factor. So each workload is scaled by
the kernel whose work matches its own (`workloads.Workload.kernel`), and
`setup_s` by the start of a bare interpreter. The kernels use fixed
inputs, independent of `--seed`, and call no contrastkit code, so no
change to the program moves them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import oracle

_MASK64 = (1 << 64) - 1
_RNG = np.random.default_rng(0)
_SMALL = _RNG.integers(0, 256, (128, 128), dtype=np.uint8)
_LARGE = _RNG.integers(0, 256, (512, 512), dtype=np.uint8)
_P2_ROWS = 24
_P2_BODY = oracle.encode_p2(_SMALL[:_P2_ROWS]).split(b"\n", 3)[3]
_WHITESPACE = (b" ", b"\n")


def time_child(argv: list[str]) -> float:
    """Wall seconds from starting a child process to its exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    # wait() with a timeout polls in steps of up to 50 ms; block instead
    # and let a timer kill a child that hangs
    timer = threading.Timer(60, proc.kill)
    timer.start()
    try:
        status = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    if status != 0:
        raise SystemExit(f"error: {argv[-1]!r} exited {status}")
    return elapsed


def _splitmix64(state: int):
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _scan_ints(data: bytes) -> list[int]:
    """Whitespace-separated decimal ints, scanned one byte slice at a time."""
    pos, n, values = 0, len(data), []
    while pos < n:
        while pos < n and data[pos : pos + 1] in _WHITESPACE:
            pos += 1
        start = pos
        while pos < n and data[pos : pos + 1] not in _WHITESPACE:
            pos += 1
        if pos > start:
            values.append(int(data[start:pos].decode("ascii")))
    return values


def _interpreter_work() -> None:
    """Interpreter loops over Python objects: 64-bit integer mixing through
    a generator, byte-slice scanning and decimal formatting."""
    stream = _splitmix64(7)
    np.fromiter((next(stream) % 256 for _ in range(1024)), dtype=np.int64, count=1024)
    _scan_ints(_P2_BODY)
    oracle.encode_p2(_SMALL[:_P2_ROWS])


def _numpy_work() -> None:
    """Small cache-resident passes, then passes over a 256 KiB image whose
    float64 copy (2 MiB) leaves the caches."""
    for _ in range(10):
        np.bincount(_SMALL.ravel(), minlength=256)
        (_SMALL.astype(np.float64) ** 2).mean()
    for _ in range(3):
        np.bincount(_LARGE.ravel(), minlength=256)
        (_LARGE.astype(np.float64) ** 2).mean()


def _mixed_work() -> None:
    _interpreter_work()
    _numpy_work()


def _interpreter_start() -> None:
    time_child([sys.executable, "-c", "pass"])


# name -> (kernel, its time in ms on a 2-vCPU Xeon VM in a fast spell)
KERNELS = {
    "interpreter": (_interpreter_work, 4.0),
    "numpy": (_numpy_work, 2.5),
    "mixed": (_mixed_work, 6.0),
    "interpreter_start": (_interpreter_start, 37.0),
}


def time_kernel(name: str) -> float:
    """Seconds one run of the named kernel takes now."""
    kernel, _ = KERNELS[name]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(name: str, kernel_seconds: list[float], i: int) -> float:
    """Factor that scales the wall time of op i to the reference speed.

    kernel_seconds[i] was timed just before op i and kernel_seconds[i + 1]
    just after it; the median of the five kernel times nearest the op
    damps the kernel's own jitter.
    """
    _, ref_ms = KERNELS[name]
    return ref_ms / 1e3 / statistics.median(kernel_seconds[max(0, i - 2) : i + 3])
