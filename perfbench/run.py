#!/usr/bin/env python3
"""Outside-in benchmark of the contrastkit CLI.

    python3 perfbench/run.py --workload ascii_io --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. One process, one client, closed loop: each
op is one `contrastkit.cli.main(argv)` call, timed whole, and the next op
starts when it returns. Inputs are generated from `--seed` into a
temporary directory under the repository root. Every op's output file is
compared byte for byte, outside the timed region, with what the
independent oracle (`oracle.py`) derives from the documented rules.

The machine this runs on is shared and its speed drifts by up to half
between spells that last from seconds to minutes. So a fixed calibration
kernel is timed before every op, and each op's wall time is scaled to a
reference machine speed (see `calibration.py`). The unscaled median is
printed in the info line.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates
untraced and traced ops and prints the per-layer metrics (see
`tracing.py`). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import calibration
import workloads
from tracing import Tracer, per_layer_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
SPANS_DIR = ROOT / ".perfbench_spans"

MIN_OPS = 100  # per timed mode, so at least 10 samples lie beyond p90
LOOP_CAP_S = 120.0  # keeps a very slow program within the run's time limit
WARMUP_OPS = 8
SETUP_RUNS = 15
SETUP_KERNEL = "interpreter_start"  # the same process start-up the import pays

END_TO_END = (
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("mpix_per_s", "Mpx/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_ok_ratio", "share"),
)


def setup_seconds() -> float:
    """Median time, scaled to the reference speed, from a fresh interpreter
    to an imported contrastkit.cli."""
    argv = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import contrastkit.cli"]
    times, calibs = [], []
    for _ in range(SETUP_RUNS):
        calibs.append(calibration.time_kernel(SETUP_KERNEL))
        times.append(calibration.time_child(argv))
    calibs.append(calibration.time_kernel(SETUP_KERNEL))
    return statistics.median(t * calibration.scale(SETUP_KERNEL, calibs, i) for i, t in enumerate(times))


def passes(op, code, data) -> bool:
    """The correctness gate: exit 0 and the exact oracle bytes."""
    return code == 0 and data == op.expected


def run_op(cli, op, sink):
    """One timed CLI call; returns (seconds, exit code or None, output bytes)."""
    with contextlib.suppress(FileNotFoundError):
        op.output.unlink()
    start = time.perf_counter()
    try:
        code = cli.main(op.argv)
    except Exception:  # a crash counts as a failed op; keep measuring
        code = None
        traceback.print_exc()
    elapsed = time.perf_counter() - start
    sink.seek(0)
    sink.truncate()
    try:
        data = op.output.read_bytes()
    except FileNotFoundError:
        data = None
    return elapsed, code, data


def measure(cli, work, seconds, tracer=None):
    """Closed loop over the op cycle for `seconds` (and MIN_OPS per mode).

    With a tracer, op i of pass p is traced when i + p is odd, so both
    modes see every op equally often. Returns one (wall seconds, speed
    scale, index of the op in the cycle, traced) sample per op, the failed
    count and one passing (op, output) pair.
    """
    ops = work.ops
    sink = io.StringIO()
    samples = []
    calibs = []  # calibs[i] is timed just before op i
    failed = 0
    sample = None
    counts = {False: 0, True: 0}  # ops per mode
    with contextlib.redirect_stdout(sink):
        for op in ops[:WARMUP_OPS]:
            run_op(cli, op, sink)
        gc.collect()
        begin = time.perf_counter()
        deadline = begin + seconds
        i = 0
        while True:
            now = time.perf_counter()
            enough = counts[False] >= MIN_OPS and (tracer is None or counts[True] >= MIN_OPS)
            if (now >= deadline and enough) or now - begin > LOOP_CAP_S:
                break
            op = ops[i % len(ops)]
            calibs.append(calibration.time_kernel(work.kernel))
            trace_this = tracer is not None and (i % len(ops) + i // len(ops)) % 2 == 1
            if trace_this:
                tracer.op = i
                tracer.install()
            elapsed, code, data = run_op(cli, op, sink)
            if trace_this:
                tracer.uninstall()
                tracer.end_op()
            samples.append((elapsed, i % len(ops), trace_this))
            counts[trace_this] += 1
            if passes(op, code, data):
                sample = sample or (op, data)
            else:
                failed += 1
                print(f"op {i} ({op.kind} -> {op.output.name}) failed: exit {code}", file=sys.stderr)
            i += 1
        calibs.append(calibration.time_kernel(work.kernel))
    samples = [(t, calibration.scale(work.kernel, calibs, k), j, tr) for k, (t, j, tr) in enumerate(samples)]
    return samples, failed, sample


def self_test(sample, seed) -> bool:
    """A copy of one op's output with one byte flipped must fail the gate."""
    if sample is None:
        return False
    op, data = sample
    flipped = bytearray(data)
    flipped[seed % len(flipped)] ^= 0xFF
    return not passes(op, 0, bytes(flipped))


def p50_ms(samples) -> float:
    return statistics.median(t for t, _ in samples) * 1e3


def mpix_per_s(samples, ops) -> float:
    """Pixels of one pass over the op cycle over the summed median op times."""
    by_op: dict = {}
    for elapsed, j in samples:
        by_op.setdefault(j, []).append(elapsed)
    pixels = sum(ops[j].pixels for j in by_op)
    return pixels / sum(statistics.median(times) for times in by_op.values()) / 1e6


def end_to_end(samples, ops, failed, attempted, caught, setup) -> dict:
    times = [t for t, _ in samples]
    return {
        "op_ms_p50": p50_ms(samples),
        "op_ms_p90": statistics.quantiles(times, n=10)[-1] * 1e3,
        "mpix_per_s": mpix_per_s(samples, ops),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # outputs the gate passed, over every output it judged: the ops and
        # the flipped self-test copy, which must fail
        "ops_ok_ratio": (attempted - failed + (not caught)) / (attempted + 1),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "contrastkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no contrastkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from contrastkit import cli

    setup = None if trace else setup_seconds()
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        work = workloads.WORKLOADS[name](np.random.default_rng(seed), tmp)
        tracer = Tracer() if trace else None
        samples, failed, sample = measure(cli, work, seconds, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()
    # end-to-end times are scaled to the reference speed; spans are not
    plain = [(t * scale, j) for t, scale, j, traced in samples if not traced]
    traced = [(t * scale, j) for t, scale, j, traced in samples if traced]
    attempted = len(samples)
    caught = self_test(sample, seed)
    info = {"workload": name, "seed": seed, "inputs": work.inputs, "self_test_caught": caught,
            "unscaled_op_ms_p50": statistics.median(t for t, _, _, tr in samples if not tr) * 1e3}
    if trace:
        overhead = p50_ms(traced) / p50_ms(plain)
        traced_wall = sum(t for t, _, _, tr in samples if tr)
        metrics, absent = tracer.metrics(len(traced), traced_wall, overhead)
        units = {n: u for n, u, _ in per_layer_names()}
        info["absent"] = absent
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans_{name}_seed{seed}.jsonl"
        tracer.write(spans)
        info["spans"] = str(spans.relative_to(ROOT))
    else:
        metrics = end_to_end(plain, work.ops, failed, attempted, caught, setup)
        units = dict(END_TO_END)
    print(json.dumps(info))
    for key, value in metrics.items():
        print(f"{name} {key} = {value:.6g} {units[key]}")
    return {
        "correct": failed == 0 and caught,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
