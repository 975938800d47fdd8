"""Mutants of the library's documented rules, and the runner that checks
that the tests kill each one.

Each mutant names a file, an exact old text that must occur there exactly
once, the new text that replaces it, and the tests (files, or pytest node
ids) that must fail on the mutated copy. `run` copies `src/`, `tests/` and
`pyproject.toml` to a temporary folder, applies one mutant there and runs
`pytest -x -q` on its tests against that copy. A mutant is killed only when
pytest exits 1, with tests failing; a collection or usage error does not
count. An old text that does not match exactly one place, or a test file
or test function that does not exist, raises (`anchored_text`), so a
refactor that moves a rule, or renames its test, updates its mutant here
rather than skipping it.

`tests/test_mutants.py` checks every mutant's anchor in the default run,
and runs every mutant as a `slow` test. To run some or all of them from
the repository root:

    python tests/mutants.py [NAME ...]
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "mmbebhe_ties_to_the_last_minimum",
        "src/contrastkit/histeq.py",
        "    return dev.argmin(axis=1)  # the first minimum: ties go to the smallest threshold\n",
        "    return dev.shape[1] - 1 - dev[:, ::-1].argmin(axis=1)\n",
        ("tests/test_histeq.py", "tests/test_methods.py"),
    ),
    Mutant(
        "bbhe_splits_at_the_ceiled_mean",
        "src/contrastkit/histeq.py",
        '"bbhe": lambda counts, cum: (counts @ _LEVEL_VALUES) // cum[:, -1],',
        '"bbhe": lambda counts, cum: -(-(counts @ _LEVEL_VALUES) // cum[:, -1]),',
        ("tests/test_histeq.py",),
    ),
    Mutant(
        "split_maps_without_the_identity_on_an_empty_side",
        "src/contrastkit/histeq.py",
        "    np.copyto(out, _IDENTITY, where=np.where(_LEVEL_VALUES <= t, low == 0, high == 0))\n",
        "",
        ("tests/test_histeq.py", "tests/test_methods.py"),
    ),
    Mutant(
        "split_values_without_the_upper_start_offset",
        "src/contrastkit/histeq.py",
        "(t + 1) * high1 - s * low",
        "t * high1 - s * low",
        ("tests/test_histeq.py",),
    ),
    Mutant(
        "mmbebhe_recheck_without_slack",
        "src/contrastkit/histeq.py",
        "_BOUND_SLACK = 0.5 + 2.0**-35\n",
        "_BOUND_SLACK = 0.0\n",
        (
            "tests/test_histeq.py::test_mmbebhe_recheck_keeps_a_tie_whose_float_error_is_above_the_incumbents",
            "tests/test_methods.py::test_a_stacked_compile_equals_the_per_histogram_oracles",
        ),
    ),
    Mutant(
        "compile_maps_runs_a_rule_per_occurrence",
        "src/contrastkit/methods.py",
        'split = [name for name in dict.fromkeys(names) if name != "fuzzy"]',
        'split = [name for name in names if name != "fuzzy"]',
        ("tests/test_methods.py",),
    ),
    Mutant(
        "fuzzy_fallback_below_a_span_of_3",
        "src/contrastkit/fuzzy.py",
        "MIN_USEFUL_SPAN = 2\n",
        "MIN_USEFUL_SPAN = 3\n",
        ("tests/test_fuzzy.py",),
    ),
    Mutant(
        "fuzzy_centroid_rounds_half_to_even",
        "src/contrastkit/fuzzy.py",
        "np.floor(moment[fired] / total[fired] + 0.5)",
        "np.rint(moment[fired] / total[fired])",
        ("tests/test_fuzzy.py",),
    ),
    Mutant(
        "ambe_without_abs",
        "src/contrastkit/metrics.py",
        "abs(in_sum / n - out_sum / n)",
        "(in_sum / n - out_sum / n)",
        ("tests/test_metrics.py",),
    ),
    Mutant(
        "zero_mse_given_a_finite_psnr",
        "src/contrastkit/metrics.py",
        "psnr = math.inf if sq_err == 0 else",
        "psnr = 100.0 if sq_err == 0 else",
        ("tests/test_metrics.py",),
    ),
    Mutant(
        "value_keeps_a_read_only_owner",
        "src/contrastkit/image.py",
        '    arr = arr.astype(np.uint8, order="C")\n',
        '    arr = arr.astype(np.uint8, order="C", copy=arr.flags.writeable)\n',
        (
            "tests/test_image.py::test_image_copies_a_read_only_owner_that_is_made_writable_again",
            "tests/test_histeq.py::test_lut_copies_a_read_only_owner_that_is_made_writable_again",
        ),
    ),
    Mutant(
        "value_keeps_a_writable_array",
        "src/contrastkit/image.py",
        '    arr = arr.astype(np.uint8, order="C")\n',
        '    arr = arr.astype(np.uint8, order="C", copy=False)\n',
        (
            "tests/test_image.py::test_image_neither_aliases_nor_freezes_a_writable_array",
            "tests/test_histeq.py::test_lut_neither_aliases_nor_freezes_a_writable_map",
        ),
    ),
    Mutant(
        "adopt_leaves_the_array_writable",
        "src/contrastkit/image.py",
        "        arr.setflags(write=False)\n        value = object.__new__(cls)\n",
        "        value = object.__new__(cls)\n",
        ("tests/test_histeq.py::test_every_image_the_library_makes_is_read_only",),
    ),
    Mutant(
        "float_values_truncated",
        "src/contrastkit/image.py",
        "        if not np.issubdtype(arr.dtype, np.integer):\n"
        '            raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")\n',
        "",
        ("tests/test_image.py::test_levels_reject_non_integer_values",),
    ),
    Mutant(
        "comment_ends_only_at_lf",
        "src/contrastkit/image.py",
        '_COMMENT = re.compile(rb"#[^\\n\\r]*")',
        '_COMMENT = re.compile(rb"#[^\\n]*")',
        ("tests/test_image.py",),
    ),
    Mutant(
        "total_bound_of_2_47_exclusive",
        "src/contrastkit/image.py",
        "(totals := arr.sum(axis=-1, dtype=np.int64)).max(initial=0) > MAX_TOTAL",
        "(totals := arr.sum(axis=-1, dtype=np.int64)).max(initial=0) >= MAX_TOTAL",
        ("tests/test_image.py",),
    ),
    Mutant(
        "maxval_above_255_accepted",
        "src/contrastkit/image.py",
        "    if maxval > MAX_LEVEL:\n",
        "    if False:\n",
        ("tests/test_image.py",),
    ),
    Mutant(
        "p5_raster_without_whitespace_after_maxval",
        "src/contrastkit/image.py",
        "        if not data[pos : pos + 1].isspace():\n",
        "        if False:\n",
        ("tests/test_image.py",),
    ),
    Mutant(
        "p2_trailing_data_accepted",
        "src/contrastkit/image.py",
        '        raise PgmDecodeError("trailing data after ASCII raster")\n',
        "        pass\n",
        ("tests/test_image.py",),
    ),
    Mutant(
        "p2_truncation_reported_before_a_malformed_sample",
        "src/contrastkit/image.py",
        "        if k < count:\n",
        "        if k < count <= len(ends):\n",
        ("tests/test_image.py",),
    ),
    Mutant(
        "p2_block_spans_a_whole_wide_row",
        "src/contrastkit/image.py",
        "    cols = width if width <= block else block - block % 17\n    rows = block // cols\n",
        "    cols = width\n    rows = max(1, block // cols)\n",
        ("tests/test_image.py::test_save_p2_memory_is_bounded",),
    ),
    Mutant(
        "synth_bounds_unchecked",
        "src/contrastkit/cli.py",
        "    if lo > hi:\n"
        '        raise UsageError(f"lo ({lo}) must not exceed hi ({hi})")\n'
        "    if not (0 <= lo and hi <= 255):\n"
        '        raise UsageError("lo and hi must lie in [0, 255]")\n',
        "",
        ("tests/test_cli.py::test_generator_rejects_bounds_outside_0_lo_hi_255",),
    ),
    Mutant(
        "synth_pixel_cap_unchecked",
        "src/contrastkit/cli.py",
        "    if (count := width * height) > SYNTH_MAX_PIXELS:\n"
        '        raise UsageError(f"width x height must not exceed {SYNTH_MAX_PIXELS} pixels")\n',
        "    count = width * height\n",
        ("tests/test_cli.py::test_synth_over_pixel_cap_is_usage_error",),
    ),
    Mutant(
        "synth_masks_in_place_of_the_modulo",
        "src/contrastkit/cli.py",
        "        np.floor_divide(zb, span, out=qb)\n        qb *= span\n        zb -= qb\n",
        "        zb &= span - np.uint64(1)\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "synth_blocks_of_a_full_block",
        "src/contrastkit/cli.py",
        "    block = _BLOCK // 4\n",
        "    block = _BLOCK\n",
        ("tests/test_cli.py::test_synth_writes_its_image_as_it_is_generated",),
    ),
    Mutant(
        "stream_drops_its_last_chunk",
        "src/contrastkit/cli.py",
        '            with open(path, "wb") as f:\n                for chunk in chunks:\n',
        '            with open(path, "wb") as f:\n                for chunk in list(chunks)[:-1]:\n',
        ("tests/test_cli.py::test_a_multi_block_p2_output_streams_into_a_pipe_whole",),
    ),
    Mutant(
        "stream_copied_whole",
        "src/contrastkit/cli.py",
        "            if stat.S_ISREG(mode or 0):  # a pipe or a device holds nothing to truncate\n",
        "            if True:\n",
        ("tests/test_cli.py::test_enhance_writes_its_output_as_it_is_encoded",),
    ),
    Mutant(
        "status_line_on_stdout",
        "src/contrastkit/cli.py",
        "    _write_output(args.output, _pgm_chunks(out, args.format))\n",
        "    _write_output(args.output, _pgm_chunks(out, args.format))\n"
        '    print(f"{args.method}: {img.width}x{img.height} {args.input} -> {args.output}")\n',
        (
            "tests/test_cli.py::test_enhance_he",
            "tests/test_cli.py::test_an_output_to_dev_stdout_on_a_pipe_is_the_image_alone",
        ),
    ),
    Mutant(
        "permission_bits_not_kept",
        "src/contrastkit/cli.py",
        "os.fchmod(fd, stat.S_IMODE(mode))",
        "pass",
        (
            "tests/test_cli.py::test_new_output_mode_follows_umask_and_old_mode_is_kept",
            "tests/test_cli.py::test_replacement_of_a_private_output_is_never_wider",
        ),
    ),
    Mutant(
        "csv_path_unquoted",
        "src/contrastkit/cli.py",
        """    return '"%s"' % text.replace('"', '""') if any(c in text for c in ',"\\n\\r') else text\n""",
        "    return text\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "csv_path_with_a_cr_left_bare",
        "src/contrastkit/cli.py",
        """',"\\n\\r'""",
        """',"\\n'""",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "enhance_ignores_the_configs_lut",
        "src/contrastkit/cli.py",
        "    out = enhance(img, args.method) if lut is None else apply_lut(img, lut)\n",
        "    out = enhance(img, args.method)\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "histogram_probability_not_over_the_total",
        "src/contrastkit/cli.py",
        "zip(hist.counts, hist.counts / hist.total)",
        "zip(hist.counts, hist.counts / hist.counts.max())",
        ("tests/test_cli.py::test_histogram_four_levels_and_probability_sum",),
    ),
    Mutant(
        "main_without_its_fallback_for_unrecognized_argv",
        "src/contrastkit/cli.py",
        "        if args is None or extras:\n",
        "        if args is None:\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "output_written_in_place",
        "src/contrastkit/cli.py",
        "        if in_place or not os.access(folder, os.W_OK | os.X_OK):\n",
        "        if True:\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "partial_failure_exits_2",
        "src/contrastkit/cli.py",
        "EXIT_PARTIAL = 3\n",
        "EXIT_PARTIAL = 2\n",
        ("tests/test_cli.py",),
    ),
)


def anchored_text(mutant: Mutant, root: Path = ROOT) -> str:
    """The text of `mutant.file` under `root`. Raises `ValueError` if
    `mutant.old` does not occur there exactly once, if a test path that
    `mutant.tests` names does not exist, or if a node id's test, less any
    `[param]`, is not a `def` in its file."""
    missing = [t for t in mutant.tests if not (root / t.split("::")[0]).is_file()]
    if missing:
        raise ValueError(f"{mutant.name}: no test file {', '.join(missing)}")
    for path, _, test in (t.partition("::") for t in mutant.tests if "::" in t):
        name = test.split("[")[0]
        if not re.search(rf"^def {re.escape(name)}\(", (root / path).read_text(encoding="utf-8"), re.M):
            raise ValueError(f"{mutant.name}: no test {name} in {path}")
    text = (root / mutant.file).read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: old text occurs {found} times in {mutant.file}, not once")
    return text


def run(mutant: Mutant, root: Path = ROOT) -> tuple[int, str]:
    """pytest's exit code and output for `mutant.tests` on a copy of `root`
    with `mutant` applied. Raises `ValueError` as `anchored_text` does."""
    text = anchored_text(mutant, root)
    with tempfile.TemporaryDirectory(prefix="contrastkit-mutant-") as tmp:
        copy = Path(tmp)
        for folder in ("src", "tests"):
            shutil.copytree(root / folder, copy / folder, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(root / "pyproject.toml", copy / "pyproject.toml")
        (copy / mutant.file).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
        return done.returncode, done.stdout + done.stderr


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survived = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        try:
            code, output = run(mutant)
        except ValueError as exc:
            code, output = None, str(exc)
        killed = code == 1
        survived += not killed
        if killed:  # by the first test that failed
            print(f"killed {mutant.name}: {next((l for l in output.splitlines() if l.startswith('FAILED')), '')}")
        else:
            print(f"SURVIVED {mutant.name} (pytest exit {code})\n{output}", file=sys.stderr)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
