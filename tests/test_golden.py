"""Tier-1 gate on the golden CLI outputs in tests/golden/manifest.json, and
on the comparison table tests/golden/report.csv."""

import csv
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

EXPECTED = json.loads(regen.MANIFEST.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def actual(tmp_path_factory):
    return regen.run_cases(tmp_path_factory.mktemp("golden"))


def test_manifest_covers_every_case(actual):
    assert list(actual) == list(EXPECTED)


@pytest.mark.parametrize("case", list(EXPECTED))
def test_golden_case(actual, case):
    assert actual.get(case) == EXPECTED[case]


def test_manifest_is_byte_identical(actual):
    assert regen.dumps(actual) == regen.MANIFEST.read_text(encoding="utf-8")


def test_paper_table_is_the_report_case_output():
    digest = hashlib.sha256(regen.REPORT.read_bytes()).hexdigest()
    assert digest == EXPECTED["report corpus"]["files"]["report.csv"]


def test_paper_table_orderings():
    table: dict[str, dict[str, float]] = {}  # image -> method -> AMBE
    with regen.REPORT.open(newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            table.setdefault(row["image"], {})[row["method"]] = float(row["ambe"])
    assert len(table) == 8
    # BBHE's threshold, the floor of the mean, is one of MMBEBHE's candidates
    assert all(ambe["mmbebhe"] <= ambe["bbhe"] for ambe in table.values())
    # splitting at the mean does not always beat HE's brightness error
    worse = {image for image, ambe in table.items() if ambe["bbhe"] > ambe["he"]}
    assert worse == {"span56.pgm"}
    assert (table["span56.pgm"]["bbhe"], table["span56.pgm"]["he"]) == (2.2461, 1.7695)
