"""Tier-1 gate on the golden CLI outputs in tests/golden/manifest.json."""

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
