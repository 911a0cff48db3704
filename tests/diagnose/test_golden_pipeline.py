"""Golden bit-identity: the staged pipeline vs the pre-refactor engines.

The committed ``golden/pipeline_golden.json`` was captured from the
engines *before* they were rebuilt on ``DiagnosisSession``/stages.  The
refactor's contract is bit-identity: solutions and every deterministic
counter are functions of (netlist, patterns, config) only, so the
captures must match exactly — including ``jobs=4`` vs ``jobs=1``.
"""

import pytest

from tests.diagnose.golden_pipeline import capture_all, load_golden

GOLDEN = load_golden()


@pytest.fixture(scope="module")
def captured():
    return capture_all()


def test_schema_matches():
    assert GOLDEN["schema"] == "repro.golden_pipeline/1"


def test_no_cases_dropped(captured):
    assert sorted(captured["cases"]) == sorted(GOLDEN["cases"])


@pytest.mark.parametrize("key", sorted(GOLDEN["cases"]))
def test_case_bit_identical(captured, key):
    assert captured["cases"][key] == GOLDEN["cases"][key]
