"""``repro bench SUITE``: the committed payloads pass their checks, and
each suite's gates reject a payload that breaks them."""

import json
import pathlib

import pytest

from repro.bench import harness
from repro.bench.pipelinebench import full_run_errors
from repro.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[2]


def committed(name: str) -> dict:
    return json.loads((ROOT / f"BENCH_{name}.json").read_text())


def check(name: str, payload: dict, tmp_path) -> int:
    path = tmp_path / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload))
    return main(["bench", name, "--check", str(path)])


@pytest.mark.parametrize("name", harness.SUITES)
def test_committed_payload_passes(name, capsys):
    path = ROOT / f"BENCH_{name}.json"
    assert main(["bench", name, "--check", str(path)]) == 0
    assert capsys.readouterr().out.strip() == f"{path}: ok"


@pytest.mark.parametrize("name", harness.SUITES)
def test_payload_without_records_is_rejected(name, tmp_path, capsys):
    payload = committed(name)
    payload["records"] = []
    assert check(name, payload, tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.out.strip().endswith(": INVALID")
    assert "records must be a non-empty list" in captured.err


@pytest.mark.parametrize("name", harness.SUITES)
def test_envelope_rejects_foreign_schema_and_records(name):
    payload = committed(name)
    payload["schema"] = "repro.bench_other/1"
    assert any("schema id" in e
               for e in harness.validate_payload(name, payload))
    payload = committed(name)
    payload["records"][0]["suite"] = "nonesuch"
    assert any("unknown suite" in e
               for e in harness.validate_payload(name, payload))
    payload = committed(name)
    del payload["records"][-1]["circuit" if name != "pipeline"
                               else "case"]
    assert any("missing" in e
               for e in harness.validate_payload(name, payload))


def _record(payload, suite, index=0):
    return [r for r in payload["records"] if r["suite"] == suite][index]


def _swap_stages(payload):
    stages = payload["records"][0]["stages"]
    stages[0], stages[1] = stages[1], stages[0]


def _drop_search(payload):
    record = payload["records"][0]
    record["stages"] = [s for s in record["stages"]
                        if s["stage"] != "search"]


def _fork_digest(payload):
    _record(payload, "exact", 1)["solutions_digest"] = "0" * 64


def _guided_loses(payload):
    record = _record(payload, "podem")
    record["guided"]["backtracks"] = record["unguided"]["backtracks"]


def _guided_aborts(payload):
    record = _record(payload, "podem")
    record["guided"]["aborted"] = record["unguided"]["aborted"] + 1


def _sat_disagrees(payload):
    _record(payload, "podem")["sat_confirmed"] -= 1


def _gadget_searched(payload):
    record = _record(payload, "podem")
    record["guided"]["static_untestable"] = record["gadgets"] - 1


def _screen_changes_answer(payload):
    _record(payload, "prescreen")["identical"] = False


def _screen_drops_nothing(payload):
    _record(payload, "prescreen")["dropped"] = 0


def _repair_skipped(payload):
    payload["records"][0]["facts_reused"] -= 1


def _verdict_dropped(payload):
    _record(payload, "sweep", 1)["proven"] -= 1


def _dedup_unaccounted(payload):
    _record(payload, "dedup")["merged"] -= 1


def _scorr_unaccounted(payload):
    _record(payload, "scorr")["proven"] += 1


def _prescreen_unaccounted(payload):
    _record(payload, "prescreen")["dropped"] += 1


def _zero_events(payload):
    payload["records"][0]["events"] = 0


#: (suite, mutation, substring of the error the gate must report)
GATE_CASES = [
    ("pipeline", _swap_stages, "stages out of pipeline order"),
    ("pipeline", _drop_search, "missing search stage"),
    ("diag", _fork_digest, "solutions_digest differs across jobs"),
    ("testability", _guided_loses, "strictly reduce total backtracks"),
    ("testability", _guided_aborts, "guidance introduced aborts"),
    ("testability", _sat_disagrees, "failed its SAT cross-check"),
    ("testability", _gadget_searched, "with zero search"),
    ("seq", _screen_changes_answer, "changed the solution list"),
    ("seq", _screen_drops_nothing, "dropped nothing"),
    ("seq", _scorr_unaccounted, "a verdict was dropped"),
    ("incr", _repair_skipped, "warm repairs for"),
    ("prove", _verdict_dropped, "a verdict was dropped"),
    ("prove", _dedup_unaccounted, "after + merged != before"),
    ("analyze", _prescreen_unaccounted, "kept + dropped != before"),
    ("sim", _zero_events, "events must be a positive int"),
]


@pytest.mark.parametrize(
    "name, mutate, message", GATE_CASES,
    ids=[f"{name}-{mutate.__name__.strip('_')}"
         for name, mutate, _ in GATE_CASES])
def test_gate_rejects_mutated_payload(name, mutate, message, tmp_path):
    payload = committed(name)
    mutate(payload)
    errors = harness.validate_payload(name, payload)
    assert any(message in e for e in errors), errors
    assert check(name, payload, tmp_path) == 2


def test_pipeline_overhead_gate_applies_to_full_runs():
    payload = committed("pipeline")
    assert full_run_errors(payload) == []
    record = payload["records"][0]
    record["total_s"] = record["baseline_s"] * 1.06
    assert any("exceeds pre-refactor" in e
               for e in full_run_errors(payload))


def test_sim_smoke_round_trip(tmp_path):
    out = tmp_path / "BENCH_sim.json"
    assert main(["bench", "sim", "--smoke", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["smoke"] is True
    assert main(["bench", "sim", "--check", str(out)]) == 0
