"""Golden bit-identity corpus for the staged diagnosis pipeline.

``capture_all()`` runs every diagnosis mode — exact stuck-at, DEDC
tree, time-frame sequential, SAT-based — over a fixed random-netlist
corpus and returns only the *deterministic* outputs: solution lists in
canonical order plus every counter of the determinism contract (never
wall-clock fields).  The committed ``golden/pipeline_golden.json`` was
generated by the pre-refactor engines; ``test_golden_pipeline.py``
asserts the refactored pipeline reproduces it bit for bit.

Regenerate (only when an intentional behaviour change is being made)::

    PYTHONPATH=src:tests python tests/diagnose/golden_pipeline.py
"""

from __future__ import annotations

import json
import os

from repro.circuit import GateType, Netlist, generators
from repro.diagnose import DiagnosisConfig, IncrementalDiagnoser, Mode
from repro.diagnose.satdiag import SatDiagnoser
from repro.diagnose.timeframe import TimeFrameDiagnoser, random_sequences
from repro.faults import (inject_stuck_at_faults,
                          observable_design_error_workload)
from repro.sim import PatternSet
from repro.tgen import random_patterns

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "pipeline_golden.json")

#: Pool widths shared by the engine-backed modes.  Case keys keep the
#: ``/facts1`` suffix of the earlier (jobs, facts) matrix so that case
#: ids and committed corpus keys stay stable.
ENGINE_MATRIX = (1, 4)


def stats_fingerprint(stats) -> dict:
    """Every deterministic EngineStats field (wall times excluded)."""
    return {
        "nodes": stats.nodes,
        "rounds": stats.rounds,
        "truncated": stats.truncated,
        "truncation_causes": list(stats.truncation_causes),
        "prescreen_dropped": stats.prescreen_dropped,
        "dedup_checked": stats.dedup_checked,
        "dedup_merged": stats.dedup_merged,
        "dedup_unknown": stats.dedup_unknown,
        "levels_tried": list(stats.levels_tried),
        "shards": [list(s) for s in stats.shards],
    }


def _solutions(result) -> list:
    return [s.describe() for s in result.solutions]


def _engine_case(spec, impl, patterns, config) -> dict:
    result = IncrementalDiagnoser(spec, impl, patterns, config).run()
    return {
        "solutions": _solutions(result),
        "num_vectors": result.num_vectors,
        "initial_failing": result.initial_failing,
        "stats": stats_fingerprint(result.stats),
    }


def exact_cases() -> dict:
    cases = {}
    for seed in (0, 1):
        spec = generators.random_dag(5, 30, 3, seed=seed)
        workload = inject_stuck_at_faults(spec, 2, seed=seed + 7)
        patterns = PatternSet.random(5, 256, seed=seed + 1)
        for jobs in ENGINE_MATRIX if seed == 0 else (1,):
            config = DiagnosisConfig(mode=Mode.STUCK_AT, exact=True,
                                     max_errors=2, jobs=jobs)
            key = f"exact/dag{seed}/jobs{jobs}/facts1"
            cases[key] = _engine_case(workload.impl, spec, patterns,
                                      config)
    return cases


def dedc_cases() -> dict:
    alu4 = generators.alu(4)
    patterns = random_patterns(alu4, 512, seed=5)
    workload = observable_design_error_workload(alu4, 2, patterns,
                                                seed=11)
    cases = {}
    for jobs in ENGINE_MATRIX:
        config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, exact=False,
                                 max_errors=3, jobs=jobs)
        key = f"dedc/alu4/jobs{jobs}/facts1"
        cases[key] = _engine_case(alu4, workload.impl, patterns, config)
    return cases


def masked_seq_spec() -> Netlist:
    """Sequential circuit with a provably reset-masked suspect cone
    (mirrors the planted workload of ``test_timeframe.py``)."""
    nl = Netlist("masked")
    h = nl.add_input("h")
    e = nl.add_input("e")
    x = nl.add_input("x")
    y = nl.add_input("y")
    r = nl.add_gate("r", GateType.DFF, [x])
    d = nl.add_gate("d", GateType.AND, [r, x])
    nl.gates[r].fanin = [d]
    g = nl.add_gate("g", GateType.AND, [x, y])
    m = nl.add_gate("m", GateType.AND, [g, r])
    hbuf = nl.add_gate("hbuf", GateType.BUF, [h])
    live = nl.add_gate("live", GateType.DFF, [e])
    o1 = nl.add_gate("o1", GateType.OR, [hbuf, m])
    o2 = nl.add_gate("o2", GateType.OR, [o1, live])
    nl.set_outputs([o2])
    nl._dirty()
    return nl


def timeframe_cases() -> dict:
    cases = {}
    s27 = generators.s27()
    frames = 8
    sequences = random_sequences(s27, 96, frames, seed=1)
    # First seed whose fault is observable inside the window — the
    # probe loop is deterministic, so the chosen workload is too.
    for seed in range(30):
        workload = inject_stuck_at_faults(s27, 1, seed=seed)
        probe = TimeFrameDiagnoser(s27, workload.impl, sequences,
                                   frames=frames, max_faults=0,
                                   max_nodes=0, time_budget=1)
        if probe._root.num_err > 0:
            break
    result = TimeFrameDiagnoser(s27, workload.impl, sequences,
                                frames=frames, max_faults=1).run()
    cases["timeframe/s27"] = {
        "solutions": sorted(s.describe() for s in result.solutions),
        "frames": result.frames,
        "num_sequences": result.num_sequences,
        "stats": stats_fingerprint(result.stats),
    }

    spec = masked_seq_spec()
    device = masked_seq_spec()
    hb = device.index_of("hbuf")
    device.gates[hb].gtype = GateType.CONST1
    device.gates[hb].fanin = []
    device._dirty()
    sequences = random_sequences(spec, 24, 6, seed=1)
    for name, config in (("off", None),
                         ("on", DiagnosisConfig(seq_prescreen=True))):
        result = TimeFrameDiagnoser(spec, device, sequences, frames=6,
                                    max_faults=2, config=config).run()
        cases[f"timeframe/masked/prescreen-{name}"] = {
            "solutions": sorted(s.describe() for s in result.solutions),
            "frames": result.frames,
            "num_sequences": result.num_sequences,
            "stats": stats_fingerprint(result.stats),
        }
    return cases


def sat_cases() -> dict:
    cases = {}
    c17 = generators.c17()
    workload = inject_stuck_at_faults(c17, 2, seed=0)
    patterns = PatternSet.random(5, 256, seed=5)
    result = SatDiagnoser(workload.impl, c17, patterns,
                          max_faults=2).run()
    cases["sat/c17"] = {
        "solutions": sorted(s.describe() for s in result.solutions),
        "sat_candidates": result.sat_candidates,
        "verified": result.verified,
        "truncated": result.truncated,
    }
    rca4 = generators.ripple_carry_adder(4)
    workload = inject_stuck_at_faults(rca4, 1, seed=7)
    patterns = PatternSet.random(rca4.num_inputs, 256, seed=1)
    result = SatDiagnoser(workload.impl, rca4, patterns, max_faults=1,
                          time_budget=60.0).run()
    cases["sat/rca4"] = {
        "solutions": sorted(s.describe() for s in result.solutions),
        "sat_candidates": result.sat_candidates,
        "verified": result.verified,
        "truncated": result.truncated,
    }
    return cases


def capture_all() -> dict:
    cases = {}
    cases.update(exact_cases())
    cases.update(dedc_cases())
    cases.update(timeframe_cases())
    cases.update(sat_cases())
    return {"schema": "repro.golden_pipeline/1", "cases": cases}


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    payload = capture_all()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(payload['cases'])} cases)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
