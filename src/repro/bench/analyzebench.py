"""Dataflow-analysis benchmarks: the ``analyze`` suite of ``repro bench``.

Two measurements per circuit (``BENCH_analyze.json``):

* **facts timing** — wall time to materialize each fact section
  (ternary constants, structural hashes, dominators/ODCs, implication
  closure) on a fresh :class:`NetlistFacts`.
* **suspect-set reduction** — how many path-trace-marked suspect lines
  the static pre-screen removes before the per-candidate simulation
  screen runs, on a seeded two-fault workload.
"""

import time

from ..analyze.dataflow import NetlistFacts
from ..circuit import GateType, Netlist
from ..diagnose import DiagnosisState, path_trace_counts
from ..diagnose.pathtrace import marked_lines
from ..diagnose.screening import prescreen_suspects
from ..faults import inject_stuck_at_faults
from ..sim import PatternSet, output_rows, simulate
from .harness import suite_circuit

CIRCUITS = ("c17", "r432", "r880", "r1355", "masked24")
SMOKE_CIRCUITS = ("c17", "masked24")
VECTORS = 512
SCHEMA = "repro.bench_analyze/1"
RECORD_KEYS = {
    "facts": ("circuit", "gates", "constants_s", "hashes_s",
              "dominators_s", "implications_s", "implications"),
    "prescreen": ("circuit", "gates", "suspects_before",
                  "suspects_after", "dropped", "wall_s"),
}


def masked_parity_chain(width: int = 8, depth: int = 24) -> Netlist:
    """Parity chain with one ODC-masked AND cone per stage.

    The masked gates sit behind a dominator whose side input is a
    buffered constant 0, yet every failing XOR path drags them into the
    path-trace suspect set — the workload the static pre-screen exists
    to prune.  ISCAS-style circuits are irredundant, so they measure the
    pre-screen's overhead; this one measures its payoff.
    """
    nl = Netlist(f"masked{depth}")
    xs = [nl.add_input(f"x{i}") for i in range(width)]
    c0 = nl.add_gate("c0", GateType.CONST0, [])
    buf = nl.add_gate("buf", GateType.BUF, [c0])
    acc = xs[0]
    for d in range(depth):
        mid = nl.add_gate(f"mid{d}", GateType.NOT, [xs[d % width]])
        dom = nl.add_gate(f"dom{d}", GateType.AND, [mid, buf])
        mix = nl.add_gate(f"mix{d}", GateType.XOR,
                          [acc, xs[(d + 1) % width]])
        acc = nl.add_gate(f"acc{d}", GateType.XOR, [dom, mix])
    nl.set_outputs([acc])
    return nl


def build_circuit(name: str) -> Netlist:
    if name.startswith("masked"):
        return masked_parity_chain(depth=int(name[len("masked"):]))
    return suite_circuit(name)


def facts_record(circuit) -> dict:
    """Time each fact section on a fresh digest of ``circuit``."""
    record = {"suite": "facts", "circuit": circuit.name,
              "gates": len(circuit.gates)}
    facts = NetlistFacts(circuit)
    for key, section in (
            ("constants_s", facts.constants),
            ("hashes_s", facts.duplicate_groups),
            ("dominators_s", lambda: facts.blocked_signals()),
            ("implications_s", facts.implications)):
        t0 = time.perf_counter()
        section()
        record[key] = time.perf_counter() - t0
    record["implications"] = facts.implications().edge_count()
    record["known_constants"] = len(facts.known_constants(deep=True))
    record["odc_blocked"] = len(facts.blocked_signals(deep=True))
    return record


def prescreen_record(circuit, nvectors: int = VECTORS,
                     seed: int = 1) -> dict:
    """Suspect counts before/after the static pre-screen."""
    workload = inject_stuck_at_faults(circuit, 2, seed=seed)
    patterns = PatternSet.random(circuit.num_inputs, nvectors, seed=0)
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    state = DiagnosisState(circuit, patterns, device_out)
    counts = path_trace_counts(state, 24, seed)
    lines = marked_lines(counts)
    t0 = time.perf_counter()
    kept, dropped = prescreen_suspects(state, lines, deep=True)
    wall = time.perf_counter() - t0
    return {"suite": "prescreen", "circuit": circuit.name,
            "gates": len(circuit.gates), "nvectors": nvectors,
            "suspects_before": len(lines), "suspects_after": len(kept),
            "dropped": dropped, "wall_s": wall}


def run_suites(smoke: bool = False) -> dict:
    names = SMOKE_CIRCUITS if smoke else CIRCUITS
    records = []
    for name in names:
        circuit = build_circuit(name)
        records.append(facts_record(circuit))
        records.append(prescreen_record(
            circuit, nvectors=128 if smoke else VECTORS))
    return {"schema": SCHEMA, "smoke": smoke, "records": records}


def semantic_errors(payload: dict) -> list:
    errors = []
    for record in payload["records"]:
        if (record["suite"] == "prescreen"
                and record["suspects_after"] + record["dropped"]
                != record["suspects_before"]):
            errors.append(f"prescreen/{record['circuit']}: "
                          "kept + dropped != before")
    return errors


def summary_lines(payload: dict) -> list:
    lines = []
    for record in payload["records"]:
        if record["suite"] == "facts":
            lines.append(f"{record['circuit']:>8}: facts "
                         f"const={record['constants_s'] * 1e3:.2f}ms "
                         f"hash={record['hashes_s'] * 1e3:.2f}ms "
                         f"dom={record['dominators_s'] * 1e3:.2f}ms "
                         f"impl={record['implications_s'] * 1e3:.2f}ms "
                         f"({record['implications']} implications)")
        else:
            lines.append(f"{record['circuit']:>8}: prescreen "
                         f"{record['suspects_before']} -> "
                         f"{record['suspects_after']} suspects "
                         f"({record['dropped']} dropped, "
                         f"{record['wall_s'] * 1e3:.2f}ms)")
    return lines
