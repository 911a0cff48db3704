"""Static testability benchmarks: the ``testability`` suite of
``repro bench`` (``BENCH_testability.json``).

Two suites:

* ``scoap`` — runtime and cost extremes of the SCOAP
  controllability/observability fixed points plus the static
  untestable-fault identification (:mod:`repro.analyze.testability`)
  across the generator circuits.
* ``podem`` — a planted hard-fault workload.  Each base circuit gets
  function-preserving redundancy gadgets ``OR(stem, AND(u, NOT u))``
  with ``u = XOR(x1..x6)`` over fresh inputs: the gadget output is
  constant 0, its stuck-at-0 is statically untestable (exciting it
  needs ``u=1`` and ``u=0`` at once), and proving that by search costs
  an unguided PODEM a walk over the 6-input XOR cone.  The suite runs
  :func:`repro.tgen.deterministic_patterns_with_stats` guided
  (SCOAP-costed backtrace + static untestable pre-check) and unguided
  over the identical fault list and demands strictly fewer total
  backtracks, no new aborts, and at least one zero-search static
  classification.  Every statically-untestable verdict is cross-checked
  by SAT: tying the line to its stuck value must leave the circuit
  provably equivalent (:func:`repro.analyze.prove_equivalent` PROVEN).

Every planted gadget must be classified statically, with no search.
:func:`semantic_errors` enforces the guidance and soundness invariants,
never timings; the committed payload is regenerated on a quiet machine.
"""

import random
import time

from ..analyze.dataflow import netlist_facts
from ..analyze.prove import prove_equivalent
from ..analyze.testability import INF
from ..circuit import GateType, Netlist
from ..circuit.lines import LineTable
from ..faults.models import apply_correction, stuck_at_correction
from ..tgen import deterministic_patterns_with_stats
from .harness import suite_circuit

SCOAP_CIRCUITS = ("c17", "rca8", "alu4", "c432")
SMOKE_SCOAP_CIRCUITS = ("c17", "rca8")
PODEM_CIRCUITS = (("c17", 3), ("rca8", 3))
SMOKE_PODEM_CIRCUITS = (("c17", 1),)
SCHEMA = "repro.bench_testability/1"
RECORD_KEYS = {
    "scoap": ("circuit", "gates", "scoap_s", "max_cc", "max_co",
              "fault_sites", "static_untestable"),
    "podem": ("circuit", "gates", "gadgets", "guided", "unguided",
              "sat_checked", "sat_confirmed"),
}
GADGET_WIDTH = 6
BACKTRACK_LIMIT = 120


def plant_gadget(nl: Netlist, stem: int, tag: str) -> int:
    """OR a fresh constant-0 redundancy onto ``stem``; returns its root.

    The root ``g = AND(u, NOT u)`` is identically 0, so
    ``OR(stem, g) == stem`` and the circuit function is preserved —
    but ``g`` stuck-at-0 is a redundancy whose untestability an
    unguided PODEM can only establish by exhausting the XOR cone.
    """
    u = nl.add_input(nl.fresh_name(f"{tag}_x0"))
    for i in range(1, GADGET_WIDTH):
        x = nl.add_input(nl.fresh_name(f"{tag}_x{i}"))
        u = nl.add_gate(nl.fresh_name(f"{tag}_u{i}"), GateType.XOR,
                        [u, x])
    nu = nl.add_gate(nl.fresh_name(f"{tag}_nu"), GateType.NOT, [u])
    g = nl.add_gate(nl.fresh_name(f"{tag}_g"), GateType.AND, [u, nu])
    nl.insert_binary_on_stem(stem, GateType.OR, g,
                             name=nl.fresh_name(f"{tag}_or"))
    return g


def plant_workload(name: str, gadgets: int, seed: int = 11) -> Netlist:
    nl = suite_circuit(name)
    rng = random.Random(seed)
    live = nl.live_set()
    stems = [g.index for g in nl.gates
             if g.index in live and g.gtype not in
             (GateType.CONST0, GateType.CONST1, GateType.DFF)]
    for k, stem in enumerate(rng.sample(stems, gadgets)):
        plant_gadget(nl, stem, f"gdt{k}")
    nl.name = f"{name}+{gadgets}gdt"
    return nl


def scoap_record(name: str) -> dict:
    nl = suite_circuit(name)
    t0 = time.perf_counter()
    facts = netlist_facts(nl)
    tb = facts.testability()
    costs = facts.scoap()
    scoap_s = time.perf_counter() - t0
    finite_cc = [c for pair in costs.pairs() for c in pair if c < INF]
    finite_co = [c for c in costs.co if c < INF]
    return {
        "suite": "scoap", "circuit": nl.name, "gates": len(nl.gates),
        "scoap_s": scoap_s,
        "max_cc": max(finite_cc, default=0),
        "max_co": max(finite_co, default=0),
        "fault_sites": len(tb.sites),
        "static_untestable": len(tb.untestable),
    }


def sat_confirm(nl: Netlist) -> tuple:
    """SAT-check every statically-untestable stuck-at on ``nl``.

    Tying the faulty line to its stuck value must be a no-op; returns
    ``(checked, confirmed)`` PROVEN counts.
    """
    table = LineTable(nl)
    keys = sorted(netlist_facts(nl).testability()
                  .untestable_line_keys(table))
    confirmed = 0
    for line, value in keys:
        tied = nl.copy()
        apply_correction(tied, LineTable(tied),
                         stuck_at_correction(table, line, value))
        verdict = prove_equivalent(nl, tied)
        if verdict.status.name == "PROVEN":
            confirmed += 1
    return len(keys), confirmed


def podem_record(name: str, gadgets: int, seed: int = 11) -> dict:
    nl = plant_workload(name, gadgets, seed)
    runs = {}
    for mode, guide in (("guided", True), ("unguided", False)):
        t0 = time.perf_counter()
        _, stats = deterministic_patterns_with_stats(
            nl.copy(), seed=0, backtrack_limit=BACKTRACK_LIMIT,
            guide=guide)
        runs[mode] = stats.to_dict()
        runs[mode]["tgen_s"] = time.perf_counter() - t0
    checked, confirmed = sat_confirm(nl)
    return {
        "suite": "podem", "circuit": nl.name, "gates": len(nl.gates),
        "gadgets": gadgets, "backtrack_limit": BACKTRACK_LIMIT,
        "guided": runs["guided"], "unguided": runs["unguided"],
        "sat_checked": checked, "sat_confirmed": confirmed,
    }


def run_suites(smoke: bool = False) -> dict:
    scoap_names = SMOKE_SCOAP_CIRCUITS if smoke else SCOAP_CIRCUITS
    podem_specs = SMOKE_PODEM_CIRCUITS if smoke else PODEM_CIRCUITS
    records = [scoap_record(name) for name in scoap_names]
    records += [podem_record(name, gadgets)
                for name, gadgets in podem_specs]
    return {"schema": SCHEMA, "smoke": smoke, "records": records}


def semantic_errors(payload: dict) -> list:
    errors = []
    zero_search = 0
    for record in payload["records"]:
        if record["suite"] != "podem":
            continue
        circuit = record["circuit"]
        guided = record["guided"]
        unguided = record["unguided"]
        if guided.get("faults") != unguided.get("faults"):
            errors.append(f"podem/{circuit}: guided and unguided ran "
                          "different fault lists")
        if not guided.get("backtracks", 0) < unguided.get("backtracks", 0):
            errors.append(f"podem/{circuit}: guidance must strictly "
                          "reduce total backtracks")
        if guided.get("aborted", 0) > unguided.get("aborted", 0):
            errors.append(f"podem/{circuit}: guidance introduced aborts")
        if record["sat_confirmed"] != record["sat_checked"]:
            errors.append(f"podem/{circuit}: a statically-untestable "
                          "verdict failed its SAT cross-check")
        if record["sat_checked"] < record["gadgets"]:
            errors.append(f"podem/{circuit}: every planted redundancy "
                          "must be statically identified")
        if guided.get("static_untestable", 0) < record["gadgets"]:
            errors.append(f"podem/{circuit}: a planted redundancy was "
                          "not classified untestable with zero search")
        zero_search += guided.get("static_untestable", 0)
    if not zero_search:
        errors.append("no record classified a fault untestable with "
                      "zero search")
    return errors


def summary_lines(payload: dict) -> list:
    lines = []
    for record in payload["records"]:
        if record["suite"] == "scoap":
            lines.append(f"{record['circuit']:>12}: scoap "
                         f"{record['scoap_s'] * 1e3:.1f}ms "
                         f"max cc {record['max_cc']} co {record['max_co']} "
                         f"untestable {record['static_untestable']}")
        else:
            g, u = record["guided"], record["unguided"]
            lines.append(f"{record['circuit']:>12}: backtracks "
                         f"{g['backtracks']} guided vs {u['backtracks']} "
                         f"unguided, aborts {g['aborted']} vs "
                         f"{u['aborted']}, {g['static_untestable']} "
                         f"static skips, SAT {record['sat_confirmed']}/"
                         f"{record['sat_checked']}")
    return lines
