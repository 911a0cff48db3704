"""Incremental fact-maintenance benchmarks: the ``incr`` suite of
``repro bench`` (``BENCH_incr.json``).

One suite, ``maintain``: apply a seeded sequence of journalled edits
(gate-type swaps, safe fanin rewires, inverter insertions) to a circuit
and keep its dataflow facts — ternary constants, structural hashes,
implication closure, observability/dominator blocking — correct after
*every* edit, two ways:

* **warm** — :func:`repro.analyze.dataflow.netlist_facts` repairs the
  cached bundle from the edit-journal delta
  (:func:`repro.analyze.incremental.warm_facts`).
* **scratch** — a fresh :class:`~repro.analyze.dataflow.NetlistFacts`
  is materialized from nothing after each edit (the pre-journal
  behaviour of the blanket ``_dirty()``).

Both paths replay the identical edit sequence (same seed) and the final
fact state is asserted equal, so the reported speedup compares equal
work.  :func:`semantic_errors` enforces the equal-work invariants,
never timings (shared CI runners make wall-clock assertions
meaningless); the committed payload is regenerated on a quiet machine.
"""

import random
import time

from ..analyze.dataflow import FACTS_CACHE, NetlistFacts, netlist_facts
from ..circuit import GateType, Netlist
from .harness import suite_circuit

CIRCUITS = ("c432", "alu4", "rca8")
SMOKE_CIRCUITS = ("c17", "rca8")
EDITS = 100
SMOKE_EDITS = 20
SCHEMA = "repro.bench_incr/1"
RECORD_KEYS = {"maintain": ("circuit", "gates", "edits", "seed",
                            "facts_reused", "delta_edits", "warm_s",
                            "scratch_s", "warm_per_edit_ms",
                            "scratch_per_edit_ms", "speedup")}

_UNARY_POOL = (GateType.BUF, GateType.NOT)
_MULTI_POOL = (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
               GateType.XOR, GateType.XNOR)


def apply_random_edit(rng: random.Random, nl: Netlist) -> None:
    """One journalled, acyclicity-preserving mutation."""
    editable = [g.index for g in nl.gates
                if g.gtype not in (GateType.INPUT, GateType.CONST0,
                                   GateType.CONST1, GateType.DFF)]
    while True:
        target = rng.choice(editable)
        gate = nl.gates[target]
        op = rng.randrange(3)
        if op == 0:
            pool = _UNARY_POOL if len(gate.fanin) == 1 else _MULTI_POOL
            choices = [t for t in pool if t is not gate.gtype]
            nl.set_gate_type(target, rng.choice(choices))
            return
        if op == 1:
            cone = nl.fanout_cone(target)
            sources = [g.index for g in nl.gates
                       if g.index not in cone and g.index != target]
            pin = rng.randrange(len(gate.fanin))
            src = rng.choice(sources)
            if src == gate.fanin[pin]:
                continue  # no-op rewire: journal records nothing
            nl.replace_fanin_pin(target, pin, src)
            return
        pin = rng.randrange(len(gate.fanin))
        nl.insert_gate_on_branch(target, pin, GateType.NOT)
        return


def materialize(facts: NetlistFacts) -> tuple:
    """Touch every benchmarked fact section; return a comparable state."""
    constants = dict(facts.constants())
    groups = facts.duplicate_groups()
    implications = facts.implications().edge_count()
    blocked = facts.blocked_signals(deep=True)
    return (constants, groups, implications, frozenset(blocked))


def maintain_record(name: str, edits: int, seed: int = 7) -> dict:
    """Warm-vs-scratch fact maintenance over one edit sequence."""
    warm_nl = suite_circuit(name)
    scratch_nl = suite_circuit(name)
    # Both paths start from materialized facts (the diagnosis root).
    FACTS_CACHE.reset()
    materialize(netlist_facts(warm_nl))
    materialize(NetlistFacts(scratch_nl))
    FACTS_CACHE.reset()

    rng = random.Random(seed)
    warm_s = 0.0
    warm_state = None
    for _ in range(edits):
        apply_random_edit(rng, warm_nl)
        t0 = time.perf_counter()
        warm_state = materialize(netlist_facts(warm_nl))
        warm_s += time.perf_counter() - t0
    reused = FACTS_CACHE.facts_reused
    delta_edits = FACTS_CACHE.delta_edits

    rng = random.Random(seed)
    scratch_s = 0.0
    scratch_state = None
    for _ in range(edits):
        apply_random_edit(rng, scratch_nl)
        t0 = time.perf_counter()
        scratch_state = materialize(NetlistFacts(scratch_nl))
        scratch_s += time.perf_counter() - t0

    assert warm_state == scratch_state, \
        f"{name}: warm facts diverged from scratch facts"
    return {
        "suite": "maintain", "circuit": warm_nl.name,
        "gates": len(warm_nl.gates), "edits": edits, "seed": seed,
        "facts_reused": reused, "delta_edits": delta_edits,
        "warm_s": warm_s, "scratch_s": scratch_s,
        "warm_per_edit_ms": warm_s / edits * 1e3,
        "scratch_per_edit_ms": scratch_s / edits * 1e3,
        "speedup": (scratch_s / warm_s) if warm_s > 0 else 0.0,
    }


def run_suites(smoke: bool = False) -> dict:
    names = SMOKE_CIRCUITS if smoke else CIRCUITS
    edits = SMOKE_EDITS if smoke else EDITS
    records = [maintain_record(name, edits) for name in names]
    return {"schema": SCHEMA, "smoke": smoke, "records": records}


def semantic_errors(payload: dict) -> list:
    errors = []
    for record in payload["records"]:
        circuit = record["circuit"]
        # the repair path must carry the whole maintenance load
        if record["facts_reused"] != record["edits"]:
            errors.append(f"maintain/{circuit}: {record['facts_reused']} "
                          f"warm repairs for {record['edits']} edit steps")
        if record["delta_edits"] < record["facts_reused"]:
            errors.append(f"maintain/{circuit}: every warm repair must "
                          "replay at least one journal edit")
    return errors


def summary_lines(payload: dict) -> list:
    return [f"{record['circuit']:>10}: {record['edits']} edits "
            f"warm {record['warm_per_edit_ms']:.2f}ms/edit vs "
            f"scratch {record['scratch_per_edit_ms']:.2f}ms/edit "
            f"-> {record['speedup']:.1f}x "
            f"({record['facts_reused']} repairs, "
            f"{record['delta_edits']} journal edits)"
            for record in payload["records"]]
