"""SAT-sweeping benchmarks: the ``prove`` suite of ``repro bench``.

Two measurements:

* **sweep effort** — wall time and query accounting (proven / refuted /
  unknown, counterexamples harvested) for a full :meth:`Prover.sweep`
  per circuit.  The planted ``twins`` workloads carry hash-blind
  duplicate cones and an opaque constant line, so every PROVEN verdict
  there costs a real UNSAT proof; ISCAS-style circuits measure the
  overhead on irredundant logic.
* **candidate dedup** — solution-list reduction on a planted
  duplicate-correction workload: a buffered AND chain where a stuck-at-0
  anywhere on the chain yields the identical repaired function, so exact
  diagnosis inflates the answer with candidates no vector set can ever
  separate.  The proof-backed dedup pass must collapse them.
"""

import time

from ..analyze.prove import Prover
from ..circuit import GateType, Netlist
from ..diagnose import DiagnosisConfig, IncrementalDiagnoser, Mode
from ..sim import PatternSet
from .harness import suite_circuit

SWEEP_CIRCUITS = ("c17", "r432", "twins8", "twins32")
SMOKE_SWEEP_CIRCUITS = ("c17", "twins8")
DEDUP_DEPTHS = (4, 12)
SMOKE_DEDUP_DEPTHS = (4,)
SCHEMA = "repro.bench_prove/1"
RECORD_KEYS = {
    "sweep": ("circuit", "gates", "queries", "proven", "refuted",
              "unknown", "sim_refuted", "counterexamples", "conflicts",
              "proven_constants", "proven_classes", "wall_s"),
    "dedup": ("circuit", "gates", "solutions_before", "solutions_after",
              "merged", "checked", "unknown", "wall_s"),
}


def planted_twins(pairs: int = 8) -> Netlist:
    """``pairs`` hash-blind duplicate cones plus one opaque constant.

    Each pair is XOR(a, b) next to its AND/OR decomposition — the
    structural normalization cannot merge them, so the sweep has to
    prove each equivalence with an UNSAT miter.  The tail OR over all
    four two-variable minterms is a constant 1 invisible to ternary
    propagation.
    """
    nl = Netlist(f"twins{pairs}")
    a = nl.add_input("a")
    b = nl.add_input("b")
    outs = []
    for k in range(pairs):
        x = nl.add_gate(f"x{k}", GateType.XOR, [a, b])
        na = nl.add_gate(f"na{k}", GateType.NOT, [a])
        nb = nl.add_gate(f"nb{k}", GateType.NOT, [b])
        t1 = nl.add_gate(f"t1_{k}", GateType.AND, [a, nb])
        t2 = nl.add_gate(f"t2_{k}", GateType.AND, [na, b])
        y = nl.add_gate(f"y{k}", GateType.OR, [t1, t2])
        outs.extend((x, y))
    na = nl.add_gate("cna", GateType.NOT, [a])
    nb = nl.add_gate("cnb", GateType.NOT, [b])
    minterms = [nl.add_gate("m0", GateType.AND, [na, nb]),
                nl.add_gate("m1", GateType.AND, [na, b]),
                nl.add_gate("m2", GateType.AND, [a, nb]),
                nl.add_gate("m3", GateType.AND, [a, b])]
    outs.append(nl.add_gate("tank", GateType.OR, minterms))
    nl.set_outputs(outs)
    return nl


def buffered_chain(depth: int = 4) -> Netlist:
    """AND head, ``depth`` BUFs, OR tail: every sa0 on the chain is the
    same correction, so exact diagnosis returns ``depth + 2`` candidates
    that only a proof can collapse."""
    nl = Netlist(f"chain{depth}")
    x = nl.add_input("x")
    y = nl.add_input("y")
    z = nl.add_input("z")
    prev = nl.add_gate("n0", GateType.AND, [x, y])
    for d in range(depth):
        prev = nl.add_gate(f"b{d}", GateType.BUF, [prev])
    nl.set_outputs([nl.add_gate("o", GateType.OR, [prev, z])])
    return nl


def build_circuit(name: str) -> Netlist:
    if name.startswith("twins"):
        return planted_twins(pairs=int(name[len("twins"):]))
    return suite_circuit(name)


def sweep_record(circuit, conflict_budget: int = 20_000,
                 nvectors: int = 128) -> dict:
    """One full sweep on a fresh prover, with query accounting."""
    prover = Prover(circuit, conflict_budget=conflict_budget,
                    nvectors=nvectors, seed=0)
    t0 = time.perf_counter()
    result = prover.sweep()
    wall = time.perf_counter() - t0
    stats = result.stats
    return {"suite": "sweep", "circuit": circuit.name,
            "gates": len(circuit.gates), "nvectors": nvectors,
            "queries": stats.queries, "proven": stats.proven,
            "refuted": stats.refuted, "unknown": stats.unknown,
            "sim_refuted": stats.sim_refuted,
            "counterexamples": stats.counterexamples,
            "conflicts": stats.conflicts,
            "proven_constants": len(result.constants),
            "proven_classes": len(result.classes),
            "wall_s": wall}


def dedup_record(depth: int) -> dict:
    """Solution-list reduction on the buffered-chain sa0 workload."""
    good = buffered_chain(depth)
    faulty = buffered_chain(depth)
    faulty.tie_stem_to_constant(faulty.index_of("n0"), 0)
    patterns = PatternSet.exhaustive(3)
    plain = IncrementalDiagnoser(
        faulty, good, patterns,
        DiagnosisConfig(mode=Mode.STUCK_AT, exact=True, max_errors=1,
                        prove_dedup=False)).run()
    t0 = time.perf_counter()
    deduped = IncrementalDiagnoser(
        faulty, good, patterns,
        DiagnosisConfig(mode=Mode.STUCK_AT, exact=True, max_errors=1,
                        prove_dedup=True)).run()
    wall = time.perf_counter() - t0
    return {"suite": "dedup", "circuit": good.name,
            "gates": len(good.gates),
            "solutions_before": len(plain.solutions),
            "solutions_after": len(deduped.solutions),
            "merged": deduped.stats.dedup_merged,
            "checked": deduped.stats.dedup_checked,
            "unknown": deduped.stats.dedup_unknown,
            "wall_s": wall}


def run_suites(smoke: bool = False) -> dict:
    circuits = SMOKE_SWEEP_CIRCUITS if smoke else SWEEP_CIRCUITS
    depths = SMOKE_DEDUP_DEPTHS if smoke else DEDUP_DEPTHS
    records = [sweep_record(build_circuit(name),
                            nvectors=64 if smoke else 128)
               for name in circuits]
    records.extend(dedup_record(depth) for depth in depths)
    return {"schema": SCHEMA, "smoke": smoke, "records": records}


def semantic_errors(payload: dict) -> list:
    errors = []
    for record in payload["records"]:
        name = f"{record['suite']}/{record['circuit']}"
        if record["suite"] == "sweep" and (
                record["proven"] + record["refuted"] + record["unknown"]
                != record["queries"]):
            errors.append(f"{name}: proven + refuted + unknown "
                          "!= queries (a verdict was dropped)")
        if record["suite"] == "dedup":
            if (record["solutions_after"] + record["merged"]
                    != record["solutions_before"]):
                errors.append(f"{name}: after + merged != before")
            if record["merged"] > record["checked"]:
                errors.append(f"{name}: merged > checked")
    return errors


def summary_lines(payload: dict) -> list:
    lines = []
    for record in payload["records"]:
        if record["suite"] == "sweep":
            lines.append(f"{record['circuit']:>8}: sweep "
                         f"{record['queries']} queries "
                         f"({record['proven']} proven, "
                         f"{record['refuted']} refuted, "
                         f"{record['unknown']} unknown, "
                         f"{record['conflicts']} conflicts) "
                         f"{record['wall_s'] * 1e3:.2f}ms")
        else:
            lines.append(f"{record['circuit']:>8}: dedup "
                         f"{record['solutions_before']} -> "
                         f"{record['solutions_after']} candidates "
                         f"({record['merged']} proven-equivalent merged, "
                         f"{record['wall_s'] * 1e3:.2f}ms)")
    return lines
