"""Sequential-analysis benchmarks: the ``seq`` suite of ``repro bench``.

Three measurements:

* **fixpoint** — wall time and sweep count of the reset-state ternary
  fixpoint (:func:`repro.analyze.seq.reset_fixpoint`).  The planted
  ``stuck`` workloads carry registers that provably never leave their
  reset value, so the record pins how many the fixpoint recovers;
  random sequential circuits measure convergence on irredundant state.
* **scorr** — k-induction register/signal correspondence
  (:class:`repro.analyze.seq.SeqProver`): candidate counts, base/step
  query accounting and the proven/refuted/unknown split.  The planted
  ``twinreg`` workloads duplicate every state bit through a hash-blind
  re-encoding of its next-state function, so each redundancy costs a
  real induction proof.  Every candidate must land in exactly one of
  proven/refuted/unknown — :func:`semantic_errors` enforces it.
* **prescreen** — the sequential diagnosis pre-screen
  (``DiagnosisConfig(seq_prescreen=True)`` on
  :class:`repro.diagnose.timeframe.TimeFrameDiagnoser`): node counts
  and dropped-suspect counts with the screen on vs off on a planted
  workload with provably masked logic.  The check requires
  ``identical: true`` — the screen must not change the solution list —
  and a nonzero drop count.
"""

import time

from ..analyze.seq import SeqProver, reset_fixpoint
from ..circuit import GateType, Netlist, generators
from ..diagnose import DiagnosisConfig
from ..diagnose.timeframe import TimeFrameDiagnoser, random_sequences
from .harness import SCALE

FIXPOINT_CIRCUITS = ("s27", "stuck4", "stuck16", "rseq6")
SMOKE_FIXPOINT_CIRCUITS = ("s27", "stuck4")
SCORR_CIRCUITS = ("s27", "twinreg2", "twinreg6", "rseq6")
SMOKE_SCORR_CIRCUITS = ("s27", "twinreg2")
PRESCREEN_CONES = (2, 6)
SMOKE_PRESCREEN_CONES = (2,)
SCHEMA = "repro.bench_seq/1"
RECORD_KEYS = {
    "fixpoint": ("circuit", "gates", "dffs", "iterations",
                 "stuck_registers", "seq_constants", "wall_s"),
    "scorr": ("circuit", "gates", "dffs", "k", "nvectors",
              "constant_candidates", "pair_candidates", "base_queries",
              "step_queries", "proven", "refuted", "unknown",
              "step_restarts", "conflicts", "proven_classes", "wall_s"),
    "prescreen": ("circuit", "gates", "frames", "solutions", "identical",
                  "dropped", "nodes_off", "nodes_on", "wall_off_s",
                  "wall_s"),
}


def planted_stuck(count: int = 4) -> Netlist:
    """``count`` registers that provably never leave reset.

    Each register feeds back through ``AND(r, x)`` — from reset 0 the
    AND can never produce 1, so the whole state is sequentially stuck
    at 0 while staying combinationally unconstrained (the full-scan
    view sees free state bits).  An XOR tail keeps everything live.
    """
    nl = Netlist(f"stuck{count}")
    xs = [nl.add_input(f"x{k}") for k in range(count)]
    taps = []
    for k in range(count):
        r = nl.add_gate(f"r{k}", GateType.DFF, [xs[k]])
        d = nl.add_gate(f"d{k}", GateType.AND, [r, xs[k]])
        nl.gates[r].fanin = [d]
        taps.append(nl.add_gate(f"t{k}", GateType.XOR, [r, xs[k]]))
    out = taps[0]
    for k, tap in enumerate(taps[1:], start=1):
        out = nl.add_gate(f"acc{k}", GateType.XOR, [out, tap])
    nl.set_outputs([out])
    nl._dirty()
    return nl


def planted_twin_registers(pairs: int = 2) -> Netlist:
    """``pairs`` state bits, each duplicated through a hash-blind twin.

    Register ``p`` updates from ``XOR(a, q_prev)``; its twin updates
    from the AND/OR decomposition of the same function, so structural
    normalization cannot merge them and every redundant register costs
    an induction proof.  Both start at 0, hence track forever.
    """
    nl = Netlist(f"twinreg{pairs}")
    a = nl.add_input("a")
    b = nl.add_input("b")
    outs = []
    for k in range(pairs):
        p = nl.add_gate(f"p{k}", GateType.DFF, [a])
        q = nl.add_gate(f"q{k}", GateType.DFF, [a])
        dp = nl.add_gate(f"dp{k}", GateType.XOR, [a, p])
        na = nl.add_gate(f"na{k}", GateType.NOT, [a])
        nq = nl.add_gate(f"nq{k}", GateType.NOT, [q])
        t1 = nl.add_gate(f"t1_{k}", GateType.AND, [a, nq])
        t2 = nl.add_gate(f"t2_{k}", GateType.AND, [na, q])
        dq = nl.add_gate(f"dq{k}", GateType.OR, [t1, t2])
        nl.gates[p].fanin = [dp]
        nl.gates[q].fanin = [dq]
        outs.append(nl.add_gate(f"o{k}", GateType.AND, [p, b]))
        outs.append(nl.add_gate(f"u{k}", GateType.OR, [q, b]))
    nl.set_outputs(outs)
    nl._dirty()
    return nl


def planted_masked(cones: int = 2) -> Netlist:
    """Observable core plus ``cones`` provably masked suspect cones.

    Each cone is ``AND(x_k, y_k)`` gated by a register that is
    sequentially stuck at 0, so nothing in the cone can ever reach the
    output from reset — the seq pre-screen must drop it all without
    changing the diagnosis answer (the planted fault sits on the
    observable ``hbuf`` path).
    """
    nl = Netlist(f"masked{cones}")
    h = nl.add_input("h")
    e = nl.add_input("e")
    terms = [nl.add_gate("hbuf", GateType.BUF, [h])]
    for k in range(cones):
        x = nl.add_input(f"x{k}")
        y = nl.add_input(f"y{k}")
        r = nl.add_gate(f"r{k}", GateType.DFF, [x])
        d = nl.add_gate(f"d{k}", GateType.AND, [r, x])
        nl.gates[r].fanin = [d]
        g = nl.add_gate(f"g{k}", GateType.AND, [x, y])
        terms.append(nl.add_gate(f"m{k}", GateType.AND, [g, r]))
    live = nl.add_gate("live", GateType.DFF, [e])
    terms.append(live)
    out = terms[0]
    for k, term in enumerate(terms[1:], start=1):
        out = nl.add_gate(f"or{k}", GateType.OR, [out, term])
    nl.set_outputs([out])
    nl._dirty()
    return nl


def build_circuit(name: str) -> Netlist:
    if name.startswith("stuck"):
        return planted_stuck(count=int(name[len("stuck"):]))
    if name.startswith("twinreg"):
        return planted_twin_registers(pairs=int(name[len("twinreg"):]))
    if name.startswith("rseq"):
        dffs = int(name[len("rseq"):])
        return generators.random_sequential(
            dffs, int(max(20, 10 * dffs * SCALE)), 4, 3, seed=7)
    return generators.by_name(name)


def fixpoint_record(circuit: Netlist) -> dict:
    t0 = time.perf_counter()
    fx = reset_fixpoint(circuit, 0)
    wall = time.perf_counter() - t0
    return {"suite": "fixpoint", "circuit": circuit.name,
            "gates": len(circuit.gates), "dffs": len(circuit.dffs()),
            "iterations": fx.iterations,
            "stuck_registers": len(fx.stuck_registers),
            "seq_constants": len(fx.constants), "wall_s": wall}


def scorr_record(circuit: Netlist, k: int = 2,
                 nvectors: int = 64) -> dict:
    prover = SeqProver(circuit, k=k, nvectors=nvectors, seed=0)
    t0 = time.perf_counter()
    result = prover.sweep()
    wall = time.perf_counter() - t0
    stats = result.stats
    return {"suite": "scorr", "circuit": circuit.name,
            "gates": len(circuit.gates), "dffs": len(circuit.dffs()),
            "k": k, "nvectors": nvectors,
            "constant_candidates": stats.constant_candidates,
            "pair_candidates": stats.pair_candidates,
            "base_queries": stats.base_queries,
            "step_queries": stats.step_queries,
            "proven": stats.proven, "refuted": stats.refuted,
            "unknown": stats.unknown,
            "step_restarts": stats.step_restarts,
            "conflicts": stats.conflicts,
            "proven_classes": len(result.classes),
            "wall_s": wall}


def prescreen_record(cones: int, frames: int = 6,
                     sequences: int = 24) -> dict:
    """Diagnosis with the seq pre-screen on vs off; answers must match."""
    spec = planted_masked(cones)
    device = planted_masked(cones)
    hb = device.index_of("hbuf")
    device.gates[hb].gtype = GateType.CONST1
    device.gates[hb].fanin = []
    device._dirty()
    seqs = random_sequences(spec, sequences, frames, seed=1)

    def solve(config):
        t0 = time.perf_counter()
        result = TimeFrameDiagnoser(spec, device, seqs, frames=frames,
                                    max_faults=2, config=config).run()
        wall = time.perf_counter() - t0
        key = sorted(frozenset(r.signature for r in s.records)
                     for s in result.solutions)
        return result, key, wall

    off, key_off, wall_off = solve(None)
    on, key_on, wall_on = solve(DiagnosisConfig(seq_prescreen=True))
    return {"suite": "prescreen", "circuit": spec.name,
            "gates": len(spec.gates), "frames": frames,
            "solutions": len(on.solutions),
            "identical": key_off == key_on,
            "dropped": on.stats.prescreen_dropped,
            "nodes_off": off.stats.nodes, "nodes_on": on.stats.nodes,
            "wall_off_s": wall_off, "wall_s": wall_on}


def run_suites(smoke: bool = False) -> dict:
    fixpoints = SMOKE_FIXPOINT_CIRCUITS if smoke else FIXPOINT_CIRCUITS
    scorrs = SMOKE_SCORR_CIRCUITS if smoke else SCORR_CIRCUITS
    cones = SMOKE_PRESCREEN_CONES if smoke else PRESCREEN_CONES
    records = [fixpoint_record(build_circuit(name))
               for name in fixpoints]
    records.extend(scorr_record(build_circuit(name),
                                nvectors=32 if smoke else 64)
                   for name in scorrs)
    records.extend(prescreen_record(n) for n in cones)
    return {"schema": SCHEMA, "smoke": smoke, "records": records}


def semantic_errors(payload: dict) -> list:
    errors = []
    for record in payload["records"]:
        suite = record["suite"]
        name = f"{suite}/{record['circuit']}"
        if suite == "fixpoint":
            if record["iterations"] > record["dffs"] + 1:
                errors.append(f"{name}: fixpoint ran past the "
                              "#DFFs + 1 termination bound")
            if record["circuit"].startswith("stuck") \
                    and record["stuck_registers"] != record["dffs"]:
                errors.append(f"{name}: planted stuck registers "
                              "not all recovered")
        if suite == "scorr" and (
                record["proven"] + record["refuted"] + record["unknown"]
                != record["constant_candidates"]
                + record["pair_candidates"]):
            errors.append(f"{name}: proven + refuted + unknown != "
                          "candidates (a verdict was dropped)")
        if suite == "prescreen":
            if not record["identical"]:
                errors.append(f"{name}: pre-screen changed the "
                              "solution list (soundness violation)")
            if record["dropped"] <= 0:
                errors.append(f"{name}: pre-screen dropped nothing "
                              "on the planted masked workload")
    return errors


def summary_lines(payload: dict) -> list:
    lines = []
    for record in payload["records"]:
        if record["suite"] == "fixpoint":
            lines.append(f"{record['circuit']:>10}: fixpoint "
                         f"{record['iterations']} sweep(s), "
                         f"{record['stuck_registers']} stuck register(s), "
                         f"{record['seq_constants']} seq constant(s) "
                         f"{record['wall_s'] * 1e3:.2f}ms")
        elif record["suite"] == "scorr":
            lines.append(f"{record['circuit']:>10}: scorr "
                         f"{record['constant_candidates']}+"
                         f"{record['pair_candidates']} candidates, "
                         f"{record['proven']} proven, "
                         f"{record['refuted']} refuted, "
                         f"{record['unknown']} unknown, "
                         f"{record['conflicts']} conflicts "
                         f"{record['wall_s'] * 1e3:.2f}ms")
        else:
            lines.append(f"{record['circuit']:>10}: prescreen "
                         f"dropped {record['dropped']}, nodes "
                         f"{record['nodes_off']} -> {record['nodes_on']}, "
                         f"identical={record['identical']} "
                         f"{record['wall_s'] * 1e3:.2f}ms")
    return lines
