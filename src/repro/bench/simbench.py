"""Simulation-kernel benchmarks: the ``sim`` suite of ``repro bench``.

Measures the hot path that dominates every diagnosis round: the
heuristic-1 suspect sweep (complement a line's ``Verr`` bits, propagate
the difference through its fanout cone, inspect the outputs).  Two
record suites:

* **micro** — the suspect-scoring sweep on a cross-section of suite
  circuits at a fixed vector count, run once per kernel (``event``, the
  incremental worklist kernel, vs ``scan``, the pre-event full
  topological scan kept as baseline).
* **scaling** — full-circuit :func:`~repro.sim.logicsim.simulate`
  (kernel ``full``) plus the event-kernel sweep across a ladder of
  vector counts, to expose how throughput scales with pattern volume.

Results are emitted as ``BENCH_sim.json``.  Every record carries::

    suite         "micro" | "scaling"
    circuit       suite circuit name (str)
    nvectors      packed test vectors simulated (int > 0)
    kernel        "event" | "scan" | "full"
    wall_s        best-of-repeats wall-clock seconds (float > 0)
    events_per_s  changed gate rows produced per second (float >= 0)
    gates         gates in the circuit
    events        changed gate rows over the timed call (int > 0)

plus ``suspects`` on sweep records.  An *event* is one changed gate row
reported by a ``propagate`` call (for ``full`` records: one gate row
computed), which is kernel-independent semantic work — so
``events_per_s`` compares kernels fairly.
"""

from __future__ import annotations

from ..circuit.gatetypes import SOURCE_TYPES
from ..circuit import generators
from ..faults.inject import inject_stuck_at_faults
from ..sim.compare import failing_vector_mask
from ..sim.logicsim import output_rows, propagate, propagate_scan, simulate
from ..sim.packing import PatternSet, popcount
from .harness import best_of

SCHEMA = "repro.bench_sim/1"
KERNELS = ("event", "scan", "full")
_KEYS = ("circuit", "nvectors", "kernel", "wall_s", "events_per_s",
         "gates", "events")
RECORD_KEYS = {"micro": _KEYS, "scaling": _KEYS}

#: Timing repeats (best-of) and workload seed of a full run.
REPEATS = 3
SEED = 0

#: Default circuits for the micro suite (the suite's combinational
#: c-series-style cross-section, smallest to largest).
MICRO_CIRCUITS = ("c17", "r432", "r880", "r1355")
SMOKE_MICRO_CIRCUITS = ("c17", "r432")

#: Vector ladder for the scaling suite.
SCALING_VECTORS = (64, 256, 1024, 4096)
SMOKE_SCALING_VECTORS = (64, 128)

_KERNEL_FN = {"event": propagate, "scan": propagate_scan}


def _prepare(circuit, nvectors: int, seed: int = 0):
    """Baseline values + failing-vector mask for a faulty twin.

    Injects stuck-at faults until at least one vector fails (retrying
    seeds — undetectable injections are rare but possible), mirroring
    how diagnosis states are built by the engine.
    """
    patterns = PatternSet.random(circuit.num_inputs, nvectors, seed=seed)
    values = simulate(circuit, patterns)
    good_out = output_rows(circuit, values)
    for attempt in range(10):
        workload = inject_stuck_at_faults(circuit, 2, seed=seed + attempt)
        device_out = output_rows(workload.impl,
                                 simulate(workload.impl, patterns))
        err_mask = failing_vector_mask(good_out, device_out,
                                       patterns.nbits)
        if popcount(err_mask):
            return values, err_mask, patterns
    raise RuntimeError(
        f"could not provoke a failing vector on {circuit.name!r}")


def _suspect_signals(circuit, cap: int) -> list[int]:
    """Deterministic suspect pool: live non-source signals, index order."""
    live = circuit.live_set()
    pool = [g.index for g in circuit.gates
            if g.index in live and g.gtype not in SOURCE_TYPES]
    return pool[:cap]


def _sweep(kernel: str, circuit, values, err_mask, suspects) -> int:
    """One heuristic-1 sweep; returns the event count (changed rows).

    The event kernel gets a per-sweep baseline cache, exactly as the
    diagnosis engine holds one per :class:`DiagnosisState`.
    """
    fn = _KERNEL_FN[kernel]
    kwargs = {"base_ints": {}} if kernel == "event" else {}
    events = 0
    for sig in suspects:
        flipped = values[sig] ^ err_mask
        events += len(fn(circuit, values, stem_overrides={sig: flipped},
                         **kwargs))
    return events


def run_micro(circuits=MICRO_CIRCUITS, nvectors: int = 1024,
              suspect_cap: int = 128, repeats: int = REPEATS,
              scale: float = 1.0) -> list[dict]:
    """Suspect-scoring micro suite: one record per (circuit, kernel)."""
    records = []
    for name in circuits:
        circuit = generators.by_name(name, scale=scale)
        values, err_mask, _patterns = _prepare(circuit, nvectors, SEED)
        suspects = _suspect_signals(circuit, suspect_cap)
        # Warm the netlist caches (fanout tables, levels) outside the
        # timed region for both kernels alike.
        circuit.event_fanouts()
        circuit.levels()
        for kernel in ("event", "scan"):
            wall, events = best_of(
                lambda k=kernel: _sweep(k, circuit, values, err_mask,
                                        suspects), repeats)
            records.append({
                "suite": "micro", "circuit": name, "nvectors": nvectors,
                "kernel": kernel, "wall_s": wall,
                "events_per_s": events / wall,
                "gates": len(circuit.gates), "suspects": len(suspects),
                "events": events,
            })
    return records


def run_scaling(circuit_name: str = "r880",
                vector_ladder=SCALING_VECTORS, suspect_cap: int = 64,
                repeats: int = REPEATS, scale: float = 1.0) -> list[dict]:
    """Scaling suite: simulate + event sweep across vector counts."""
    records = []
    for nvectors in vector_ladder:
        circuit = generators.by_name(circuit_name, scale=scale)
        values, err_mask, patterns = _prepare(circuit, nvectors, SEED)
        suspects = _suspect_signals(circuit, suspect_cap)
        circuit.event_fanouts()
        circuit.levels()
        wall, _ = best_of(lambda: simulate(circuit, patterns), repeats)
        records.append({
            "suite": "scaling", "circuit": circuit_name,
            "nvectors": nvectors, "kernel": "full", "wall_s": wall,
            "events_per_s": len(circuit.gates) / wall,
            "gates": len(circuit.gates), "events": len(circuit.gates),
        })
        wall, events = best_of(
            lambda: _sweep("event", circuit, values, err_mask, suspects),
            repeats)
        records.append({
            "suite": "scaling", "circuit": circuit_name,
            "nvectors": nvectors, "kernel": "event", "wall_s": wall,
            "events_per_s": events / wall,
            "gates": len(circuit.gates), "suspects": len(suspects),
            "events": events,
        })
    return records


def speedups(records) -> dict:
    """{circuit: scan_wall / event_wall} for the micro suite."""
    micro: dict[str, dict[str, float]] = {}
    for rec in records:
        if rec.get("suite") == "micro":
            micro.setdefault(rec["circuit"], {})[rec["kernel"]] = \
                rec["wall_s"]
    return {name: walls["scan"] / walls["event"]
            for name, walls in micro.items()
            if "scan" in walls and "event" in walls}


def run_suites(smoke: bool = False) -> dict:
    """Run both suites and assemble the BENCH_sim.json payload."""
    if smoke:
        micro = run_micro(SMOKE_MICRO_CIRCUITS, nvectors=128,
                          suspect_cap=24, repeats=1, scale=0.3)
        scaling = run_scaling("r880", SMOKE_SCALING_VECTORS,
                              suspect_cap=16, repeats=1, scale=0.3)
    else:
        micro = run_micro()
        scaling = run_scaling()
    records = micro + scaling
    return {
        "schema": SCHEMA,
        "smoke": smoke,
        "records": records,
        "summary": {"micro_speedup_scan_over_event": speedups(records)},
    }


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def semantic_errors(payload) -> list[str]:
    """Value sanity (types, known kernels, positive counts and wall
    times), *not* the timings themselves — a slow run is a valid run."""
    errors: list[str] = []
    for i, rec in enumerate(payload["records"]):
        where = f"records[{i}]"
        if not isinstance(rec["circuit"], str):
            errors.append(f"{where}: circuit must be str")
        if rec["kernel"] not in KERNELS:
            errors.append(f"{where}: unknown kernel {rec['kernel']!r}")
        for key in ("nvectors", "events"):
            value = rec[key]
            if not _is_number(value) or isinstance(value, float) \
                    or value <= 0:
                errors.append(f"{where}: {key} must be a positive int")
        if not _is_number(rec["wall_s"]) or rec["wall_s"] <= 0:
            errors.append(f"{where}: wall_s must be a positive number")
        if not _is_number(rec["events_per_s"]) or rec["events_per_s"] < 0:
            errors.append(f"{where}: events_per_s must be a number >= 0")
    return errors


def summary_lines(payload) -> list[str]:
    lines = [f"{'suite':<9}{'circuit':<9}{'nvec':>6}{'kernel':>7}"
             f"{'wall_s':>10}{'events/s':>12}"]
    for rec in payload["records"]:
        lines.append(
            f"{rec['suite']:<9}{rec['circuit']:<9}"
            f"{rec['nvectors']:>6}{rec['kernel']:>7}"
            f"{rec['wall_s']:>10.4f}{rec['events_per_s']:>12.0f}")
    for name, ratio in sorted(
            payload["summary"]["micro_speedup_scan_over_event"].items()):
        lines.append(f"speedup {name}: event kernel {ratio:.1f}x over scan")
    return lines
