"""Seeded instance batches of the benchmark's workloads.

An *instance* is one diagnosis problem handed to the public API:
``IncrementalDiagnoser(spec, impl, patterns, config).run()``.  The batch
of a workload is a pure function of the workload seed: reference draws
that every seed shares, plus per-seed draws.  A second seed gives a
batch of the same make-up (same circuits, same fault / error sites, same
configs) whose per-seed draws have fresh vectors, so a later claim can
be checked on a held-out seed.

Protocols (paper §4):

* ``exact``: Table 1.  Random stuck-at faults on the area-optimised
  circuit, exact diagnosis (all minimal tuples), fault-modeling
  direction: the good netlist is corrected to match the faulty device.
* ``dedc``: Table 2.  Observable Abadir design errors on the original
  redundant circuit, first valid correction set from the h1/h2/h3
  ladder, correction direction.

The only instances skipped are draws whose injected faults cause no
failing vector on V (a property of the input, checked by simulation
before any diagnosis).  The next trial is drawn instead, so every seed
yields the same instance count.  Instances are never filtered on how the
diagnosis goes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit import generators
from repro.circuit.netlist import Netlist
from repro.bench.workloads import prepare_design_error, prepare_stuck_at
from repro.diagnose import DiagnosisConfig, Mode
from repro.faults import (inject_stuck_at_faults,
                          observable_design_error_workload)
from repro.sim import PatternSet
from repro.sim.compare import masked
from repro.sim.logicsim import output_rows, simulate
from repro.tgen import random_patterns

#: Vectors per instance (the Table 1 / Table 2 harness default).
VECTORS = 1024
#: Suite scale of the seeded circuits (``benchmark_suite(0.35)``).
SUITE_SCALE = 0.35
#: Deterministic per-shard node budget of the sharded workload.
SHARD_NODE_BUDGET = 2000
#: Wall-clock safety net per operation, so that one pathological draw
#: cannot push a run past its time limit.  Hitting it truncates the
#: result, which counts as a failed operation.  DEDC draws that miss it
#: finish within a few seconds; the slowest exact reference case takes
#: about 10 s.
SAFETY_BUDGET_S = {"exact": 40.0, "dedc": 10.0}
#: Seed of every draw's fault / error sites, and of the vectors of the
#: reference draws (see the note above WORKLOADS).
REFERENCE_SEED = 2002
#: Draws tried per seeded instance before giving up on a circuit.
MAX_DRAWS = 50


@dataclass
class Instance:
    """One diagnosis operation's inputs."""

    name: str              # "r880#1", "exact/alu4", ...
    spec: Netlist
    impl: Netlist
    patterns: PatternSet
    config: DiagnosisConfig

    @property
    def exact(self) -> bool:
        return self.config.exact


@dataclass(frozen=True)
class WorkloadSpec:
    """Make-up of one workload's batch."""

    name: str
    protocol: str          # "exact" | "dedc" (of the seeded draws)
    injected: int          # stuck-at faults / design errors per instance
    jobs: int
    members: tuple         # ((circuit name, instances), ...) per seed
    fixed: tuple = ()      # bench_pipeline reference cases
    reference: tuple = ()  # ((circuit name, instances), ...) drawn at
    #                        REFERENCE_SEED


# Every draw keeps the fault / error sites drawn at REFERENCE_SEED; the
# run's seed draws the vectors V of the per-seed draws, and reference
# draws take V from REFERENCE_SEED too.  Fresh sites per seed made the
# batch cost hinge on whether a seed hit a heavy draw: a draw of r432,
# r880, r1355, r6288 or the random DAG took 3-35 s (or failed) in about
# one draw in twenty where its siblings took under one, and wall_s
# swung by 20-70% across seeds.  Even with the sites fixed, V moves the
# search: the first r432 DEDC draw takes 39 or 143 nodes depending on V
# (a 9% step in the batch's cost on about one seed in three), the same
# node count took 0.45-0.75 s across seeds on r6288 and r5315, and the
# r6288 exact draw, the slowest of its batch, took 550-635 nodes.  So
# these draws are reference draws, and the seed moves the rest.
#
# The bench_pipeline cases on alu4 are seed-independent, so the figures
# quoted for them (exact/alu4: 4319 nodes, 12 solutions) carry over.
WORKLOADS = {
    spec.name: spec for spec in (
        WorkloadSpec("exact-stuckat", "exact", 2, 1,
                     (("r499", 3), ("r880", 1), ("r1355", 3)),
                     reference=(("r6288", 1),)),
        # Two errors, not the paper's three: three-error draws took
        # 0.1-60 s each, so a pass could hold only a handful of them.
        WorkloadSpec("dedc-errors", "dedc", 2, 1,
                     (("r880", 3), ("r1355", 3)), fixed=("dedc/alu4",),
                     reference=(("r432", 2), ("r6288", 3), ("r5315", 3))),
        # Single faults: with two, about half the draws on the ~1k-gate
        # random DAG (and on r7552) ran past 30 s at jobs=2.
        WorkloadSpec("exact-sharded", "exact", 1, 2,
                     (("r5315", 2),), reference=(("rnd1k", 3),)),
        # Not in BENCHMARK.json: exact/alu4 alone takes 7-10 s, so a run
        # holds two or three of them and their best time spread by 20%
        # across runs.  Run it by name to carry the figures over.
        WorkloadSpec("alu4-reference", "exact", 2, 1, (),
                     fixed=("exact/alu4", "dedc/alu4")),
    )
}


def exact_config(faults: int, jobs: int) -> DiagnosisConfig:
    return DiagnosisConfig(
        mode=Mode.STUCK_AT, exact=True, max_errors=faults, jobs=jobs,
        worker_budget=SHARD_NODE_BUDGET if jobs > 1 else None,
        time_budget=SAFETY_BUDGET_S["exact"])


def dedc_config(errors: int) -> DiagnosisConfig:
    # max_errors = injected + 1, as in the Table 2 harness
    return DiagnosisConfig(mode=Mode.DESIGN_ERROR, exact=False,
                           max_errors=errors + 1,
                           time_budget=SAFETY_BUDGET_S["dedc"])


def fixed_instance(case: str) -> Instance:
    """The ``bench_pipeline`` reference cases on alu4 (seed-independent,
    so the figures quoted for them carry over)."""
    circuit = generators.alu(4)
    if case == "exact/alu4":
        workload = inject_stuck_at_faults(circuit, 2, seed=4)
        patterns = PatternSet.random(circuit.num_inputs, 512, seed=9)
        return Instance(case, workload.impl, circuit, patterns,
                        exact_config(2, 1))
    if case == "dedc/alu4":
        patterns = random_patterns(circuit, 512, seed=5)
        workload = observable_design_error_workload(circuit, 2, patterns,
                                                    seed=11)
        return Instance(case, circuit, workload.impl, patterns,
                        dedc_config(2))
    raise KeyError(case)


def _circuits() -> dict:
    suite = {c.name: c for c in generators.benchmark_suite(SUITE_SCALE)}
    suite["rnd1k"] = generators.random_dag(48, 1000, 24, seed=1000,
                                           name="rnd1k")
    return suite


def _has_failing_vector(a: Netlist, b: Netlist,
                        patterns: PatternSet) -> bool:
    out_a = output_rows(a, simulate(a, patterns))
    out_b = output_rows(b, simulate(b, patterns))
    return bool(masked(out_a ^ out_b, patterns.nbits).any())


def _draws(spec: WorkloadSpec, circuit: Netlist, count: int,
           vectors_seed: int, prefix: str = "") -> list:
    """``count`` instances on ``circuit``: fault / error sites drawn at
    REFERENCE_SEED, vectors V drawn at ``vectors_seed``."""
    out: list = []
    if spec.protocol == "exact":
        prepared = prepare_stuck_at(circuit)
        for trial in range(MAX_DRAWS * count):
            if len(out) == count:
                break
            workload = inject_stuck_at_faults(
                prepared.netlist, spec.injected,
                seed=REFERENCE_SEED + 7919 * trial)
            patterns = random_patterns(prepared.netlist, VECTORS,
                                       seed=vectors_seed + 104729 * trial)
            if not _has_failing_vector(workload.impl, prepared.netlist,
                                       patterns):
                continue
            out.append(Instance(f"{prefix}{circuit.name}#{len(out)}",
                                workload.impl, prepared.netlist,
                                patterns,
                                exact_config(spec.injected, spec.jobs)))
    else:
        prepared = prepare_design_error(circuit)
        for trial in range(count):
            patterns = random_patterns(prepared.netlist, VECTORS,
                                       seed=vectors_seed + 104729 * trial)
            # re-draws the sites until some vector of V fails
            workload = observable_design_error_workload(
                prepared.netlist, spec.injected, patterns,
                seed=REFERENCE_SEED + 7919 * trial)
            out.append(Instance(f"{prefix}{circuit.name}#{trial}",
                                prepared.netlist, workload.impl,
                                patterns, dedc_config(spec.injected)))
    if len(out) < count:
        raise RuntimeError(f"{circuit.name}: only {len(out)} of {count} "
                           "draws had a failing vector")
    return out


def build_batch(name: str, seed: int, smoke: bool = False) -> list:
    """The instance batch of workload ``name`` for ``seed``.

    ``smoke`` keeps one per-seed draw per circuit and skips the
    reference draws and the heavy exact/alu4 case (the self-test's
    reduced batch).
    """
    spec = WORKLOADS[name]
    batch = []
    for case in spec.fixed:
        if smoke and case == "exact/alu4":
            continue
        batch.append(fixed_instance(case))
    draws = [(c, n, REFERENCE_SEED, "ref:") for c, n in spec.reference]
    draws += [(c, n, seed, "") for c, n in spec.members]
    circuits = _circuits() if draws else {}
    for circuit_name, count, draw_seed, prefix in draws:
        if smoke and prefix:
            continue
        batch.extend(_draws(spec, circuits[circuit_name],
                            1 if smoke else count, draw_seed, prefix))
    return batch
