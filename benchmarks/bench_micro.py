"""Micro-benchmarks for the substrate layers.

Not a paper table — these guard the throughput assumptions behind the
reproduction (bit-parallel simulation, PPSFP fault simulation, path
trace, PODEM, area optimization).  Useful for spotting performance
regressions when modifying the kernels.
"""

import pytest

from repro.bench import simbench
from repro.circuit import LineTable, generators
from repro.circuit.transform import optimize_area
from repro.diagnose import DiagnosisState, path_trace_counts
from repro.faults import inject_stuck_at_faults
from repro.faults.collapse import collapsed_faults
from repro.sim import FaultSimulator, PatternSet, output_rows, simulate
from repro.tgen.podem import Podem


@pytest.fixture(scope="module")
def alu():
    return generators.alu(8)


@pytest.fixture(scope="module")
def patterns(alu):
    return PatternSet.random(alu.num_inputs, 2048, seed=0)


def test_logic_simulation_throughput(benchmark, alu, patterns):
    result = benchmark(simulate, alu, patterns)
    assert result.shape[0] == len(alu.gates)
    benchmark.extra_info["gate_evals_per_call"] = \
        len(alu.gates) * patterns.nbits


def test_fault_simulation_throughput(benchmark, alu, patterns):
    table = LineTable(alu)
    faults = collapsed_faults(alu, table)[:100]
    fsim = FaultSimulator(alu, patterns, table)
    benchmark(lambda: [fsim.detection_mask(f) for f in faults])
    benchmark.extra_info["faults_per_call"] = len(faults)


def test_path_trace_throughput(benchmark, alu, patterns):
    workload = inject_stuck_at_faults(alu, 2, seed=1)
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    state = DiagnosisState(alu, patterns, device_out)
    counts = benchmark(path_trace_counts, state, 24, 0)
    assert counts.sum() > 0


def test_podem_throughput(benchmark, alu):
    table = LineTable(alu)
    faults = collapsed_faults(alu, table)[:40]
    podem = Podem(alu, table, backtrack_limit=100)
    results = benchmark(lambda: [podem.generate(f) for f in faults])
    assert sum(1 for a, _ in results if a is not None) > 0


@pytest.fixture(scope="module")
def suspect_sweep():
    """Heuristic-1 suspect-scoring workload on r880, 1024 vectors.

    The same setup ``repro bench`` times: flip each suspect line's
    failing-vector bits and propagate the difference to the outputs.
    """
    circuit = generators.by_name("r880")
    values, err_mask, _patterns = simbench._prepare(circuit, 1024, seed=0)
    suspects = simbench._suspect_signals(circuit, 128)
    circuit.event_fanouts()
    circuit.levels()
    return circuit, values, err_mask, suspects


def test_suspect_scoring_event_kernel(benchmark, suspect_sweep):
    circuit, values, err_mask, suspects = suspect_sweep
    events = benchmark(simbench._sweep, "event", circuit, values,
                       err_mask, suspects)
    assert events > 0
    benchmark.extra_info["suspects_per_call"] = len(suspects)


def test_suspect_scoring_scan_kernel(benchmark, suspect_sweep):
    """Pre-event-kernel baseline (full topological scan per suspect)."""
    circuit, values, err_mask, suspects = suspect_sweep
    events = benchmark(simbench._sweep, "scan", circuit, values,
                       err_mask, suspects)
    assert events > 0
    benchmark.extra_info["suspects_per_call"] = len(suspects)


def test_optimize_area_speed(benchmark):
    circuit = generators.by_name("r7552", scale=0.35)
    optimized = benchmark(optimize_area, circuit)
    assert len(optimized.gates) <= len(circuit.gates)


def test_netlist_facts_build(benchmark, alu):
    """Full dataflow digest (constants, hashes, implications, ODCs)."""
    from repro.analyze.dataflow import NetlistFacts

    def build():
        facts = NetlistFacts(alu)   # bypass the per-netlist cache
        facts.summary(deep=True)
        return facts

    facts = benchmark(build)
    benchmark.extra_info["gates"] = len(alu.gates)
    benchmark.extra_info["implications"] = \
        facts.implications().edge_count()


def test_netlist_facts_shallow_sections(benchmark, alu):
    """Ternary constants + dominators only — the shallow pre-screen sections."""
    from repro.analyze.dataflow import NetlistFacts

    def build():
        facts = NetlistFacts(alu)
        facts.constants()
        facts.blocked_signals()
        return facts

    benchmark(build)
    benchmark.extra_info["gates"] = len(alu.gates)


def test_diagnosis_state_build(benchmark, alu, patterns):
    workload = inject_stuck_at_faults(alu, 2, seed=1)
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    state = benchmark(DiagnosisState, alu, patterns, device_out)
    assert state.num_err >= 0
