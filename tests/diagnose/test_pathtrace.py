"""Path-trace marking and its completeness guarantee.

The load-bearing property (from Veneris & Hajj, used in §3.1): for any
failing vector, path trace marks at least one line from every set of
valid corrections — in particular, at least one line of the *actual*
injected fault set.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import GateType, Netlist, generators
from repro.diagnose import (DiagnosisState, path_trace_counts,
                            path_trace_vector, marked_lines,
                            top_fraction)
from repro.faults import inject_stuck_at_faults
from repro.sim import PatternSet, output_rows, simulate
from repro.sim.packing import bit_indices


def diagnosis_state_for(spec, count, seed, nbits=256):
    """State in the fault-modeling direction (good netlist vs device)."""
    workload = inject_stuck_at_faults(spec, count, seed=seed)
    patterns = PatternSet.random(spec.num_inputs, nbits, seed=seed + 1)
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    state = DiagnosisState(spec, patterns, device_out)
    return state, workload


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5_000), count=st.integers(1, 3))
def test_pathtrace_marks_a_fault_line(seed, count):
    """Property: every failing vector's marking hits >=1 injected site."""
    spec = generators.random_dag(6, 50, 4, seed=seed % 7)
    state, workload = diagnosis_state_for(spec, count, seed)
    failing = bit_indices(state.err_mask, state.patterns.nbits)
    if not failing:
        return  # the random faults were unobservable on these vectors
    truth_drivers = {r.site.split("->", 1)[0] for r in workload.truth}
    for vector in failing[:10]:
        marked = path_trace_vector(state, vector)
        marked_drivers = {
            state.netlist.gates[state.table[m].driver].name
            for m in marked}
        assert marked_drivers & truth_drivers, (
            seed, count, vector, sorted(marked_drivers),
            sorted(truth_drivers))


def test_controlling_input_rule():
    """At an AND with one controlling (0) input, only that side is
    traced; with all-1 inputs, both sides are traced."""
    nl = Netlist("pt")
    a = nl.add_input("a")
    b = nl.add_input("b")
    g = nl.add_gate("g", GateType.AND, [a, b])
    nl.set_outputs([g])
    patterns = PatternSet.from_vectors([[0, 1], [1, 1]])
    # make both vectors "failing" against an inverted spec
    spec_out = ~simulate(nl, patterns)[[g]]
    state = DiagnosisState(nl, patterns, spec_out)
    marked0 = {state.table.describe(m)
               for m in path_trace_vector(state, 0)}
    assert "a" in marked0      # a=0 controls
    assert "b" not in marked0  # b=1 is not traced
    marked1 = {state.table.describe(m)
               for m in path_trace_vector(state, 1)}
    assert {"a", "b"} <= marked1


def test_branch_lines_get_marked(c17):
    state, workload = diagnosis_state_for(c17, 1, seed=0)
    counts = path_trace_counts(state, max_vectors=16, seed=0)
    described = {state.table.describe(m) for m in marked_lines(counts)}
    assert any("->" in d for d in described)  # some branch marked


def test_counts_zero_when_rectified(c17):
    patterns = PatternSet.random(5, 64, seed=0)
    spec_out = output_rows(c17, simulate(c17, patterns))
    state = DiagnosisState(c17, patterns, spec_out)
    counts = path_trace_counts(state)
    assert counts.sum() == 0


def test_counts_sampling_is_bounded(c17):
    state, _ = diagnosis_state_for(c17, 2, seed=1)
    counts = path_trace_counts(state, max_vectors=4, seed=0)
    assert counts.max() <= 4


def test_top_fraction_tie_inclusive():
    counts = np.array([0, 5, 5, 5, 2, 0])
    top = top_fraction(counts, 0.34)  # 1/3 of the 4 marked lines
    # lines 1,2,3 tie at 5; all three must be kept
    assert set(top) == {1, 2, 3}
    assert top_fraction(np.zeros(4, dtype=int), 0.5) == []


def test_marked_lines_sorted_by_count():
    counts = np.array([1, 7, 0, 3])
    assert marked_lines(counts) == [1, 3, 0]


# ----------------------------------------------------------------------
# the bit-parallel kernel against the one-vector oracle
# ----------------------------------------------------------------------
def _oracle_counts(state, max_vectors, seed):
    """Counts summed from :func:`path_trace_vector` over the sample
    :func:`path_trace_counts` draws."""
    failing = bit_indices(state.err_mask, state.patterns.nbits)
    if len(failing) > max_vectors:
        failing = random.Random(seed).sample(failing, max_vectors)
    counts = np.zeros(len(state.table), dtype=np.int64)
    for vector in failing:
        for line in path_trace_vector(state, vector):
            counts[line] += 1
    return counts


_CIRCUITS = {
    "dag": lambda seed: generators.random_dag(6, 50, 4, seed=seed % 11),
    "adder": lambda seed: generators.ripple_carry_adder(3 + seed % 3),
    "alu": lambda seed: generators.alu(2 + seed % 2),
}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(_CIRCUITS)),
       seed=st.integers(0, 2_000), count=st.integers(1, 2),
       max_vectors=st.sampled_from([1, 5, 24, 64, 65, 130, 10_000]),
       faulty_side=st.booleans())
def test_counts_equal_summed_oracle(kind, seed, count, max_vectors,
                                    faulty_side):
    """Property: the one-sweep kernel counts exactly what per-vector
    path trace marks, with the sample both above and below the number
    of failing vectors.  ``faulty_side`` traces the injected netlist,
    whose tied constants are sources."""
    spec = _CIRCUITS[kind](seed)
    workload = inject_stuck_at_faults(spec, count, seed=seed)
    patterns = PatternSet.random(spec.num_inputs, 200, seed=seed + 1)
    good, bad = ((workload.impl, spec) if faulty_side
                 else (spec, workload.impl))
    state = DiagnosisState(good, patterns,
                           output_rows(bad, simulate(bad, patterns)))
    sample_seed = seed * 7 + 3
    assert np.array_equal(
        path_trace_counts(state, max_vectors, sample_seed),
        _oracle_counts(state, max_vectors, sample_seed))


def _every_gate_kind():
    """XOR/XNOR (no controlling value), NOT/BUF, constant and input
    sources, an input wired straight to an output, and gates whose two
    pins read the same signal."""
    nl = Netlist("kinds")
    a, b, c = (nl.add_input(n) for n in "abc")
    k0 = nl.add_gate("k0", GateType.CONST0, [])
    k1 = nl.add_gate("k1", GateType.CONST1, [])
    x = nl.add_gate("x", GateType.XOR, [a, b])
    xn = nl.add_gate("xn", GateType.XNOR, [b, c, c])
    n = nl.add_gate("n", GateType.NOT, [a])
    bf = nl.add_gate("bf", GateType.BUF, [x])
    d = nl.add_gate("d", GateType.AND, [a, a])
    o = nl.add_gate("o", GateType.NAND, [d, k1, n])
    p = nl.add_gate("p", GateType.OR, [bf, xn, k0])
    q = nl.add_gate("q", GateType.NOR, [n, n, c])
    nl.set_outputs([o, p, q, a, xn, q])
    return nl


@pytest.mark.parametrize("max_vectors", [3, 24, 70, 500])
@pytest.mark.parametrize("seed", range(4))
def test_counts_equal_oracle_on_every_gate_kind(max_vectors, seed):
    nl = _every_gate_kind()
    patterns = PatternSet.random(nl.num_inputs, 150, seed=seed)
    # arbitrary reference responses: most vectors fail somewhere
    rng = np.random.default_rng(seed)
    spec_out = rng.integers(0, 2**63, size=(nl.num_outputs,
                                            patterns.num_words),
                            dtype=np.uint64)
    state = DiagnosisState(nl, patterns, spec_out)
    assert state.num_err > 70
    assert np.array_equal(path_trace_counts(state, max_vectors, seed),
                          _oracle_counts(state, max_vectors, seed))
