"""Search solutions build their corrected netlist on first read.

A leaf of the exact search is judged from its parent's state and gets
no netlist of its own, and a DEDC node's netlist carries search-time
cone caches; either :class:`Solution` carries the base netlist plus the
chain of applied corrections instead.  These tests pin that
the lazily built netlist is the one the eager child construction makes,
that it crosses the process pool without its base, and that nothing
reads it by accident.
"""

import pickle

import pytest

from repro.circuit import bench_io, generators
from repro.diagnose import (DiagnosisConfig, DiagnosisState,
                            IncrementalDiagnoser, Mode, rectifies)
from repro.diagnose.engine import fast_stuck_at_child
from repro.diagnose.report import CorrectionRecord, Solution
from repro.faults import (inject_stuck_at_faults,
                          observable_design_error_workload)
from repro.faults.models import Correction, CorrectionKind
from repro.sim import PatternSet, output_rows, simulate
from repro.tgen import random_patterns
from repro.tgen.distinguish import refine_diagnosis


def _case(seed):
    spec = generators.random_dag(5, 30, 3, seed=seed)
    workload = inject_stuck_at_faults(spec, 2, seed=seed + 7)
    patterns = PatternSet.random(5, 256, seed=seed + 1)
    return spec, workload, patterns


def _exact(good, device, patterns, **kwargs):
    # fault-modeling direction: the good netlist is corrected until it
    # reproduces the device
    config = DiagnosisConfig(mode=Mode.STUCK_AT, exact=True, max_errors=2,
                             **kwargs)
    return IncrementalDiagnoser(device, good, patterns, config).run()


@pytest.mark.parametrize("seed", [0, 1, 3, 5])
def test_lazy_netlist_rectifies_and_matches_eager_child(seed):
    spec, workload, patterns = _case(seed)
    result = _exact(spec, workload.impl, patterns)
    assert result.solutions
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    for solution in result.solutions:
        assert rectifies(workload.impl, solution.netlist, patterns)
        state = DiagnosisState(spec, patterns, device_out)
        for corr in solution.chain:
            state = fast_stuck_at_child(state, corr)
        assert state.rectified
        assert bench_io.dumps(solution.netlist) \
            == bench_io.dumps(state.netlist)


def test_unread_exact_result_holds_no_netlist_copy():
    spec, workload, patterns = _case(0)
    result = _exact(spec, workload.impl, patterns)
    assert result.solutions
    for solution in result.solutions:
        assert solution.base is spec
        assert vars(solution)["_netlist"] is None
    built = result.solutions[0].netlist
    assert built is not spec
    assert result.solutions[0].netlist is built   # built once


def test_jobs2_round_trip_carries_no_base():
    spec, workload, patterns = _case(1)
    serial = _exact(spec, workload.impl, patterns, jobs=1)
    pooled = _exact(spec, workload.impl, patterns, jobs=2)
    assert [s.describe() for s in pooled.solutions] \
        == [s.describe() for s in serial.solutions]
    assert pooled.solutions == serial.solutions
    for solution in pooled.solutions:
        assert solution.base is spec   # re-bound after the merge
        assert rectifies(workload.impl, solution.netlist, patterns)
        # the worker-side pickle: records and corrections only
        clone = pickle.loads(pickle.dumps(solution))
        assert clone.base is None
        assert vars(clone)["_netlist"] is None
        assert clone.chain == solution.chain
        assert clone == solution
        assert bench_io.dumps(clone.bound_to(spec).netlist) \
            == bench_io.dumps(solution.netlist)


@pytest.mark.parametrize("jobs", [1, 2])
def test_dedc_solution_builds_a_rectifying_netlist(jobs):
    spec = generators.random_dag(8, 60, 4, seed=3)
    patterns = random_patterns(spec, 256, seed=4)
    impl = observable_design_error_workload(spec, 2, patterns,
                                            seed=6).impl
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, exact=False,
                             max_errors=3, jobs=jobs)
    result = IncrementalDiagnoser(spec, impl, patterns, config).run()
    assert result.solutions
    for solution in result.solutions:
        assert solution.base is impl   # bound to the caller's netlist
        assert len(solution.chain) == solution.size
        assert vars(solution)["_netlist"] is None
        assert rectifies(spec, solution.netlist, patterns)


def test_eager_solution_keeps_its_netlist(c17):
    records = (CorrectionRecord("sa0@G10", "sa0", "G10"),)
    solution = Solution(records, netlist=c17)
    assert solution.netlist is c17
    assert solution.bound_to(None) is solution
    assert pickle.loads(pickle.dumps(solution)).netlist is not None
    assert Solution(records).netlist is None


def test_equality_and_hashing_never_build_the_netlist():
    records = (CorrectionRecord("sa1@n1", "sa1", "n1"),)
    unbound = Solution(records,
                       chain=(Correction(0, CorrectionKind.STUCK_AT_1),))
    twin = Solution(records,
                    chain=(Correction(0, CorrectionKind.STUCK_AT_1),))
    assert unbound == twin
    assert hash(unbound) == hash(twin)
    assert len({unbound, twin}) == 1
    assert "sa1@n1" in repr(unbound)
    with pytest.raises(ValueError, match="bound"):
        unbound.netlist   # noqa: B018 - reading it must not pass silently


def test_dedup_and_refine_read_lazy_netlists(c17):
    workload = inject_stuck_at_faults(c17, 1, seed=1)
    patterns = PatternSet.random(5, 24, seed=0)   # few: several tuples
    deduped = _exact(c17, workload.impl, patterns, prove_dedup=True)
    plain = _exact(c17, workload.impl, patterns)
    assert len(plain.solutions) > 1
    assert deduped.stats.dedup_checked > 0
    assert len(deduped.solutions) + deduped.stats.dedup_merged \
        == len(plain.solutions)
    survivors, extended = refine_diagnosis(workload.impl, plain.solutions,
                                           patterns)
    assert 1 <= len(survivors) <= len(plain.solutions)
    for solution in survivors:
        assert rectifies(workload.impl, solution.netlist, extended)
