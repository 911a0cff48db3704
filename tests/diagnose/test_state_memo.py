"""Work-counter oracles for the per-state measurement memos.

Every quantity the search measures on a :class:`DiagnosisState` — an
override outcome, path-trace counts, a correction vocabulary, a
correction's predicted words, a child state — depends on the state
alone, so each is measured once per state however many ladder rungs,
deepening targets or ranking passes read it.  These tests count the
work directly: a regression to re-measuring fails here even when every
result stays the same.
"""

import weakref

import numpy as np
import pytest

from repro.circuit import generators
from repro.circuit.netlist import Netlist
from repro.diagnose import (DecisionTree, DiagnosisConfig, DiagnosisState,
                            HLevel, IncrementalDiagnoser, Mode, bitlists,
                            engine)
from repro.diagnose.pathtrace import cached_path_trace_counts
from repro.faults import (inject_stuck_at_faults,
                          observable_design_error_workload)
from repro.sim import PatternSet, output_rows, simulate
from repro.tgen import random_patterns


def _dedc_case(name):
    if name == "alu4":
        spec = generators.alu(4)
        patterns = random_patterns(spec, 512, seed=5)
        impl = observable_design_error_workload(spec, 2, patterns,
                                                seed=11).impl
    else:
        spec = generators.random_dag(8, 60, 4, seed=3)
        patterns = random_patterns(spec, 256, seed=4)
        impl = observable_design_error_workload(spec, 2, patterns,
                                                seed=6).impl
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, exact=False,
                             max_errors=3)
    return IncrementalDiagnoser(spec, impl, patterns, config)


def _exact_case():
    spec = generators.random_dag(5, 30, 3, seed=0)
    workload = inject_stuck_at_faults(spec, 2, seed=7)
    patterns = PatternSet.random(5, 256, seed=1)
    config = DiagnosisConfig(mode=Mode.STUCK_AT, exact=True,
                             max_errors=2)
    return IncrementalDiagnoser(workload.impl, spec, patterns, config)


class _PropagateLog:
    """Records one ``(state, site, words)`` key per kernel propagation
    made through :class:`DiagnosisState`."""

    def __init__(self, monkeypatch):
        self.keys: list = []
        self._alive: list = []   # pins value matrices, so ids stay unique
        original = bitlists.propagate

        def traced(netlist, values, stem_overrides=None,
                   pin_overrides=None, **kwargs):
            overrides = stem_overrides or pin_overrides
            ((site, words),) = overrides.items()
            self._alive.append(values)
            self.keys.append((id(values), site, words.tobytes()))
            return original(netlist, values,
                            stem_overrides=stem_overrides,
                            pin_overrides=pin_overrides, **kwargs)
        monkeypatch.setattr(bitlists, "propagate", traced)


def _repeats(keys) -> int:
    return len(keys) - len(set(keys))


@pytest.mark.parametrize("case", ["alu4", "random_dag"])
def test_dedc_propagates_each_override_once_per_state(monkeypatch, case):
    diagnoser = _dedc_case(case)
    log = _PropagateLog(monkeypatch)
    result = diagnoser.run()
    assert result.solutions
    assert len(result.stats.levels_tried) > 1   # several rungs read
    assert log.keys
    assert _repeats(log.keys) == 0


@pytest.mark.parametrize("case", ["alu4", "random_dag"])
def test_ladder_copies_at_most_one_netlist_per_child(monkeypatch, case):
    diagnoser = _dedc_case(case)
    pairs: list = []
    copies = []
    apply, copy = DecisionTree.apply, Netlist.copy

    def traced_apply(tree, node, sc, round_no, rank_position):
        pairs.append((node.state, sc.correction))
        return apply(tree, node, sc, round_no, rank_position)

    def traced_copy(netlist):
        copies.append(netlist)
        return copy(netlist)
    monkeypatch.setattr(DecisionTree, "apply", traced_apply)
    monkeypatch.setattr(Netlist, "copy", traced_copy)
    result = diagnoser.run()
    assert result.solutions
    distinct = {(id(state), corr) for state, corr in pairs}
    assert len(copies) <= len(distinct)
    assert len(distinct) < len(pairs)   # later rungs reused children


def test_exact_leaf_parent_propagates_each_head_candidate_once(
        monkeypatch):
    diagnoser = _exact_case()
    log = _PropagateLog(monkeypatch)
    expanded: list = []
    outcome_calls: list = []
    child, outcome = (engine.fast_stuck_at_child,
                      DiagnosisState.outcome_of_override)

    def traced_child(state, corr):
        expanded.append(state)
        return child(state, corr)

    def traced_outcome(state, line_index, new_words):
        outcome_calls.append(id(state.values))
        return outcome(state, line_index, new_words)
    monkeypatch.setattr(engine, "fast_stuck_at_child", traced_child)
    monkeypatch.setattr(DiagnosisState, "outcome_of_override",
                        traced_outcome)
    result = diagnoser.run()
    assert result.solutions
    parents = {id(state.values) for state in expanded}
    leaf_keys = [key for key in log.keys if key[0] not in parents]
    leaf_calls = [key for key in outcome_calls if key not in parents]
    assert leaf_keys
    assert _repeats(leaf_keys) == 0
    # the head ordering and the leaf decisions both asked; the memo
    # answered the second read
    assert len(leaf_calls) > len(leaf_keys)


def _state(netlist, device, patterns):
    return DiagnosisState(netlist, patterns,
                          output_rows(device, simulate(device, patterns)))


def test_stem_and_branch_overrides_keep_their_own_outcomes(c17):
    workload = inject_stuck_at_faults(c17, 1, seed=2)
    patterns = PatternSet.random(5, 256, seed=1)
    state = _state(c17, workload.impl, patterns)
    table = state.table
    fields = ("rectified_vectors", "broken_vectors", "fixed_pairs",
              "fixes_all")
    distinct = 0
    for branch in (line for line in table if not line.is_stem):
        stem = table.stem(branch.driver)
        words = state.line_values(stem.index) ^ state.err_mask
        memo_stem = state.outcome_of_override(stem.index, words)
        memo_branch = state.outcome_of_override(branch.index, words)
        for line, memo in ((stem, memo_stem), (branch, memo_branch)):
            fresh = _state(c17, workload.impl, patterns)
            truth = fresh.outcome_of_override(line.index, words)
            assert [getattr(memo, f) for f in fields] \
                == [getattr(truth, f) for f in fields]
        distinct += memo_stem is not memo_branch
    assert distinct == len(table) - table.num_stems


def test_memo_arrays_reject_writes(c17):
    workload = inject_stuck_at_faults(c17, 1, seed=2)
    patterns = PatternSet.random(5, 256, seed=1)
    state = _state(c17, workload.impl, patterns)
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR)
    tree = DecisionTree(state, 1, HLevel(0.1, 0.3, 0.5), config)
    tree.expand(tree.root)
    assert tree.root.pending
    words = tree.root.pending[0].new_words
    with pytest.raises(ValueError):
        words[0] = np.uint64(0)
    counts = cached_path_trace_counts(state, config.pathtrace_samples,
                                      config.seed)
    with pytest.raises(ValueError):
        counts[0] = 7


def test_memoized_states_die_with_the_diagnoser(monkeypatch):
    diagnoser = _dedc_case("random_dag")
    children: list = []
    apply = DecisionTree.apply

    def traced_apply(tree, node, sc, round_no, rank_position):
        child = apply(tree, node, sc, round_no, rank_position)
        children.append(weakref.ref(child.state))
        return child
    monkeypatch.setattr(DecisionTree, "apply", traced_apply)
    result = diagnoser.run()
    assert result.solutions and children
    assert children[0]() is not None   # held by the root state's memo
    del diagnoser   # no cycle: reference counting frees the states
    assert all(ref() is None for ref in children)
    assert result.solutions[0].netlist is not None
