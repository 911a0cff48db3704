"""Diagnosis state: the paper's ``Verr``/``Vcorr`` bit-lists.

Section 2: "we simulate a number of random input test vectors V and
create two bit-lists, Verr_l and Vcorr_l, on every line l in the circuit.
The i-th entry of the Verr_l (Vcorr_l) list contains the logic value of l
when we simulate the i-th input test vector from V with erroneous
(correct) primary output responses."

We store the same information column-wise: one packed value matrix for
the whole implementation plus two packed vector masks (``err_mask``,
``corr_mask``) partitioning V.  ``Verr_l`` is then ``values[l] &
err_mask`` conceptually; every count the heuristics need reduces to an
AND + popcount.  The bit-lists are "properly updated during diagnosis and
correction" simply by rebuilding the state of each decision-tree node
from its (corrected) netlist.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..circuit.lines import LineTable
from ..circuit.netlist import Netlist
from ..sim.compare import masked
from ..sim.logicsim import output_rows, propagate, simulate
from ..sim.packing import PatternSet, popcount, tail_mask


def reference_outputs(netlist: Netlist,
                      patterns: PatternSet) -> np.ndarray:
    """Packed output rows of a netlist over a pattern set.

    The shared *ingest* step of the staged pipeline
    (:mod:`repro.diagnose.pipeline`): the combinational engine uses it
    for the spec's reference responses, the time-frame and SAT
    diagnosers for the faulty device's observed responses.
    """
    return output_rows(netlist, simulate(netlist, patterns))


def error_partition(out: np.ndarray, ref_out: np.ndarray,
                    nbits: int) -> tuple:
    """Partition V against reference responses (the *bitlists* step).

    Returns ``(diff, err_mask, num_err)``: per-output packed mismatch
    rows (tail-masked), the packed mask of vectors failing on any
    output, and its popcount.  One definition shared by
    :class:`DiagnosisState`, the time-frame joint state and the SAT
    diagnoser's constraint-vector split.
    """
    diff = masked(out ^ ref_out, nbits)
    err_mask = np.bitwise_or.reduce(diff, axis=0)
    return diff, err_mask, popcount(err_mask)


class DiagnosisState:
    """Simulation snapshot of one implementation against the spec.

    This object is immutable in spirit: the decision tree creates a fresh
    state per node (after applying that node's correction to a netlist
    copy).  Because nothing about it changes, every measurement the
    search takes on it is memoized here: override outcomes
    (:meth:`outcome_of_override`) and, through :meth:`cached`, path-trace
    counts, correction vocabularies, predicted words and child states.
    None of them depends on the h-ladder rung or the deepening target
    that asks, so each rung reads the memo and applies only its own
    thresholds.  The memos live as long as the state does.

    Attributes:
        netlist: the (possibly partially corrected) implementation.
        table: its line table (fault/correction sites), built on first
            read — most exact-search children are judged from the
            parent's state and never need one.
        values: packed value matrix, one row per signal.
        spec_out: packed spec responses, one row per primary output.
        diff: per-output packed mismatch rows (tail-masked).
        err_mask: packed mask of failing vectors (any output wrong).
        corr_mask: packed mask of passing vectors.
        num_err / num_corr: vector counts per partition.
        num_err_pairs: failing (output, vector) pairs.
    """

    def __init__(self, netlist: Netlist, patterns: PatternSet,
                 spec_out: np.ndarray,
                 values: np.ndarray | None = None):
        self.netlist = netlist
        self.patterns = patterns
        self.values = simulate(netlist, patterns) if values is None \
            else values
        self.spec_out = spec_out
        out = output_rows(netlist, self.values)
        self.diff, self.err_mask, self.num_err = error_partition(
            out, spec_out, patterns.nbits)
        full = np.full_like(self.err_mask, np.uint64(0xFFFFFFFFFFFFFFFF))
        full[-1] = tail_mask(patterns.nbits)
        self.corr_mask = self.err_mask ^ full
        self.num_corr = patterns.nbits - self.num_err
        self.num_err_pairs = popcount(self.diff)
        # One scratch diff matrix reused by every outcome_of_override
        # call (the heuristic-1/3 sweeps evaluate hundreds of overrides
        # per tree node; allocating a fresh matrix each time dominated).
        self._diff_scratch: np.ndarray | None = None
        # Baseline big-int rows for the event kernel, shared by every
        # propagate call on this state (values never mutates in place).
        self._base_ints: dict[int, int] = {}
        self._outcomes: dict = {}   # (site, words bytes) -> outcome
        self._memo: dict = {}       # see cached()

    # ------------------------------------------------------------------
    @cached_property
    def table(self) -> LineTable:
        return LineTable(self.netlist)

    @property
    def rectified(self) -> bool:
        """True when the implementation matches the spec on all of V."""
        return self.num_err == 0

    @property
    def v_ratio(self) -> float:
        """Fraction of failing vectors (the ranking formula's V_ratio)."""
        if self.patterns.nbits == 0:
            return 0.0
        return self.num_err / self.patterns.nbits

    def line_values(self, line_index: int) -> np.ndarray:
        """Packed logic values carried by a line (== its stem signal)."""
        return self.values[self.table[line_index].driver]

    def verr_size(self) -> int:
        """|Verr|: entries in every line's erroneous bit-list."""
        return self.num_err

    def cone_of(self, signal: int) -> set:
        """Fanout cone of a signal (gate index set).

        Backed by the :meth:`Netlist.sorted_cone` cache, so the cone
        survives across every consumer working on this netlist.
        """
        return self.netlist.fanout_cone(signal)

    def cached(self, key, compute):
        """The measurement ``key`` of this state; ``compute()`` runs on
        the first read only.

        Keys are tuples led by a tag naming the measurement (for example
        ``("pathtrace", samples, seed)`` or ``("child", correction)``).
        Arrays a caller stores here are shared by every later reader, so
        they should be made read-only (:func:`frozen`).
        """
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    # ------------------------------------------------------------------
    def propagate_line_override(self, line_index: int,
                                new_words: np.ndarray) -> dict:
        """Push a hypothetical line value through its fanout cone.

        Stem lines override the whole signal, branch lines only the sink
        pin.  Returns the changed-row dict of
        :func:`repro.sim.logicsim.propagate`.
        """
        line = self.table[line_index]
        if line.is_stem:
            return propagate(self.netlist, self.values,
                             stem_overrides={line.driver: new_words},
                             base_ints=self._base_ints)
        return propagate(self.netlist, self.values,
                         pin_overrides={(line.sink, line.pin): new_words},
                         base_ints=self._base_ints)

    def outcome_of_override(self, line_index: int,
                            new_words: np.ndarray) -> "OverrideOutcome":
        """Propagate an override and summarize its effect on V.

        Memoized on the override's site — the driver signal of a stem
        line, ``(sink, pin)`` of a branch — and the words' bytes, so the
        heuristic-1 potentials, the heuristic-2/3 screen and the
        exact-mode head ordering and leaf decisions propagate each
        distinct override once per state.  A miss reuses one per-state
        scratch diff matrix, so a whole suspect-scoring sweep performs
        no per-candidate allocations beyond the propagate result itself.
        """
        line = self.table[line_index]
        site = line.driver if line.is_stem else (line.sink, line.pin)
        key = (site, new_words.tobytes())
        outcome = self._outcomes.get(key)
        if outcome is None:
            outcome = self._outcomes[key] = self._measure_override(
                line_index, new_words)
        return outcome

    def _measure_override(self, line_index: int,
                          new_words: np.ndarray) -> "OverrideOutcome":
        changed = self.propagate_line_override(line_index, new_words)
        nbits = self.patterns.nbits
        if self._diff_scratch is None:
            self._diff_scratch = np.empty_like(self.diff)
        diff_after = self._diff_scratch
        np.copyto(diff_after, self.diff)
        for pos, po in enumerate(self.netlist.outputs):
            row = changed.get(po)
            if row is not None:
                np.bitwise_xor(row, self.spec_out[pos],
                               out=diff_after[pos])
        diff_after[..., -1] &= tail_mask(nbits)
        err_after = np.bitwise_or.reduce(diff_after, axis=0)
        rectified_vecs = popcount(self.err_mask & ~err_after)
        broken_vecs = popcount(self.corr_mask & err_after)
        fixed_pairs = popcount(self.diff & ~diff_after)
        return OverrideOutcome(rectified_vecs, broken_vecs, fixed_pairs,
                               popcount(err_after) == 0)


def frozen(words: np.ndarray) -> np.ndarray:
    """``words`` marked read-only (for arrays shared through a memo)."""
    words.setflags(write=False)
    return words


class OverrideOutcome:
    """Effect of one hypothetical line override on the vector set."""

    __slots__ = ("rectified_vectors", "broken_vectors", "fixed_pairs",
                 "fixes_all")

    def __init__(self, rectified_vectors: int, broken_vectors: int,
                 fixed_pairs: int, fixes_all: bool):
        self.rectified_vectors = rectified_vectors
        self.broken_vectors = broken_vectors
        self.fixed_pairs = fixed_pairs
        self.fixes_all = fixes_all

    def h1_score(self, state: DiagnosisState) -> float:
        """Fraction of failing vectors this override rectifies."""
        return (self.rectified_vectors / state.num_err
                if state.num_err else 1.0)

    def h3_score(self, state: DiagnosisState) -> float:
        """Fraction of passing vectors that stay passing."""
        return (1.0 - self.broken_vectors / state.num_corr
                if state.num_corr else 1.0)
