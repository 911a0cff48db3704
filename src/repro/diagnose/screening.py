"""Correction screening: static pre-screen, Theorem 1, heuristics 2 & 3.

**Static pre-screen**: suspects whose complement provably cannot reach
a primary output — unobservable or ODC-blocked per the dataflow facts —
can be dropped without a single simulation (:func:`prescreen_suspects`,
an analysis primitive the combinational search does not call).

**Theorem 1** (§3.2): among the lines l1..lN of any valid correction set,
the largest excitation set Vi has at least ``|V| / N`` vectors — so at
least one member correction must complement at least that many bits of
its line's ``Verr`` bit-list.  :func:`theorem1_bound` computes the bound;
:func:`screen_verr` applies it (or the stricter empirical ``h2``
threshold) with "a single simulation step on the gate driving l".

**Heuristic 3** (§3.2): "Any qualifying correction may sensitize only a
small number of new paths to previously correct primary outputs" — but
not zero, because partially-corrected designs can legitimately get worse
before they get better (the paper's Fig. 1 reconvergence example).
:func:`evaluate_correction` measures the actual effect by bit-parallel
propagation over the ``Vcorr`` bit-lists and rejects corrections whose
kept-correct fraction falls below ``h3``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InjectionError
from ..faults.models import Correction, CorrectionKind, corrected_line_words
from ..sim.packing import popcount, row_popcounts
from .bitlists import DiagnosisState, OverrideOutcome, frozen
from .candidates import is_correctable_line


def prescreen_suspects(state: DiagnosisState, lines,
                       deep: bool = False) -> tuple[list, int]:
    """Static suspect pre-screen: drop lines no correction can excite.

    Reads the dataflow facts of the node's netlist
    (:func:`repro.analyze.dataflow.netlist_facts` — cached on the
    netlist, so repeated calls on one node pay nothing).  A
    suspect line is dropped when its driver signal

    * has no combinational path to any primary output, or
    * is ODC-blocked: some dominator of the signal has a side input,
      outside the signal's fanout cone, that provably carries the
      dominator's controlling value on every vector.

    Both conditions imply the complement of the line changes **no
    primary output on any input vector** (the side input is outside the
    perturbed region, so its constant proof survives the fault) — the
    line cannot explain any failing response, so no simulation is
    spent on it.  Branch lines inherit their stem's verdict: every
    branch path is a stem path, so a blocked stem blocks its branches.

    ``deep=True`` additionally uses implication- and hash-derived
    constants (pricier).

    The drop is airtight per suspect.  Re-applied per node on a
    partially-corrected netlist it could in principle hide exotic
    tuples whose members pairwise mask each other's observability.
    The combinational search screens with path trace and Theorem 1
    only and does not call it; the sequential variant is
    ``DiagnosisConfig.seq_prescreen``.

    Returns ``(kept_lines, dropped_count)`` with order preserved.
    """
    from ..analyze.dataflow import netlist_facts
    facts = netlist_facts(state.netlist)
    observable = facts.observable_set()
    blocked = facts.blocked_signals(deep=deep)
    kept = []
    dropped = 0
    for line_index in lines:
        driver = state.table[line_index].driver
        if driver not in observable or driver in blocked:
            dropped += 1
        else:
            kept.append(line_index)
    return kept, dropped


def theorem1_bound(num_failing: int, num_errors: int) -> int:
    """Minimum ``|Verr|`` bits the best member of an N-error correction
    set must complement: ``ceil(|V| / N)`` by the pigeonhole principle."""
    if num_failing <= 0:
        return 0
    if num_errors <= 0:
        raise ValueError("num_errors must be positive")
    return math.ceil(num_failing / num_errors)


@dataclass
class ScreenedCorrection:
    """A correction that survived screening, with its measured effect."""

    correction: Correction
    new_words: np.ndarray
    complemented: int          # Verr bits flipped (heuristic 2 count)
    outcome: OverrideOutcome   # propagation effect (heuristics 1 & 3)
    h1_score: float
    h3_score: float

    @property
    def fixes_all(self) -> bool:
        return self.outcome.fixes_all


def predicted_words(state: DiagnosisState,
                    corr: Correction) -> np.ndarray | None:
    """Corrected line values, or None when structurally impossible."""
    try:
        return corrected_line_words(state.netlist, state.table, corr,
                                    state.values)
    except InjectionError:
        return None


def screen_verr(state: DiagnosisState, corr: Correction,
                required_bits: int,
                new_words: np.ndarray | None = None) -> int | None:
    """Heuristic 2: count complemented ``Verr`` bits; None if rejected.

    ``required_bits`` is either the empirical ``h2 * |Verr|`` threshold
    or the Theorem 1 bound (exact mode).  A correction that changes no
    bit at all (on failing or passing vectors) is also rejected — it is
    a no-op.
    """
    if new_words is None:
        new_words = predicted_words(state, corr)
    if new_words is None:
        return None
    delta = new_words ^ state.line_values(corr.line)
    complemented = popcount(delta & state.err_mask)
    if complemented < max(required_bits, 1):
        return None
    return complemented


def screen_stuck_at(state: DiagnosisState, lines,
                    required_bits: int) -> list:
    """:func:`screen_verr` for both stuck-at models of many lines at once.

    A stuck-at-0 complements the line's ones among the failing
    vectors, ``c0 = popcount(values[driver] & err_mask)``; a stuck-at-1
    complements its zeros, ``num_err - c0``.  One row popcount of
    ``values & err_mask`` yields ``c0`` for every signal of the node.
    Returns ``(complemented, correction)`` pairs for the correctable
    lines, sa0 before sa1 per line, exactly the pairs and order of a
    per-correction :func:`screen_verr` loop.
    """
    ones = row_popcounts(state.values & state.err_mask)
    need = max(required_bits, 1)
    screened = []
    for line in lines:
        if not is_correctable_line(state, line):
            continue
        c0 = int(ones[state.table[line].driver])
        if c0 >= need:
            screened.append((c0, Correction(line,
                                            CorrectionKind.STUCK_AT_0)))
        c1 = state.num_err - c0
        if c1 >= need:
            screened.append((c1, Correction(line,
                                            CorrectionKind.STUCK_AT_1)))
    return screened


def correction_effect(state: DiagnosisState,
                      corr: Correction) -> tuple | None:
    """``(predicted words, complemented Verr bits)`` of a correction.

    Measured once per state (:meth:`DiagnosisState.cached`); the words
    are read-only because every :class:`ScreenedCorrection` built from
    them shares the array.  None when the correction is structurally
    impossible or a no-op (complements no ``Verr`` bit) — rejections no
    threshold can undo.  A rung's ``h2`` bound is a comparison on the
    cached count.
    """
    def measure():
        new_words = predicted_words(state, corr)
        if new_words is None:
            return None
        complemented = screen_verr(state, corr, 0, new_words)
        if complemented is None:
            return None
        return frozen(new_words), complemented
    return state.cached(("effect", corr), measure)


def evaluate_correction(state: DiagnosisState, corr: Correction,
                        required_bits: int,
                        h3: float) -> ScreenedCorrection | None:
    """Full screen: heuristic 2, then propagate and apply heuristic 3.

    Returns None when the correction is screened out.  ``h3 <= 0``
    disables the heuristic-3 screen (exact mode uses this so no valid
    tuple is pruned).
    """
    effect = correction_effect(state, corr)
    if effect is None or effect[1] < required_bits:
        return None
    new_words, complemented = effect
    outcome = state.outcome_of_override(corr.line, new_words)
    h1_score = outcome.h1_score(state)
    h3_score = outcome.h3_score(state)
    if h3 > 0 and h3_score < h3:
        return None
    return ScreenedCorrection(corr, new_words, complemented, outcome,
                              h1_score, h3_score)


def screen_corrections(state: DiagnosisState, corrections,
                       required_bits: int,
                       h3: float) -> list[ScreenedCorrection]:
    """Batched screen of many candidate corrections on one state.

    Every measurement comes from the state's memos (see
    :func:`correction_effect` and
    :meth:`DiagnosisState.outcome_of_override`), so re-screening a
    node's vocabulary at a relaxed threshold propagates nothing that an
    earlier screen already did.  Rejected corrections simply do not
    appear in the result; order is preserved otherwise.
    """
    survivors: list[ScreenedCorrection] = []
    for corr in corrections:
        sc = evaluate_correction(state, corr, required_bits, h3)
        if sc is not None:
            survivors.append(sc)
    return survivors
