"""Path-trace: the first diagnosis step.

The paper uses the line-marking procedure of Venkataraman & Fuchs
(similar to critical path tracing): "For an erroneous vector v, path
trace starts from an erroneous primary output for v and traces backwards
toward the primary inputs of the circuit, while marking lines of
interest" (§2).  Its guarantee — it "always marks at least one line from
every set of valid corrections" — is what keeps the incremental search
complete; the test suite checks the guarantee empirically.

Marking rule at a gate, for the vector's simulated (faulty) values:

* if some inputs carry the gate's controlling value, trace through *all*
  controlling inputs;
* otherwise trace through all inputs (all are non-controlling, so every
  one of them is on a potentially sensitized path);
* NOT/BUF inputs always have controlling value (§2) and are always
  traced.

Both the stem line of each traced signal and the branch line of each
traversed fanout branch are marked.

:func:`path_trace_counts` runs the rule for a whole sample of failing
vectors at once: every signal's values under the sample become one
Python-int mask (bit *j* = vector *j*), and a single sweep in reverse
topological order carries "traced under these vectors" masks from the
failing outputs back to the inputs.  A line's count is the popcount of
its mask.  :func:`path_trace_vector` is the one-vector DFS the kernel
must agree with; the test suite checks them against each other.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from ..circuit.gatetypes import GateType, controlling_value
from ..sim.packing import WORD_BITS, bit_indices
from .bitlists import DiagnosisState, frozen

_SOURCES = (GateType.INPUT, GateType.CONST0, GateType.CONST1,
            GateType.DFF)


def path_trace_vector(state: DiagnosisState, vector: int) -> set:
    """Line indices marked by path-tracing one failing vector."""
    netlist = state.netlist
    table = state.table
    word, bit = divmod(vector, WORD_BITS)
    shift = np.uint64(bit)
    one = np.uint64(1)
    column = ((state.values[:, word] >> shift) & one).astype(np.uint8)
    marked: set = set()
    visited: set = set()
    stack: list = []
    for pos, po in enumerate(netlist.outputs):
        if (int(state.diff[pos, word]) >> bit) & 1:
            stack.append(po)
    gates = netlist.gates
    while stack:
        signal = stack.pop()
        if signal in visited:
            continue
        visited.add(signal)
        marked.add(table.stem(signal).index)
        gate = gates[signal]
        if gate.gtype in _SOURCES:
            continue
        ctrl = controlling_value(gate.gtype)
        pins = range(len(gate.fanin))
        if ctrl is not None:
            controlling_pins = [p for p in pins
                                if column[gate.fanin[p]] == ctrl]
            if controlling_pins:
                pins = controlling_pins
        for pin in pins:
            branch = table.branch(signal, pin)
            if branch is not None:
                marked.add(branch.index)
            stack.append(gate.fanin[pin])
    return marked


def derive_seed(base_seed: int, signatures) -> int:
    """Per-node path-trace sampling seed.

    Reusing ``config.seed`` verbatim at every decision-tree node made
    the sampled failing-vector subset *correlated* across the whole
    search: every node with more failing vectors than the sample size
    drew "the same" random indices, so a pathological sample at the
    root stayed pathological all the way down.  Instead each node mixes
    the base seed with its applied-correction signatures.

    The hash is cryptographic (BLAKE2), not ``hash()``: stable across
    processes (``PYTHONHASHSEED``), interpreter versions and the
    worker pool, and independent of the order corrections were applied
    (signatures are sorted), so serial, parallel and resumed runs all
    sample identically at the same tree node.  A node with no applied
    corrections keeps ``base_seed`` itself — root sampling is unchanged
    from earlier releases.
    """
    if not signatures:
        return int(base_seed)
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(int(base_seed)).encode())
    for signature in sorted(signatures):
        digest.update(b"\x00")
        digest.update(signature.encode())
    return int.from_bytes(digest.digest(), "little")


def _sample_masks(rows: np.ndarray, vectors: list) -> list:
    """One Python-int mask per row of a packed matrix: bit ``j`` holds
    the row's value under ``vectors[j]``."""
    vec = np.asarray(vectors, dtype=np.int64)
    words = vec // WORD_BITS
    shifts = (vec % WORD_BITS).astype(np.uint64)
    masks: list = []
    for start in range(0, len(vectors), WORD_BITS):
        chunk = slice(start, start + WORD_BITS)
        bits = (rows[:, words[chunk]] >> shifts[chunk]) & np.uint64(1)
        place = np.arange(bits.shape[1], dtype=np.uint64)
        part = np.bitwise_or.reduce(bits << place, axis=1).tolist()
        masks = part if not masks else [m | (p << start)
                                         for m, p in zip(masks, part)]
    return masks


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def path_trace_counts(state: DiagnosisState, max_vectors: int = 24,
                      seed: int = 0) -> np.ndarray:
    """Mark counts per line over a sample of failing vectors.

    Lines with a high count are promoted to the second diagnosis step
    (§3.1: "we allow lines that have a high path-trace count to qualify").
    Returns an int array indexed by line-table position.  Equal to
    summing :func:`path_trace_vector` over the same sample, computed in
    one bit-parallel sweep.
    """
    table = state.table
    counts = np.zeros(len(table), dtype=np.int64)
    failing = bit_indices(state.err_mask, state.patterns.nbits)
    if not failing:
        return counts
    if len(failing) > max_vectors:
        rng = random.Random(seed)
        failing = rng.sample(failing, max_vectors)
    netlist = state.netlist
    gates = netlist.gates
    value = _sample_masks(state.values, failing)
    full = (1 << len(failing)) - 1
    # traced[s]: the sampled vectors whose trace reaches signal s
    traced: dict = {}
    for po, mask in zip(netlist.outputs,
                        _sample_masks(state.diff, failing)):
        if mask:
            traced[po] = traced.get(po, 0) | mask
    marked: list = []
    hits: list = []
    # reverse topological order: every consumer of a signal comes first,
    # so its traced mask is final when the sweep reaches it
    for signal in reversed(netlist.topo_order()):
        mask = traced.get(signal)
        if not mask:
            continue
        marked.append(table.stem(signal).index)
        hits.append(_popcount(mask))
        gate = gates[signal]
        if gate.gtype in _SOURCES:
            continue
        ctrl = controlling_value(gate.gtype)
        if ctrl is None:
            pin_masks = [mask] * len(gate.fanin)
        else:
            ctrl_at = [value[src] if ctrl else full ^ value[src]
                       for src in gate.fanin]
            any_ctrl = 0
            for at in ctrl_at:
                any_ctrl |= at
            # controlling pins where one exists, every pin elsewhere
            free = mask & ~any_ctrl
            pin_masks = [(mask & at) | free for at in ctrl_at]
        for pin, (src, pin_mask) in enumerate(zip(gate.fanin, pin_masks)):
            if not pin_mask:
                continue
            branch = table.branch(signal, pin)
            if branch is not None:
                marked.append(branch.index)
                hits.append(_popcount(pin_mask))
            traced[src] = traced.get(src, 0) | pin_mask
    counts[marked] = hits
    return counts


def cached_path_trace_counts(state: DiagnosisState, max_vectors: int,
                             seed: int) -> np.ndarray:
    """:func:`path_trace_counts`, measured once per state, sample size
    and seed; the shared array is read-only."""
    return state.cached(
        ("pathtrace", max_vectors, seed),
        lambda: frozen(path_trace_counts(state, max_vectors, seed)))


def marked_lines(counts: np.ndarray) -> list:
    """Line indices with a nonzero path-trace count, highest count first."""
    nz = np.nonzero(counts)[0]
    return sorted((int(i) for i in nz),
                  key=lambda i: (-int(counts[i]), i))


def top_fraction(counts: np.ndarray, fraction: float) -> list:
    """The "top 5-20%" selection of §3.1 (at least one line).

    Tie-inclusive: every line whose count equals the cut-off line's count
    is kept, so equally-suspicious lines are never dropped arbitrarily.
    """
    ranked = marked_lines(counts)
    if not ranked:
        return []
    keep = max(1, int(round(len(ranked) * fraction)))
    cutoff = counts[ranked[keep - 1]]
    while keep < len(ranked) and counts[ranked[keep]] == cutoff:
        keep += 1
    return ranked[:keep]
