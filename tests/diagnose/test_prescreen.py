"""Static pre-screen soundness.

The acceptance bar: every suspect the pre-screen drops is confirmed
droppable by exhaustive simulation (complementing the line changes no
primary output on any vector).  The exact search's results are checked
by brute force in ``test_exact_oracle.py``.
"""

import pytest

from repro.circuit import GateType, LineTable, Netlist, generators
from repro.diagnose.bitlists import DiagnosisState
from repro.diagnose.screening import prescreen_suspects
from repro.faults.models import (Correction, CorrectionKind,
                                 apply_correction)
from repro.sim import PatternSet
from repro.sim.logicsim import output_rows, simulate


def odc_xor_netlist() -> Netlist:
    """`mid` and `a` are ODC-blocked behind `dom`'s constant side input;
    the XOR output keeps path-trace flowing into the blocked region."""
    nl = Netlist("odcx")
    a = nl.add_input("a")
    b = nl.add_input("b")
    c0 = nl.add_gate("c0", GateType.CONST0, [])
    buf = nl.add_gate("buf", GateType.BUF, [c0])
    mid = nl.add_gate("mid", GateType.NOT, [a])
    dom = nl.add_gate("dom", GateType.AND, [mid, buf])
    out = nl.add_gate("out", GateType.XOR, [dom, b])
    nl.set_outputs([out])
    return nl


def exhaustive_state(nl: Netlist) -> DiagnosisState:
    patterns = PatternSet.exhaustive(nl.num_inputs)
    spec_out = output_rows(nl, simulate(nl, patterns))
    return DiagnosisState(nl, patterns, spec_out)


def changes_any_output(nl: Netlist, table: LineTable, line: int,
                       kind: CorrectionKind) -> bool:
    """Exhaustive oracle: does tying the line alter any PO anywhere?"""
    patterns = PatternSet.exhaustive(nl.num_inputs)
    baseline = output_rows(nl, simulate(nl, patterns))
    tied = nl.copy()
    apply_correction(tied, table, Correction(line, kind))
    after = output_rows(tied, simulate(tied, patterns))
    return bool((baseline != after).any())


@pytest.mark.parametrize("build", [
    odc_xor_netlist,
    generators.c17,
    lambda: generators.ripple_carry_adder(4),
    lambda: generators.priority_encoder(6),
])
def test_dropped_suspects_confirmed_droppable(build):
    """Every drop is a proven no-op at every PO on every vector."""
    nl = build()
    state = exhaustive_state(nl)
    all_lines = list(range(len(state.table)))
    kept, dropped_count = prescreen_suspects(state, all_lines, deep=True)
    dropped = sorted(set(all_lines) - set(kept))
    assert dropped_count == len(dropped)
    for line in dropped:
        for kind in (CorrectionKind.STUCK_AT_0,
                     CorrectionKind.STUCK_AT_1):
            assert not changes_any_output(nl, state.table, line, kind), \
                f"pre-screen wrongly dropped {state.table.describe(line)}"


def test_prescreen_drops_blocked_lines():
    nl = odc_xor_netlist()
    state = exhaustive_state(nl)
    all_lines = list(range(len(state.table)))
    kept, dropped_count = prescreen_suspects(state, all_lines)
    assert dropped_count > 0
    dropped_drivers = {nl.gates[state.table[i].driver].name
                       for i in set(all_lines) - set(kept)}
    assert {"a", "mid"} <= dropped_drivers
    # the genuinely relevant suspects survive
    kept_drivers = {nl.gates[state.table[i].driver].name for i in kept}
    assert {"b", "dom", "out"} <= kept_drivers


@pytest.mark.parametrize("seed", range(8))
def test_prescreen_sound_on_random_circuits(seed):
    """Drops on random constant-rich netlists are exhaustively no-ops."""
    import random as pyrandom
    rng = pyrandom.Random(seed)
    nl = Netlist(f"r{seed}")
    for i in range(3):
        nl.add_input(f"pi{i}")
    for g in range(10):
        roll = rng.random()
        if roll < 0.15:
            nl.add_gate(f"g{g}", rng.choice((GateType.CONST0,
                                             GateType.CONST1)), [])
            continue
        gtype = rng.choice((GateType.AND, GateType.NAND, GateType.OR,
                            GateType.NOR, GateType.XOR, GateType.NOT,
                            GateType.BUF))
        pool = len(nl.gates)
        n_in = 1 if gtype in (GateType.NOT, GateType.BUF) else 2
        nl.add_gate(f"g{g}", gtype,
                    [rng.randrange(pool) for _ in range(n_in)])
    fanouts = nl.fanouts()
    sinks = [g.index for g in nl.gates
             if not fanouts[g.index] and g.gtype is not GateType.INPUT]
    nl.set_outputs(sinks or [len(nl.gates) - 1])

    state = exhaustive_state(nl)
    all_lines = list(range(len(state.table)))
    kept, _count = prescreen_suspects(state, all_lines, deep=True)
    for line in sorted(set(all_lines) - set(kept)):
        for kind in (CorrectionKind.STUCK_AT_0,
                     CorrectionKind.STUCK_AT_1):
            assert not changes_any_output(nl, state.table, line, kind)
