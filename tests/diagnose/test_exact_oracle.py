"""Brute-force exactness oracle for the exact stuck-at search.

On the exhaustive vector set with ``max_errors=2`` the exact protocol
must return every minimum-cardinality tuple of stuck-at corrections
that rectifies V — no more and no fewer.  The oracle enumerates the
whole vocabulary (sa0/sa1 on every line whose driver is not a
constant, as :func:`repro.diagnose.candidates.is_correctable_line`)
without path trace, screens or search order, and compares sets of
``(kind, site)`` pairs with sites named on the original netlist.

Corrections are located by site name on the netlist they apply to.  A
pair is tried in both orders: a branch cannot be located once its own
stem has been tied (the stem's consumers then read a new constant), so
``sa0@s + sa1@s->g.0`` only exists as branch-first.
"""

import numpy as np
import pytest

from repro.circuit import GateType, LineTable, generators
from repro.diagnose import DiagnosisConfig, IncrementalDiagnoser
from repro.faults import inject_stuck_at_faults
from repro.faults.models import (STUCK_AT_KINDS, Correction,
                                 CorrectionKind, apply_correction)
from repro.sim import PatternSet
from repro.sim.compare import equivalent
from repro.sim.logicsim import output_rows, propagate, simulate
from tests.diagnose.test_prescreen import odc_xor_netlist

CONSTANTS = (GateType.CONST0, GateType.CONST1)
ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class Tied:
    """A netlist with one correction applied, simulated on V."""

    def __init__(self, netlist, patterns):
        self.netlist = netlist
        self.table = LineTable(netlist)
        self.sites = {self.table.describe(i): i
                      for i in range(len(self.table))}
        self.values = simulate(netlist, patterns)

    def tie(self, kind, site):
        """Structural copy with ``kind@site`` applied, or None when the
        site is not a line here."""
        index = self.sites.get(site)
        if index is None:
            return None
        child = self.netlist.copy()
        apply_correction(child, self.table, Correction(index, kind))
        return child

    def override_outputs(self, kind, site):
        """PO rows with ``kind@site`` forced, or None when the site is
        not a line here."""
        index = self.sites.get(site)
        if index is None:
            return None
        line = self.table[index]
        words = np.full_like(self.values[0], ONES
                             if kind is CorrectionKind.STUCK_AT_1 else 0)
        if line.is_stem:
            changed = propagate(self.netlist, self.values,
                                stem_overrides={line.driver: words})
        else:
            changed = propagate(self.netlist, self.values,
                                pin_overrides={(line.sink, line.pin):
                                               words})
        return [changed.get(po, self.values[po])
                for po in self.netlist.outputs]


def vocabulary(netlist) -> list:
    table = LineTable(netlist)
    return [(kind, table.describe(i)) for i, line in enumerate(table)
            if netlist.gates[line.driver].gtype not in CONSTANTS
            for kind in STUCK_AT_KINDS]


def brute_force(good, device_out, patterns) -> set:
    """Every minimum-cardinality (k <= 2) rectifying tuple of ``good``,
    as frozensets of ``(kind value, site)``."""
    nbits = patterns.nbits

    def fixes(rows) -> bool:
        return equivalent(device_out, rows, nbits)

    vocab = vocabulary(good)
    root = Tied(good, patterns)
    singles = {c: Tied(root.tie(*c), patterns) for c in vocab}
    found = {frozenset([(c[0].value, c[1])]) for c, tied in singles.items()
             if fixes(output_rows(tied.netlist, tied.values))}
    if found:
        return found
    for i, first in enumerate(vocab):
        for second in vocab[i + 1:]:
            if first[1] == second[1]:
                continue  # two corrections on one site are one correction
            rows = singles[first].override_outputs(*second)
            if rows is None:
                rows = singles[second].override_outputs(*first)
            if rows is not None and fixes(rows):
                found.add(frozenset([(first[0].value, first[1]),
                                     (second[0].value, second[1])]))
    return found


def check_exact(good, device):
    patterns = PatternSet.exhaustive(good.num_inputs)
    device_out = output_rows(device, simulate(device, patterns))
    if equivalent(device_out, output_rows(good, simulate(good, patterns)),
                  patterns.nbits):
        pytest.skip("no failing vector")
    config = DiagnosisConfig(max_errors=2, seed=3)
    result = IncrementalDiagnoser(device, good, patterns, config).run()
    assert not result.stats.truncated
    got = {frozenset((r.kind, r.site) for r in s.records)
           for s in result.solutions}
    assert got == brute_force(good, device_out, patterns)


@pytest.mark.parametrize("circuit,faults,seed", [
    ("c17", 1, 0), ("c17", 2, 1), ("c17", 2, 3),
    ("rca4", 1, 2), ("rca4", 2, 5),
])
def test_exact_matches_brute_force(circuit, faults, seed):
    good = (generators.c17() if circuit == "c17"
            else generators.ripple_carry_adder(4))
    workload = inject_stuck_at_faults(good, faults, seed=seed)
    check_exact(good, workload.impl)


@pytest.mark.parametrize("seed", [0, 1, 3, 5])
def test_exact_matches_brute_force_random_dag(seed):
    good = generators.random_dag(5, 30, 3, seed=seed)
    workload = inject_stuck_at_faults(good, 2, seed=seed + 7)
    check_exact(good, workload.impl)


def test_exact_matches_brute_force_odc_singles():
    """Every observable single stuck-at on the ODC-blocked netlist."""
    good = odc_xor_netlist()
    patterns = PatternSet.exhaustive(good.num_inputs)
    good_out = output_rows(good, simulate(good, patterns))
    root = Tied(good, patterns)
    checked = 0
    for kind, site in vocabulary(good):
        device = root.tie(kind, site)
        if equivalent(good_out, output_rows(device,
                                            simulate(device, patterns)),
                      patterns.nbits):
            continue
        check_exact(good, device)
        checked += 1
    assert checked > 0
