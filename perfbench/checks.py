"""Correctness checks of one diagnosis operation, independent of the
engine's incremental states.

* Every returned set rectifies V: its corrected ``Solution.netlist`` is
  re-simulated from scratch with :func:`repro.sim.simulate` and must
  match the reference responses on every vector.
* Exact results are re-derived: each tuple is applied again, by line
  description, to the netlist handed to the engine, and the result must
  rectify V too.  The tuple set must be subset-minimal: no proper subset
  of a tuple rectifies V and no tuple contains another.
* The digest of an exact result must equal the expected digest stored
  in ``digests.json`` for the same workload, seed and instance, when one
  is stored (see ``record_digests.py``).  The sharded workload's
  digests are recorded at ``jobs=1``, so a match also proves
  jobs=1 == jobs=2.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os

from repro.circuit.lines import LineTable
from repro.faults.models import Correction, CorrectionKind, apply_correction
from repro.sim.compare import masked
from repro.sim.logicsim import output_rows, simulate

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


def digest(result) -> str:
    """Host-independent digest of a result's correction sets, in the
    engine's canonical order."""
    text = "\n".join(s.describe() for s in result.solutions)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def expected_digest(table: dict, workload: str, seed: int,
                    instance: str) -> str | None:
    """Stored digest, or None when none was recorded for this seed.
    The seed-independent reference cases are stored under ``fixed``."""
    fixed = table.get("fixed", {})
    if instance in fixed:
        return fixed[instance]
    return table.get(workload, {}).get(str(seed), {}).get(instance)


def _rectifies(netlist, patterns, reference) -> bool:
    out = output_rows(netlist, simulate(netlist, patterns))
    return not masked(out ^ reference, patterns.nbits).any()


def reapply(base, records):
    """``base`` with the stuck-at records applied in order, each located
    by its line description on the then-current netlist."""
    netlist = base.copy()
    for record in records:
        table = LineTable(netlist)
        index = next(i for i in range(len(table))
                     if table.describe(i) == record.site)
        apply_correction(netlist, table,
                         Correction(index, CorrectionKind(record.kind)))
    return netlist


def check(instance, result) -> list:
    """Problems found in ``result``; empty when it checks out."""
    patterns = instance.patterns
    reference = output_rows(instance.spec,
                            simulate(instance.spec, patterns))
    problems = []
    for solution in result.solutions:
        label = solution.describe()
        if not _rectifies(solution.netlist, patterns, reference):
            problems.append(f"{label}: corrected netlist fails V")
        if not instance.exact:
            continue
        if not _rectifies(reapply(instance.impl, solution.records),
                          patterns, reference):
            problems.append(f"{label}: re-applied tuple fails V")
        for size in range(1, solution.size):
            for subset in itertools.combinations(solution.records, size):
                if _rectifies(reapply(instance.impl, subset), patterns,
                              reference):
                    problems.append(f"{label}: not minimal, a "
                                    f"{size}-subset rectifies V")
    if instance.exact:
        keys = [s.key for s in result.solutions]
        for a, b in itertools.permutations(keys, 2):
            if a < b:
                problems.append("tuple set not subset-minimal")
                break
    return problems
