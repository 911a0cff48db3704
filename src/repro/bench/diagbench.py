"""Parallel-diagnosis benchmarks: the ``diag`` suite of ``repro bench``.

Measures the :mod:`repro.parallel` scheduler end to end: each workload
is diagnosed at ``jobs`` = 1, 2 and 4 and every record carries a
sha256 digest of the printed solution list.  :func:`semantic_errors`
enforces the scheduler's contract — all job counts on one workload must
produce the identical digest and identical deterministic counters — but
never fails on timings: speedup is reported alongside the host's CPU
count (``cpus``) because a single-core runner cannot show one.

* **exact** — the paper's exhaustive stuck-at protocol (Table 1); one
  shard per screened root correction.
* **dedc** — the h1/h2/h3 relaxation ladder (§3.4); one shard per
  ladder attempt.

:func:`build_case` also builds the ``pipeline`` suite's workloads.
"""

import dataclasses
import os
import time

from ..circuit import generators
from ..diagnose import DiagnosisConfig, IncrementalDiagnoser, Mode
from ..faults import inject_stuck_at_faults, observable_design_error_workload
from ..sim import PatternSet
from ..tgen import random_patterns
from .harness import solutions_digest

JOBS = (1, 2, 4)
SCHEMA = "repro.bench_diag/1"
RECORD_KEYS = dict.fromkeys(
    ("exact", "dedc"),
    ("circuit", "gates", "jobs", "nodes", "shards", "truncated",
     "solutions", "solutions_digest", "wall_s"))
CASES = ("exact/alu4", "exact/c17", "dedc/alu4")
SMOKE_CASES = ("exact/c17", "dedc/alu4")


def build_case(case: str):
    """(spec, impl, patterns, config at jobs=1) of one reference workload.

    ``case`` is ``exact/NAME`` (2 stuck-at faults, exact diagnosis; the
    faulty netlist is the spec the good one is corrected to match) or
    ``dedc/NAME`` (2 observable design errors, the DEDC ladder), with
    NAME ``c17`` or ``alu4``.
    """
    kind, name = case.split("/")
    circuit = generators.c17() if name == "c17" else generators.alu(4)
    if kind == "exact":
        workload = inject_stuck_at_faults(circuit, 2, seed=4)
        patterns = PatternSet.random(circuit.num_inputs, 512, seed=9)
        config = DiagnosisConfig(mode=Mode.STUCK_AT, exact=True,
                                 max_errors=2, jobs=1)
        return workload.impl, circuit, patterns, config
    patterns = random_patterns(circuit, 512, seed=5)
    workload = observable_design_error_workload(circuit, 2, patterns,
                                                seed=11)
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, exact=False,
                             max_errors=3, jobs=1)
    return circuit, workload.impl, patterns, config


def case_records(case: str) -> list:
    """One record per job count on one workload."""
    spec, impl, patterns, config = build_case(case)
    kind = case.split("/")[0]
    circuit = impl if kind == "exact" else spec  # the fault-free netlist
    records = []
    for jobs in JOBS:
        t0 = time.perf_counter()
        result = IncrementalDiagnoser(
            spec, impl, patterns,
            dataclasses.replace(config, jobs=jobs)).run()
        wall = time.perf_counter() - t0
        records.append({
            "suite": kind, "circuit": circuit.name,
            "gates": len(circuit.gates), "jobs": jobs,
            "nodes": result.stats.nodes,
            "shards": len(result.stats.shards),
            "truncated": result.stats.truncated,
            "solutions": len(result.solutions),
            "solutions_digest": solutions_digest(result),
            "wall_s": wall})
    return records


def _speedup(records: list) -> dict:
    """Per-workload jobs=1 -> jobs=max wall-clock ratio (informative
    only; see ``cpus``)."""
    by_jobs = {r["jobs"]: r for r in records}
    serial = by_jobs[min(by_jobs)]["wall_s"]
    widest = by_jobs[max(by_jobs)]
    return {"suite": records[0]["suite"],
            "circuit": records[0]["circuit"],
            "speedup": (serial / widest["wall_s"]
                        if widest["wall_s"] > 0 else 0.0)}


def run_suites(smoke: bool = False) -> dict:
    groups = [case_records(case)
              for case in (SMOKE_CASES if smoke else CASES)]
    return {"schema": SCHEMA, "smoke": smoke,
            "cpus": os.cpu_count() or 1,
            "records": [r for group in groups for r in group],
            "summary": [_speedup(group) for group in groups]}


def semantic_errors(payload: dict) -> list:
    errors = []
    if not isinstance(payload.get("cpus"), int) or payload["cpus"] < 1:
        errors.append("cpus must be a positive integer")
    groups: dict = {}
    for record in payload["records"]:
        name = f"{record['suite']}/{record['circuit']}"
        groups.setdefault(name, []).append(record)
    for name, records in groups.items():
        # The determinism contract: jobs must not change what is found
        # or how much deterministic work it took — only the wall clock.
        for key in ("solutions_digest", "solutions", "nodes", "shards",
                    "truncated"):
            if len({record[key] for record in records}) != 1:
                errors.append(f"{name}: {key} differs across jobs "
                              "(scheduler nondeterminism)")
    for entry in payload.get("summary", ()):
        if "speedup" not in entry:
            errors.append(f"summary {entry.get('circuit')}: "
                          "missing speedup")
    return errors


def summary_lines(payload: dict) -> list:
    lines = [f"{record['circuit']:>8}: {record['suite']} jobs="
             f"{record['jobs']} {record['solutions']} solutions, "
             f"{record['nodes']} nodes over {record['shards']} shards "
             f"{record['wall_s'] * 1e3:.2f}ms "
             f"[{record['solutions_digest'][:12]}]"
             for record in payload["records"]]
    lines.extend(f"{entry['circuit']:>8}: {entry['suite']} speedup "
                 f"{entry['speedup']:.2f}x on {payload['cpus']} cpu(s)"
                 for entry in payload["summary"])
    return lines
