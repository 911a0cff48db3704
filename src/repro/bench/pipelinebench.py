"""Staged-pipeline overhead benchmark: the ``pipeline`` suite of
``repro bench`` (``BENCH_pipeline.json``).

The multi-layer refactor moved every diagnosis mode onto the
:class:`repro.diagnose.pipeline.DiagnosisSession` stage pipeline; its
instrumentation (one :class:`StageRecord` per stage execution) must be
close to free.  One suite, ``pipeline``: diagnose the ``diag`` suite's
reference workloads (:func:`~repro.bench.diagbench.build_case`) at
``jobs=1`` and report, per case,

* the best-of-``REPEATS`` end-to-end wall time, and
* the per-stage breakdown of the best run — ``EngineStats.stages``
  aggregated by stage name (calls, items in/out, summed wall time).

:data:`PRE_REFACTOR_TOTALS` pins the same workloads' best-of-three
totals measured at the commit immediately before the engines moved onto
the session (same machine as the committed payload).  A full (non-smoke)
regeneration fails if a case exceeds its pre-refactor total by more
than :data:`OVERHEAD_TOLERANCE` (:func:`full_run_errors`);
:func:`semantic_errors` enforces structure and determinism only, never
timings (shared CI runners make wall-clock assertions meaningless).
"""

from ..diagnose import IncrementalDiagnoser
from ..diagnose.pipeline import STAGE_ORDER
from .diagbench import build_case
from .harness import best_of, stage_breakdown

SCHEMA = "repro.bench_pipeline/1"
RECORD_KEYS = {"pipeline": ("case", "gates", "vectors", "repeats",
                            "found", "solutions", "nodes", "truncated",
                            "total_s", "baseline_s", "stages")}
REPEATS = 5
CASES = ("exact/alu4", "dedc/alu4")
SMOKE_CASES = ("exact/c17", "dedc/alu4")
#: Stages every run must record: both ends of the pipeline and the
#: search between them.
REQUIRED_STAGES = ("ingest", "search", "report")

#: Best-of-``REPEATS`` end-to-end seconds for the full-size cases,
#: measured on the pre-refactor engines (commit f33015c) on the machine
#: that generated the committed payload.  The staged pipeline must stay
#: within OVERHEAD_TOLERANCE of these on regeneration.
PRE_REFACTOR_TOTALS = {"exact/alu4": 6.224, "dedc/alu4": 0.209}
OVERHEAD_TOLERANCE = 1.05


def pipeline_record(case: str) -> dict:
    spec, impl, patterns, config = build_case(case)
    # Built up front: the ingest stage runs in the constructor, outside
    # the timed run() the pre-refactor totals measured.  pop() lets each
    # diagnoser (and its search state) die after its run.
    diagnosers = [IncrementalDiagnoser(spec, impl, patterns, config)
                  for _ in range(REPEATS)]
    wall, result = best_of(lambda: diagnosers.pop().run(), REPEATS)
    stats = result.stats
    return {
        "suite": "pipeline", "case": case,
        "gates": len(spec.gates), "vectors": patterns.nbits,
        "repeats": REPEATS, "found": result.found,
        "solutions": len(result.solutions), "nodes": stats.nodes,
        "truncated": stats.truncated, "total_s": wall,
        "baseline_s": PRE_REFACTOR_TOTALS.get(case),
        "stages": stage_breakdown(stats.stages),
    }


def run_suites(smoke: bool = False) -> dict:
    cases = SMOKE_CASES if smoke else CASES
    records = [pipeline_record(case) for case in cases]
    return {"schema": SCHEMA, "smoke": smoke, "records": records}


def semantic_errors(payload: dict) -> list:
    errors = []
    for record in payload["records"]:
        case = record["case"]
        stages = record["stages"]
        if not stages:
            errors.append(f"pipeline/{case}: no stage breakdown")
        names = [s.get("stage") for s in stages]
        for name in names:
            if name not in STAGE_ORDER:
                errors.append(f"pipeline/{case}: unknown stage {name!r}")
        in_order = [n for n in STAGE_ORDER if n in names]
        if names != in_order:
            errors.append(f"pipeline/{case}: stages out of pipeline "
                          "order")
        for agg in stages:
            if agg.get("calls", 0) < 1:
                errors.append(f"pipeline/{case}/{agg.get('stage')}: "
                              "empty aggregate")
            if agg.get("wall_s", 0.0) < 0.0:
                errors.append(f"pipeline/{case}/{agg.get('stage')}: "
                              "negative wall time")
        for required in REQUIRED_STAGES:
            if required not in names:
                errors.append(f"pipeline/{case}: missing {required} "
                              "stage")
        if not record["found"]:
            errors.append(f"pipeline/{case}: reference workload must "
                          "be diagnosed")
    return errors


def full_run_errors(payload: dict) -> list:
    """Full-generation gate: totals vs the pre-refactor engines."""
    errors = []
    for record in payload["records"]:
        baseline = record["baseline_s"]
        if baseline is None:
            continue
        total = record["total_s"]
        if total > baseline * OVERHEAD_TOLERANCE:
            errors.append(
                f"pipeline/{record['case']}: {total:.3f}s exceeds "
                f"pre-refactor {baseline:.3f}s by more than "
                f"{(OVERHEAD_TOLERANCE - 1) * 100:.0f}%")
    return errors


def summary_lines(payload: dict) -> list:
    lines = []
    for record in payload["records"]:
        top = max(record["stages"], key=lambda s: s["wall_s"])
        baseline = record["baseline_s"]
        vs = (f" (pre-refactor {baseline:.3f}s)"
              if baseline is not None else "")
        lines.append(f"{record['case']:>12}: {record['total_s']:.3f}s{vs} "
                     f"best of {record['repeats']}, "
                     f"{record['nodes']} nodes, hottest stage "
                     f"{top['stage']} {top['wall_s']:.3f}s")
    return lines
