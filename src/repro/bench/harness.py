"""One harness for the ``BENCH_*.json`` payloads behind ``repro bench``.

``repro bench SUITE`` regenerates or checks ``BENCH_<SUITE>.json``.
Each suite is a module next to this one that keeps only what is its
own:

* ``SCHEMA`` — the payload's schema id;
* ``RECORD_KEYS`` — record ``suite`` value -> keys every such record
  carries;
* ``run_suites(smoke)`` — build the payload (``--smoke``: reduced
  workloads for CI, same schema and gates);
* ``semantic_errors(payload)`` — the suite's gates, run once the
  envelope check below passes, so they may index any required key;
* ``summary_lines(payload)`` — the human-readable report;
* optionally ``full_run_errors(payload)`` — a gate that only a full
  (non-smoke) regeneration applies.

This module holds the registry, the envelope check every payload passes
and the record helpers more than one suite uses.  Checks never fail on
timings except through a suite's own full-run gate.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time

from ..circuit import generators
from ..diagnose.pipeline import STAGE_ORDER

#: Suite name -> module that builds and checks ``BENCH_<name>.json``.
#: Imported on first use, so running one suite loads no other.
SUITES = {
    "sim": "repro.bench.simbench",
    "analyze": "repro.bench.analyzebench",
    "prove": "repro.bench.provebench",
    "seq": "repro.bench.seqbench",
    "diag": "repro.bench.diagbench",
    "incr": "repro.bench.incrbench",
    "testability": "repro.bench.testabilitybench",
    "pipeline": "repro.bench.pipelinebench",
}

#: Suite scale of the generated circuits.  Payloads do not record it;
#: every committed one was built at this scale.
SCALE = 0.35


def suite_module(name: str):
    return importlib.import_module(SUITES[name])


def validate_payload(name: str, payload) -> list[str]:
    """Errors in a ``BENCH_<name>.json`` payload ([] when valid).

    The envelope — schema id, a non-empty ``records`` list, a known
    ``suite`` and the required keys on every record — is checked here;
    the suite's semantic gates run only when it holds.
    """
    module = suite_module(name)
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    errors = []
    if payload.get("schema") != module.SCHEMA:
        errors.append(f"schema id is {payload.get('schema')!r}, "
                      f"expected {module.SCHEMA!r}")
    records = payload.get("records")
    if not isinstance(records, list) or not records:
        return errors + ["records must be a non-empty list"]
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            errors.append(f"records[{i}]: not an object")
            continue
        required = module.RECORD_KEYS.get(record.get("suite"))
        if required is None:
            errors.append(f"records[{i}]: unknown suite "
                          f"{record.get('suite')!r}")
            continue
        errors.extend(f"records[{i}]: missing {key}"
                      for key in required if key not in record)
    return errors or module.semantic_errors(payload)


def validate_file(name: str, path) -> list[str]:
    """:func:`validate_payload` on an on-disk payload."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable ({exc})"]
    return validate_payload(name, payload)


# ----------------------------------------------------------------------
# record helpers shared by the suites
# ----------------------------------------------------------------------
def suite_circuit(name: str):
    """A named circuit at :data:`SCALE` (``c432`` names ``r432``)."""
    if name == "alu4":
        return generators.alu(4)
    if name == "rca8":
        return generators.ripple_carry_adder(8)
    return generators.by_name("r432" if name == "c432" else name,
                              scale=SCALE)


def best_of(fn, repeats: int):
    """(best wall seconds, result of that run) over ``repeats`` calls.

    The time is floored at 1 ns so a rate derived from it stays finite.
    """
    best = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        if best is None or wall < best[0]:
            best = (wall, result)
    return max(best[0], 1e-9), best[1]


def solutions_digest(result) -> str:
    """sha256 of the printed solution list — the byte-identity probe."""
    text = "\n".join(s.describe() for s in result.solutions)
    return hashlib.sha256(text.encode()).hexdigest()


def stage_breakdown(stages: list) -> list:
    """Aggregate raw stage records by stage name, pipeline order."""
    by_name: dict = {}
    for rec in stages:
        agg = by_name.setdefault(rec["stage"],
                                 {"stage": rec["stage"], "calls": 0,
                                  "in": 0, "out": 0, "wall_s": 0.0})
        agg["calls"] += 1
        agg["in"] += rec["in"]
        agg["out"] += rec["out"]
        agg["wall_s"] += rec["wall_s"]
    return [by_name[name] for name in STAGE_ORDER if name in by_name]
