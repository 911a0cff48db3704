"""Self-test of the benchmark on reduced batches.

Run from the root of a checkout::

    python3 perfbench/selftest.py [--seed N]

For every workload in ``BENCHMARK.json`` it runs ``run.py --smoke``
(one instance per circuit) untraced once and traced twice, each in a
fresh process, and checks:

* schema: the untraced run reports exactly the ``end_to_end`` metrics
  and the traced run exactly the ``per_layer`` metrics, each with the
  unit ``BENCHMARK.json`` gives it and a finite value; ``correct`` is
  true and nothing failed;
* determinism: every count, every work ratio and every instance digest
  repeats exactly across the two traced runs;
* layer coverage: ``parallel.*`` is non-zero only on the sharded
  workload, ``engine.child_*`` is zero on the DEDC workload and
  ``tree.*`` is zero on the exact ones.

Exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: Ratios computed from counts only (the time-based ratios
#: ``parallel.idle_frac`` and ``trace.overhead_frac`` are excluded).
DETERMINISTIC_RATIOS = ("engine.leaf_frac", "screening.verr_pass_frac",
                        "screening.corrections_pass_frac")


def _run(workload: str, seed: int, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--smoke"],
        check=True, capture_output=True, text=True).stdout.splitlines()
    return json.loads(out[-2])["perfbench"], json.loads(out[-1])


def _schema(result: dict, declared: list, label: str) -> list:
    problems = []
    metrics = result["metrics"]
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(names - set(metrics))}, extra "
                        f"{sorted(set(metrics) - names)}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} unit {got['unit']!r}, "
                            f"declared {m['unit']!r}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(
                got["value"]):
            problems.append(f"{label}: {m['name']} value {got['value']!r}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']} "
                        f"attempted={result['attempted']}")
    return problems


def _deterministic(name: str, unit: str) -> bool:
    return unit == "count" or name in DETERMINISTIC_RATIOS


def _coverage(workload: str, metrics: dict) -> list:
    problems = []
    value = {name: m["value"] for name, m in metrics.items()}
    if workload == "exact-sharded":
        problems += [f"{workload}: {n}=0" for n in (
            "parallel.shards", "parallel.busy_s", "parallel.wall_s",
            "parallel.max_shard_s") if not value[n]]
    else:
        problems += [f"{workload}: {n}={v}" for n, v in value.items()
                     if n.startswith("parallel.") and v]
    if workload == "dedc-errors":
        problems += [f"{workload}: {n}={value[n]}"
                     for n in ("engine.child_s", "engine.child_calls")
                     if value[n]]
    elif workload in ("exact-stuckat", "exact-sharded"):
        problems += [f"{workload}: {n}={value[n]}" for n in value
                     if n.startswith("tree.") and value[n]]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        _info, plain = _run(workload, args.seed, 0)
        problems += _schema(plain, bench["end_to_end"], f"{workload}/e2e")
        (info_a, traced_a), (info_b, traced_b) = (
            _run(workload, args.seed, 1), _run(workload, args.seed, 1))
        problems += _schema(traced_a, bench["per_layer"],
                            f"{workload}/layers")
        for m in bench["per_layer"]:
            a = traced_a["metrics"][m["name"]]["value"]
            b = traced_b["metrics"][m["name"]]["value"]
            if _deterministic(m["name"], m["unit"]) and a != b:
                problems.append(f"{workload}: {m['name']} {a} != {b} "
                                "across two runs")
        digests = [[row.get("digest") for row in info["rows"]]
                   for info in (info_a, info_b)]
        if digests[0] != digests[1]:
            problems.append(f"{workload}: digests differ across runs")
        problems += _coverage(workload, traced_a["metrics"])
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
