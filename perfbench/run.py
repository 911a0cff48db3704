"""The repository benchmark: Table 1 / Table 2 diagnosis workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exact-stuckat --seed 1 \\
        --seconds 36 --trace 0

It builds the workload's seeded instance batch (``workloads.py``), then
diagnoses the whole batch through the public API
(``IncrementalDiagnoser(spec, impl, patterns, config).run()``), one
*operation* per instance.  An operation fails when it raises, comes back
truncated or empty, or fails its correctness check (``checks.py``).

``--trace 0`` times passes over the batch with tracing off and reports
the end-to-end metrics.  It makes passes until the next one would end
after ``--seconds`` (at least ``MIN_PASSES``) and takes each instance's
best time over the passes: the host is shared, and identical operations
ran up to twice as slow in phases of a few seconds, so a pass-level
median moved by 20-30% from run to run while the per-instance best moved
little.  ``wall_s`` is the sum of the best times, and ``instance_s.*``
are percentiles over them.  The batch is built once before the first
pass and again after every pass; ``setup_s`` is the median build time.
Every timing is scaled by the run's host-speed factor
(``hostspeed.py``); the unscaled figures are printed with the rows.
``--trace 1`` makes one untraced pass and one traced pass
(``tracer.py``) and reports the per-layer metrics, unscaled, plus the
tracing overhead as the difference of the two.

Earlier lines of standard output carry the per-instance rows and the
host record as one JSON object; the last line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The process exits 2 without a result when it is not started from a
checkout that holds ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time

#: Fewest timed passes of an untraced run.
MIN_PASSES = 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced batch (one instance per circuit)")
    return parser.parse_args(argv)


def tail(samples: list) -> tuple:
    """(percentile, value): the highest whole percentile with at least
    ten samples above it (nearest rank).  Below twenty samples that
    percentile would lie under the median, and the maximum is reported
    as p100 instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return 100, ordered[-1]
    p = (100 * (n - 10)) // n
    return p, ordered[max(1, math.ceil(p * n / 100)) - 1]


def _host() -> dict:
    import numpy
    return {"cpus": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine()}


class Operation:
    """Outcome of diagnosing one instance once."""

    def __init__(self, instance, result, seconds, error=None):
        self.instance = instance
        self.result = result
        self.seconds = seconds
        self.error = error

    @property
    def failure(self) -> str | None:
        if self.error is not None:
            return self.error
        if self.result.stats.truncated:
            return "truncated: " + ", ".join(
                self.result.stats.truncation_causes)
        if not self.result.solutions:
            return "no correction set found"
        return None


def diagnose(instance, executor=None) -> Operation:
    from repro.diagnose import IncrementalDiagnoser
    t0 = time.perf_counter()
    try:
        result = IncrementalDiagnoser(instance.spec, instance.impl,
                                      instance.patterns, instance.config,
                                      executor=executor).run()
    except Exception as exc:  # an operation that raises is a failure
        return Operation(instance, None, time.perf_counter() - t0,
                         f"{type(exc).__name__}: {exc}")
    return Operation(instance, result, time.perf_counter() - t0)


def run_pass(batch, tracer=None, meter=None) -> tuple:
    """``(wall, [Operation])``; ``meter`` samples the host-speed kernel
    before each operation, outside its timing."""
    executor = None
    if tracer is not None and any(i.config.jobs > 1 for i in batch):
        executor = tracer.executor()
    ops = []
    t0 = time.perf_counter()
    for instance in batch:
        if meter is not None:
            meter.sample()
        if tracer is None:
            ops.append(diagnose(instance))
        else:
            ops.append(tracer.run(lambda: diagnose(instance, executor)))
    return time.perf_counter() - t0, ops


def measure(batch, least: int, seconds: float, meter=None,
            between=None) -> list:
    """``[(wall, [Operation])]``: at least ``least`` passes, then more
    while the next one, at the median pass time, ends within
    ``seconds`` of the start.  ``between()`` runs after each pass."""
    start = time.perf_counter()
    passes = []
    while len(passes) < least or (
            time.perf_counter() - start + statistics.median(
                wall for wall, _ops in passes) <= seconds):
        passes.append(run_pass(batch, meter=meter))
        if between is not None:
            between()
    return passes


def _stage_seconds(ops, stage: str) -> float:
    """Summed wall time of one pipeline stage, from the stage records."""
    return sum(rec["wall_s"] for op in ops if op.result is not None
               for rec in op.result.stats.stages if rec["stage"] == stage)


def layer_metrics(tracer, ops) -> dict:
    """Per-layer metrics of one traced pass."""
    s, calls, counts, par = (tracer.self_s, tracer.calls, tracer.counts,
                             tracer.parallel)
    done = [op for op in ops if op.result is not None]

    def frac(num, den):
        return num / den if den else 0.0

    return {
        # exact-mode nodes only: DEDC tree nodes are tree.apply_calls
        "engine.nodes": sum(op.result.stats.nodes for op in done
                            if op.instance.exact),
        "engine.child_s": s["engine.child"],
        "engine.child_calls": calls["engine.child"],
        "engine.expand_s": s["engine.expand"],
        "engine.expand_calls": calls["engine.expand"],
        "engine.leaf_frac": (1.0 - frac(calls["engine.expand"],
                                        calls["engine.child"])
                             if calls["engine.child"] else 0.0),
        "tree.expand_s": s["tree.expand"],
        "tree.expand_calls": calls["tree.expand"],
        "tree.apply_s": s["tree.apply"],
        "tree.apply_calls": calls["tree.apply"],
        "pathtrace.s": s["pathtrace"],
        "pathtrace.calls": calls["pathtrace"],
        "screening.prescreen_s": s["screening.prescreen"],
        "screening.prescreen_dropped":
            counts["screening.prescreen_dropped"],
        "screening.verr_s": s["screening.verr"],
        "screening.verr_calls": calls["screening.verr"],
        "screening.verr_pass_frac": frac(counts["screening.verr_pass"],
                                         calls["screening.verr"]),
        "screening.corrections_s": s["screening.corrections"],
        "screening.corrections_pass_frac":
            frac(counts["screening.corrections_out"],
                 counts["screening.corrections_in"]),
        "potential.s": s["potential"],
        "candidates.s": s["candidates"],
        "candidates.count": counts["candidates.count"],
        "bitlists.state_s": s["bitlists.state"],
        "bitlists.state_calls": calls["bitlists.state"],
        "bitlists.override_s": s["bitlists.override"],
        "bitlists.override_calls": calls["bitlists.override"],
        "circuit.copy_s": s["circuit.copy"],
        "circuit.copy_calls": calls["circuit.copy"],
        "circuit.linetable_s": s["circuit.linetable"],
        "circuit.linetable_calls": calls["circuit.linetable"],
        "sim.propagate_s": s["sim.propagate"],
        "sim.propagate_calls": calls["sim.propagate"],
        "sim.propagate_rows": counts["sim.propagate_rows"],
        "sim.simulate_s": s["sim.simulate"],
        "sim.simulate_calls": calls["sim.simulate"],
        "faults.apply_s": s["faults.apply"],
        "faults.apply_calls": calls["faults.apply"],
        "analyze.warm_s": s["analyze.warm"],
        "analyze.facts_reused": sum(op.result.stats.facts_reused
                                    for op in done),
        "analyze.facts_recomputed": sum(op.result.stats.facts_recomputed
                                        for op in done),
        "pipeline.ingest_s": _stage_seconds(ops, "ingest"),
        "pipeline.bitlists_s": _stage_seconds(ops, "bitlists"),
        "parallel.shards": par["shards"],
        "parallel.busy_s": par["busy_s"],
        "parallel.wall_s": par["wall_s"],
        "parallel.max_shard_s": par["max_shard_s"],
        "parallel.failed_shards": par["failed_shards"],
        "parallel.idle_frac": (1.0 - frac(par["busy_s"], par["slot_s"])
                               if par["slot_s"] else 0.0),
        "trace.unattributed_s": s["op"],
        "trace.spans": tracer.spans,
    }


def unit_of(name: str) -> str:
    """Unit of a reported metric (``selftest.py`` checks these against
    BENCHMARK.json)."""
    if name.endswith("_frac"):
        return "ratio"
    if name == "peak_rss_mb":
        return "MB"
    if name == "corrections.mean":
        return "count"
    if name.endswith("_s") or name.endswith(".s") or name.startswith(
            "instance_s."):
        return "s"
    return "count"


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("perfbench: no src/repro here; run from the root of a "
              "repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import checks
    import hostspeed
    from workloads import WORKLOADS, build_batch
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    meter = hostspeed.Meter()
    setups = []

    def build():
        meter.sample()
        t0 = time.perf_counter()
        batch = build_batch(args.workload, args.seed, smoke=args.smoke)
        setups.append(time.perf_counter() - t0)
        return batch

    # the batch is built again after every timed pass, so that the
    # set-up samples spread over the run like the operations do
    batch = build()
    if args.trace:
        passes = measure(batch, 1, 0.0)
    else:
        passes = measure(batch, MIN_PASSES, args.seconds, meter, build)
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(batch, tracer)
        finally:
            tracer.uninstall()

    first = passes[0][1]
    digests = checks.load_digests()
    rows, problems = [], []
    for op in first:
        name = op.instance.name
        row = {"instance": name, "seconds": op.seconds,
               "failure": op.failure}
        if op.result is not None:
            row.update(nodes=op.result.stats.nodes,
                       solutions=len(op.result.solutions),
                       size=(op.result.solutions[0].size
                             if op.result.solutions else None),
                       digest=checks.digest(op.result))
            found = checks.check(op.instance, op.result)
            if op.instance.exact:
                expected = checks.expected_digest(
                    digests, args.workload, args.seed, name)
                row["digest_expected"] = expected
                if expected is not None and expected != row["digest"]:
                    found.append(f"digest {row['digest']} != expected "
                                 f"{expected}")
            row["problems"] = found
            problems.extend(f"{name}: {p}" for p in found)
            if found and row["failure"] is None:
                row["failure"] = "check failed"
        rows.append(row)
    # later passes (and the traced pass) must reproduce the first
    later = [ops for _wall, ops in passes[1:]]
    if args.trace:
        later.append(traced[1])
    for ops in later:
        for op, again in zip(first, ops):
            if (op.result is not None and again.result is not None
                    and checks.digest(op.result)
                    != checks.digest(again.result)):
                problems.append(f"{op.instance.name}: result differs "
                                "between passes")

    all_ops = [op for ops in [first] + later for op in ops]
    failed_first = {row["instance"] for row in rows if row["failure"]}
    failed = sum(1 for op in all_ops
                 if op.failure or op.instance.name in failed_first)
    info = {"workload": args.workload, "seed": args.seed,
            "smoke": args.smoke, "instances": len(batch),
            "passes": len(passes), "host": _host()}
    if args.trace:
        untraced = statistics.median(wall for wall, _ops in passes)
        metrics = layer_metrics(tracer, traced[1])
        metrics["trace.wall_s"] = traced[0]
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_frac"] = traced[0] / untraced - 1.0
    else:
        samples = [min(op.seconds for op in ops)
                   for ops in zip(*(ops for _wall, ops in passes))]
        pct, tail_value = tail(samples)
        sizes = [op.result.solutions[0].size for op in first
                 if op.result is not None and op.result.solutions]
        unscaled = {
            "setup_s": statistics.median(setups),
            "wall_s": math.fsum(samples),
            "instance_s.p50": statistics.median(samples),
            "instance_s.tail": tail_value,
        }
        factor = meter.factor()
        metrics = {name: value * factor for name, value in unscaled.items()}
        metrics.update({
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "corrections.mean": (statistics.fmean(sizes) if sizes
                                 else 0.0),
        })
        info.update(tail_percentile=pct, tail_samples=len(samples),
                    host_factor=factor, unscaled=unscaled,
                    kernel_samples_s=meter.samples,
                    setup_runs_s=setups,
                    pass_walls_s=[wall for wall, _ops in passes])
    info["rows"] = rows
    info["problems"] = problems
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": not problems, "attempted": len(all_ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}}))
    return 0


def _reap_children() -> None:
    """Wait for every process this run started (pool workers)."""
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _reap_children()
    sys.exit(code)
