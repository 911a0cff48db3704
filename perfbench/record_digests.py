"""Record the expected result digests the benchmark checks against.

Run from the root of a checkout::

    python3 perfbench/record_digests.py --seeds 0-15

For every exact workload and seed it diagnoses the batch at ``jobs=1``
and stores each instance's digest in ``digests.json`` (merged with the
digests already there).  Only results that pass every check of
``checks.py`` are stored.  The sharded workload is recorded at
``jobs=1`` with its per-shard node budget unchanged, so the benchmark's
``jobs=2`` runs must reproduce the serial results.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-15")
    parser.add_argument("--workload", action="append",
                        help="default: every exact workload")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import checks
    from run import diagnose
    from workloads import WORKLOADS, build_batch

    table = checks.load_digests()
    names = args.workload or [w.name for w in WORKLOADS.values()
                              if w.protocol == "exact"]
    for name in names:
        for seed in _seeds(args.seeds):
            for instance in build_batch(name, seed):
                shared = instance.name.startswith(("exact/", "ref:"))
                if not instance.exact or (
                        shared and instance.name in table.get("fixed", {})):
                    continue
                instance.config = dataclasses.replace(instance.config,
                                                      jobs=1)
                op = diagnose(instance)
                if op.failure or checks.check(instance, op.result):
                    print(f"{name} seed {seed} {instance.name}: not "
                          f"recorded ({op.failure or 'check failed'})",
                          flush=True)
                    continue
                if shared:
                    slot = table.setdefault("fixed", {})
                else:
                    slot = table.setdefault(name, {}).setdefault(
                        str(seed), {})
                slot[instance.name] = checks.digest(op.result)
                print(f"{name} seed {seed} {instance.name}: "
                      f"{slot[instance.name]} ({op.seconds:.2f}s)",
                      flush=True)
            with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
