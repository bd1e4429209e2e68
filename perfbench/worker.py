"""Run one workload in this process and print its raw measurements as JSON.

One OS process builds exactly one system: the systems are reference cycles
only a full garbage collection frees, so building several in one process
would pile up memory.  ``run.py`` starts this script once per repetition::

    python3 perfbench/worker.py --workload dfs-direct --seed 1 --traced 0
"""

from __future__ import annotations

import argparse
import json
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, bool(args.traced))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
