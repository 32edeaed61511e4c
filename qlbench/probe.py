"""Set-up probe: run in a fresh interpreter, import qlgame and finish one
workload's warm-up pass on tiny inputs.

Usage: python qlbench/probe.py <workload> <seed> <work dir>

The caller times the whole process; this prints, as JSON, the seconds spent
generating inputs (which set-up time excludes) and any failures.
"""

import json
import sys
import time

import qlgame  # noqa: F401  (the import is part of what set-up time measures)

import oracles
from workloads import WORKLOADS


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    start = time.perf_counter()
    workload = WORKLOADS[name](seed, workdir, full=False)
    gen_s = time.perf_counter() - start
    ledger = oracles.Ledger()
    workload.check(workload.job(ledger), ledger)
    print(json.dumps({"gen_s": gen_s, "failed": ledger.failed, "problems": ledger.problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
