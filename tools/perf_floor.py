#!/usr/bin/env python3
"""CI perf floor over perfbench results.

    python3 tools/perf_floor.py <record.json> <result.json>...

<record.json> maps workload names to perfbench result files measured in
one session (BENCH_pr20.json).  Each <result.json> is a file that
perfbench/run.py wrote under its build directory's results/.  Exits 1
when a result failed its own checks, names a workload the record lacks,
or ran below FLOOR_FRACTION of the record's items_per_s.
"""

import json
import sys

# Shared CI runners are slow and noisy: the floor catches
# order-of-magnitude regressions only.
FLOOR_FRACTION = 0.25


def items_per_s(result):
    return result["metrics"]["items_per_s"]["value"]


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    with open(argv[1]) as f:
        record = json.load(f)
    failed = False
    for path in argv[2:]:
        with open(path) as f:
            result = json.load(f)
        workload = result["record"]["workload"]
        if not result["correct"]:
            print(f"FAIL {path}: the run failed its own checks")
            failed = True
            continue
        if workload not in record:
            print(f"FAIL {path}: no {workload!r} run in {argv[1]}")
            failed = True
            continue
        got, recorded = items_per_s(result), items_per_s(record[workload])
        ok = got >= FLOOR_FRACTION * recorded
        failed |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload}: items_per_s {got:.6g} vs floor "
              f"{FLOOR_FRACTION * recorded:.6g} ({FLOOR_FRACTION} x {recorded:.6g})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
