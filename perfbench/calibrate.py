#!/usr/bin/env python3
"""Calibrates the benchmark's task lists; writes perfbench/tasks.json.

    python3 perfbench/calibrate.py

Solves every task of both suites with the sequential engine and a 5 s
budget, three times, one fresh process per pass, and keeps a task only if every pass solved it to the
same program. For each kept task it records the slowest solve seen, its
Z3 checks and the program's s-expression (the golden answer the
benchmark checks against). It then sorts tasks into workloads:

  oneshot  both suites, slowest <= 50 ms and <= 100 Z3 checks
  search   both suites, 50 ms < slowest <= 1 s
  serve    tidy suite only, slowest <= 100 ms (cluster replays this list)

Serve stops at 100 ms, not at 1 s like search: with a queue in front of
two workers, a request that lands behind one of the few 0.2-0.6 s tasks
waits for it, and which requests do so decided whether the median was a
30 ms or a 150 ms wait, swinging serve and cluster p50 by 15-40% between
identical runs. The slow tasks stay covered by search.

It gives each workload a per-request budget of at least ten times its
slowest task (never under 1 s), so no request can flip between solved
and timeout on a slower host. Tasks that time out, or solve slower than
1 s, are left out of every workload and listed under "excluded".
"""

import json
import math
import os
import platform
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

ONESHOT_MS, ONESHOT_CHECKS, SERVE_MS, SLOW_MS = 50.0, 100, 100.0, 1000.0
PASSES, TIMEOUT_MS = 3, 5000


def solve_pass(runner, ids):
    cmd = [runner, "--calibrate", "--timeout-ms", str(TIMEOUT_MS)]
    if ids:
        cmd += ["--ids", ",".join(ids)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
    return [json.loads(line) for line in out.stdout.splitlines() if line]


def budget_for(tasks):
    slowest = max(t["slowest_ms"] for t in tasks)
    return max(1000, int(math.ceil(10 * slowest / 100.0)) * 100)


def main():
    runner = build.runner_path()
    rows = {}
    order = []
    ids = None
    for p in range(PASSES):
        sys.stderr.write("calibrate: pass %d/%d\n" % (p + 1, PASSES))
        for r in solve_pass(runner, ids):
            if r["id"] not in rows:
                order.append(r["id"])
            rows.setdefault(r["id"], []).append(r)
        # Later passes only re-time tasks that could still be in a workload.
        ids = [i for i in order
               if all(x["outcome"] == "solved" for x in rows[i])
               and max(x["ms"] for x in rows[i]) <= 2 * SLOW_MS]

    kept, excluded = [], []
    for i in order:
        rs = rows[i]
        entry = {"id": i, "suite": rs[0]["suite"],
                 "slowest_ms": round(max(x["ms"] for x in rs), 3),
                 "z3_checks": int(max(x["z3_checks"] for x in rs)),
                 "sexp": rs[0]["sexp"]}
        if len(rs) < PASSES or any(x["outcome"] != "solved" for x in rs):
            bad = [x["outcome"] for x in rs if x["outcome"] != "solved"]
            why = bad[0] if bad else "slower than %d ms" % (2 * SLOW_MS)
            excluded.append({"id": i, "reason": why,
                             "slowest_ms": entry["slowest_ms"]})
        elif len({x["sexp"] for x in rs}) != 1:
            excluded.append({"id": i, "reason": "program differs across passes",
                             "slowest_ms": entry["slowest_ms"]})
        elif entry["slowest_ms"] > SLOW_MS:
            excluded.append({"id": i, "reason": "slower than 1 s",
                             "slowest_ms": entry["slowest_ms"]})
        else:
            kept.append(entry)

    lists = {
        "oneshot": [t for t in kept if t["slowest_ms"] <= ONESHOT_MS
                    and t["z3_checks"] <= ONESHOT_CHECKS],
        "search": [t for t in kept if t["slowest_ms"] > ONESHOT_MS],
        "serve": [t for t in kept if t["suite"] == "morpheus"
                  and t["slowest_ms"] <= SERVE_MS],
    }
    doc = {
        "calibration": {
            "passes": PASSES, "timeout_ms": TIMEOUT_MS,
            "host": platform.node(), "nproc": os.cpu_count(),
            "rule": "budget_ms >= 10 x slowest_ms of the workload, >= 1000",
        },
        "workloads": {
            name: {"budget_ms": budget_for(ts),
                   "slowest_ms": max(t["slowest_ms"] for t in ts),
                   "tasks": ts}
            for name, ts in lists.items()
        },
        "excluded": excluded,
    }
    with open(os.path.join(build.HERE, "tasks.json"), "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for name, ts in lists.items():
        sys.stderr.write("calibrate: %-8s %3d tasks, budget %d ms, sum %.0f ms\n"
                         % (name, len(ts), doc["workloads"][name]["budget_ms"],
                            sum(t["slowest_ms"] for t in ts)))
    sys.stderr.write("calibrate: %d excluded\n" % len(excluded))


if __name__ == "__main__":
    main()
