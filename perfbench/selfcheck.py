#!/usr/bin/env python3
"""Quick self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it runs run.py for one second on the
first few tasks, once untraced and once traced, and checks that:
  - the last line has exactly the keys correct/attempted/failed/metrics;
  - every end-to-end (untraced) or per-layer (traced) metric is printed,
    with the unit BENCHMARK.json names, as a finite number;
  - no request failed, and the traced run dropped no bus event.
Exits 0 when all checks pass, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--max-tasks", "6"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=180)
    if r.returncode != 0:
        return ["exit code %d" % r.returncode]
    res = json.loads(r.stdout.strip().splitlines()[-1])
    errs = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        errs.append("result keys %s" % sorted(res))
    if res.get("failed") != 0 or res.get("correct") is not True \
            or res.get("attempted", 0) < 1:
        errs.append("requests: attempted %s failed %s correct %s"
                    % (res.get("attempted"), res.get("failed"),
                       res.get("correct")))
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = res.get("metrics", {})
    if sorted(got) != sorted(m["name"] for m in wanted):
        errs.append("metric names differ: missing %s, extra %s" % (
            sorted({m["name"] for m in wanted} - set(got)),
            sorted(set(got) - {m["name"] for m in wanted})))
    for m in wanted:
        g = got.get(m["name"])
        if g is None:
            continue
        if g.get("unit") != m["unit"]:
            errs.append("%s unit %s != %s" % (m["name"], g.get("unit"),
                                              m["unit"]))
        v = g.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errs.append("%s value %r" % (m["name"], v))
    if trace and got.get("bus.dropped", {}).get("value") != 0:
        errs.append("bus.dropped = %s" % got.get("bus.dropped"))
    return errs


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            errs = check(spec, w["name"], trace)
            print("%-8s trace=%d %s" % (w["name"], trace,
                                        "ok" if not errs else "; ".join(errs)))
            bad += bool(errs)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
