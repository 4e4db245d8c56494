#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench_runner from source (see
build.py), then:

  --trace 0  measures the end-to-end metrics. setup_s is the median of
             SETUP_REPEATS extra --setup-only processes plus the measured
             run itself, because one process sets up only once.
  --trace 1  measures the per-layer metrics (the runner runs the workload
             untraced, then traced) and writes the collected spans to
             <build dir>/traces/.

Before the result line it prints a {"meta": ...} line that stamps the
run with host, cores, CPU model, SIMD tier, Z3 version, source revision,
budget, window, workers and seed; the same record is kept under
<build dir>/results/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("oneshot", "search", "serve", "cluster")
SETUP_REPEATS = 10
DEADLINE_S = 170  # every run must end within 180 s


def source_revision():
    """The git commit when there is one, plus a hash of the sources."""
    rev = "none"
    if os.path.isdir(os.path.join(build.ROOT, ".git")):
        r = subprocess.run(["git", "-C", build.ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if r.returncode == 0:
            rev = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(build.ROOT, top))):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                if f.endswith((".h", ".cpp", ".py", ".json", ".txt")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, build.ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return rev, h.hexdigest()[:16]


def invoke(cmd, deadline):
    """Runs perfbench_runner; returns its last stdout line as JSON.

    Exits non-zero when the runner fails or would overrun deadline (a
    time.monotonic() value); subprocess.run kills and reaps it then.
    """
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % DEADLINE_S)
        sys.exit(1)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines:
        sys.exit(1)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-tasks", type=int, default=0,
                    help="use only the first N tasks (self-check)")
    a = ap.parse_args()

    runner = build.runner_path()
    # The first run in a checkout builds; the deadline covers what follows.
    deadline = time.monotonic() + DEADLINE_S
    out_dir = build.build_dir()
    tasks = os.path.join(build.HERE, "tasks.json")
    base = [runner, "--tasks", tasks, "--workload", a.workload,
            "--max-tasks", str(a.max_tasks)]
    tag = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)

    setups = []
    if a.trace == 0:
        for _ in range(SETUP_REPEATS):
            setups.append(invoke(base + ["--setup-only"],
                                     deadline)["setup_s"])

    cmd = base + ["--seed", str(a.seed), "--seconds", str(a.seconds),
                  "--trace", str(a.trace)]
    if a.trace:
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(out_dir, "traces", tag + ".spans.jsonl")]
    res = invoke(cmd, deadline)
    meta = res.pop("meta")
    if a.trace == 0:
        setups.append(res["metrics"]["setup_s"]["value"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
        meta["setup_samples_s"] = setups
    meta["git_rev"], meta["source_sha256"] = source_revision()
    meta["trace"] = a.trace
    meta["seconds"] = a.seconds

    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    with open(os.path.join(out_dir, "results", tag + ".json"), "w") as f:
        json.dump({"meta": meta, **res}, f, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": res["correct"],
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]),
                      "metrics": res["metrics"]}))


if __name__ == "__main__":
    main()
