"""Builds the benchmark runner (perfbench/CMakeLists.txt) from source.

Shared by run.py, calibrate.py and selfcheck.py. The build directory is
$CARGO_TARGET_DIR/perfbench when that variable is set, else
.bench_build/perfbench, relative to the repository root.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def runner_path():
    """Configures (once) and builds the runner; returns its path.

    Raises SystemExit with a non-zero code when the repository sources are
    missing or the build fails.
    """
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("perfbench: repository sources not found next to "
                         "perfbench/; nothing to build\n")
        raise SystemExit(2)
    out = build_dir()
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", out,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=log, stderr=log)
        if cfg.returncode != 0:
            raise SystemExit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    b = subprocess.run(["cmake", "--build", out, "--target",
                        "perfbench_runner", "-j", jobs],
                       stdout=log, stderr=log)
    if b.returncode != 0:
        raise SystemExit(2)
    return os.path.join(out, "perfbench_runner")
