#!/usr/bin/env python3
"""Build and run the EasyDRAM benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles libeasydram from ../src) as a Release
build under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs it, and passes its output through: the last stdout line is the
result JSON. Each result is also saved with its host stamp under
<build>/results/ for perfbench/compare.py. Exits non-zero, without a result
line, when the sources are missing or the build fails.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

WORKLOADS = ("polybench_fig14", "rw_burst", "rowclone_trcd")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=2):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/CMakeLists.txt) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the benchmark's report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(base), "perfbench")
    build(build_dir)

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(results, tag + ".spans.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()

    lines = proc.stdout.splitlines()
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host {")), None)
    if lines and host is not None:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
        if result is not None:
            host["arch"] = platform.machine()
            with open(os.path.join(results, tag + ".json"), "w") as f:
                json.dump({"host": host, "result": result}, f, indent=1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
