#!/usr/bin/env python3
"""Compare two sets of saved benchmark results against BENCHMARK.json bounds.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records perfbench/run.py saves under
<build>/results/ (untraced runs, any number of seeds). For every workload and
end-to-end metric it prints the two medians and the change, and flags a
regression when the new median is worse by more than the metric's bound.
Refuses to compare (exit 2) when the records come from different hosts or
builds: host timings are only comparable on the same machine and toolchain.
Exit 1 when any metric regressed beyond its bound, else 0.
"""

import glob
import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "compiler", "build_type", "arch")


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            records.append(json.load(f))
    if not records:
        sys.exit(f"compare.py: no untraced results in {directory}")
    return records


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    stamps = {tuple(r["host"].get(k) for k in HOST_KEYS) for r in base + new}
    if len(stamps) != 1:
        print("compare.py: refusing to compare results from different hosts/builds:",
              file=sys.stderr)
        for s in sorted(stamps, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, s)), file=sys.stderr)
        sys.exit(2)

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    def medians(records, workload):
        rows = [r["result"]["metrics"] for r in records if r["host"]["workload"] == workload]
        return {m["name"]: statistics.median(row[m["name"]]["value"] for row in rows)
                for m in metrics if rows}

    regressed = False
    workloads = sorted({r["host"]["workload"] for r in base} & {r["host"]["workload"] for r in new})
    print(f"{'workload':16} {'metric':18} {'base':>12} {'new':>12} {'change':>8} {'bound':>6}")
    for w in workloads:
        b, n = medians(base, w), medians(new, w)
        for m in metrics:
            name = m["name"]
            change = n[name] / b[name] - 1.0
            worse = change if m["better"] == "lower" else -change
            flag = "REGRESSED" if worse > m["bound"] else ""
            regressed |= bool(flag)
            print(f"{w:16} {name:18} {b[name]:12.5g} {n[name]:12.5g} {change:+8.1%} "
                  f"{m['bound']:6.2f} {flag}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
