#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 loopbench/spread.py --workload serve-batched --seeds 1-10 [--trace 0]

For every metric of the result line it prints the median over the seeds and
the distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), the figure a benchmark bound is checked
against. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "loopbench/Cargo.toml", "--"]


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-5")
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0")
    a = p.parse_args()

    values = {}
    units = {}
    for seed in seeds(a.seeds):
        start = time.time()
        run = subprocess.run(
            COMMAND + ["--workload", a.workload, "--seed", str(seed),
                       "--seconds", a.seconds, "--trace", a.trace],
            capture_output=True, text=True, check=False)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stdout}\n{run.stderr}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: {time.time() - start:.1f} s, correct={result['correct']}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{'metric':<32} {'median':>14} {'unit':<9} {'iqr/median':>10}  values")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        shown = " ".join(f"{x:.4g}" for x in v)
        print(f"{name:<32} {med:>14.6g} {units[name]:<9} {spread:>10.4f}  {shown}")


if __name__ == "__main__":
    main()
