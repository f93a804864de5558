#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and compare them.

    python3 tools/paired.py --workload device-int8 --seeds 1-5 --pairs 5 [--parent HEAD]

Builds loopbench twice: at the parent revision, checked out into a
temporary `git worktree` under `.bench_build/`, and at the working tree.
Each build has its own CARGO_TARGET_DIR under `.bench_build/`. It then runs
`--pairs` pairs of the workload, one run of each side per pair, with the
benchmark command and run length of BENCHMARK.json. Pair i uses the i-th
seed of `--seeds` (cycling) and the side that runs first alternates.

For every end-to-end metric of BENCHMARK.json it prints the parent's median
and quartiles, the change's median and quartiles, the pairs the change won
(ties count for neither) and the pairs whose two values are identical. The
status column reads `WORSE` when the change's median is worse than the
parent's by more than the metric's bound, `unresolved` when the parent's
interquartile range is wider than the bound, and `ok` otherwise. The
process exits 1 when any run fails its output checks (non-zero exit).
Run from the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BUILD_ROOT = ".bench_build"


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def git(*args, cwd=None):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def build(command, root, target_dir):
    """Builds the benchmark command's package in `root` into `target_dir`."""
    cargo_flags = command[2:command.index("--")]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(target_dir))
    subprocess.run(["cargo", "build", *cargo_flags], cwd=root, env=env, check=True)


def run(command, root, target_dir, workload, seed, seconds):
    """One benchmark run; returns (exit status, metrics dict or None, output)."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(target_dir))
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        metrics = {k: m["value"] for k, m in json.loads(lines[-1])["metrics"].items()}
    except (IndexError, ValueError, KeyError):
        metrics = None
    return proc.returncode, metrics, proc.stdout + proc.stderr


def quartiles(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    a = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    seed_list = seeds(a.seeds)

    parent_rev = git("rev-parse", a.parent)
    parent_root = os.path.join(BUILD_ROOT, "parent-src")
    sides = {
        "parent": (parent_root, os.path.join(BUILD_ROOT, "parent")),
        "change": (".", os.path.join(BUILD_ROOT, "change")),
    }
    os.makedirs(BUILD_ROOT, exist_ok=True)
    if os.path.exists(parent_root):
        subprocess.run(["git", "worktree", "remove", "--force", parent_root], check=False)
        shutil.rmtree(parent_root, ignore_errors=True)
    git("worktree", "add", "--detach", parent_root, parent_rev)
    values = {"parent": {}, "change": {}}
    failed = 0
    try:
        for side, (root, target) in sides.items():
            print(f"building {side} ({root})", flush=True)
            build(command, root, target)
        for i in range(a.pairs):
            seed = seed_list[i % len(seed_list)]
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            shown = []
            for side in order:
                status, metrics, output = run(command, *sides[side], a.workload, seed, seconds)
                if status != 0 or metrics is None:
                    failed += 1
                    print(f"pair {i + 1} {side}: exit {status}\n{output}", file=sys.stderr)
                for name, v in (metrics or {}).items():
                    values[side].setdefault(name, []).append(v)
                fps = (metrics or {}).get("wall_fps", float("nan"))
                shown.append(f"{side} exit {status} wall_fps {fps:.4g}")
            print(f"pair {i + 1}/{a.pairs} seed {seed}: " + ", ".join(shown), flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", parent_root], check=False)

    print(f"\n{a.workload}: parent {parent_rev[:10]} vs working tree, "
          f"{a.pairs} pairs, seeds {a.seeds}, {seconds} s runs")
    print(f"{'metric':<22} {'parent median [Q1-Q3]':>36} {'change median [Q1-Q3]':>36} "
          f"{'won':>5} {'same':>5}  status")
    for m in bench["end_to_end"]:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        pv, cv = values["parent"].get(name, []), values["change"].get(name, [])
        if not pv or not cv or len(pv) != len(cv):
            print(f"{name:<22} missing values")
            continue
        (pm, pq1, pq3), (cm, cq1, cq3) = quartiles(pv), quartiles(cv)
        won = sum((c > q) if higher else (c < q) for q, c in zip(pv, cv))
        same = sum(q == c for q, c in zip(pv, cv))
        worse = cm < pm * (1 - bound) if higher else cm > pm * (1 + bound)
        spread = (pq3 - pq1) / abs(pm) if pm else 0.0
        status = "WORSE" if worse else "unresolved" if spread > bound else "ok"
        print(f"{name:<22} {f'{pm:.6g} [{pq1:.6g}-{pq3:.6g}]':>36} "
              f"{f'{cm:.6g} [{cq1:.6g}-{cq3:.6g}]':>36} {won:>5} {same:>5}  {status}")
    if failed:
        print(f"{failed} run(s) failed their output checks", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
