#!/usr/bin/env python3
"""Steadiness check: run the benchmark over many seeds, in two interleaved
sets, and report each end-to-end metric's median, quartiles, CV and
spread (interquartile distance as a share of the median).

    python3 perfbench/steadiness.py --out perfbench/STEADINESS.md

Every workload of BENCHMARK.json runs at its run_seconds. Set A uses
seeds 1..10 and set B seeds 101..110; runs alternate A, B, A, B, ...
workload by workload. A metric is steady when its spread in each set
stays within a third of its bound in BENCHMARK.json, and set B's median
is not worse than set A's by more than the bound.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = 10


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}, result["failed"]


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    cv = statistics.pstdev(values) / statistics.mean(values)
    return q1, q2, q3, cv, (q3 - q1) / q2


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    sets = {(w, s): {m["name"]: [] for m in metrics} for w in workloads for s in "AB"}
    failures = []
    for w in workloads:
        for i in range(1, SEEDS + 1):
            for s, seed in (("A", i), ("B", 100 + i)):
                values, failed = run(w, seed, seconds)
                for name, v in values.items():
                    sets[(w, s)][name].append(v)
                if failed:
                    failures.append(f"{w} seed {seed}: {failed} failed obligations")
                print(f"{w} set {s} seed {seed} done", file=sys.stderr, flush=True)
    lines = [
        "Generated by perfbench/steadiness.py on "
        f"{platform.machine()} Linux {platform.release()}, {os.cpu_count()} CPUs.",
        f"Seeds per set: {SEEDS}; run_seconds: {seconds}. A cell is marked FAIL when its",
        "spread exceeds a third of the bound or set B's median is worse than set A's by",
        "more than the bound.",
        "",
        "",
        "| workload | metric | set | median | Q1 | Q3 | CV | spread | bound | B vs A |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    steady = True
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med = {}
            for s in "AB":
                q1, q2, q3, cv, spread = summary(sets[(w, s)][name])
                med[s] = q2
                worse = (med["B"] - med["A"]) / med["A"] if s == "B" else 0.0
                if m["better"] == "higher":
                    worse = -worse
                ok = spread <= bound / 3 and worse <= bound
                steady = steady and ok
                lines.append(
                    f"| {w} | {name} | {s} | {q2:.6g} | {q1:.6g} | {q3:.6g} | {cv:.3f} | "
                    f"{spread:.3f} | {bound} | {'%+.3f' % worse if s == 'B' else ''}"
                    f"{'' if ok else ' FAIL'} |")
    lines += ["", "Runs with failed obligations: " + ("; ".join(failures) if failures else "none") + "."]
    text = "\n".join(lines) + "\n"
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
