#!/usr/bin/env python3
"""Runs workloads repeatedly and reports how steady each metric is.

    python3 perfbench/steady.py --workload twin-fanout [--workload ...]
        [--runs 10] [--seconds 20] [--batches 1]

For every workload it runs perfbench/run.py --runs times with --trace 0, on
seeds 1 to --runs, and prints per metric: the median, the quartiles (as Python's
statistics.quantiles(values, n=4) gives them), the spread (Q3 - Q1) / median,
and the min/max spread (max - min) / median. Spreads are compared with the
metric's bound in BENCHMARK.json: "ok" below a third of it, "WIDE" above.
With --batches 2 it repeats the whole set of seeds and prints how far the
second batch's median moved from the first's, in the worse direction.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def report(workload, runs, metrics):
    print(f"\n{workload}: {len(runs)} runs")
    print(f"{'metric':22} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}  verdict")
    for name in runs[0]:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med if med else float("inf")
        rng = (max(values) - min(values)) / med if med else float("inf")
        bound = metrics.get(name, {}).get("bound")
        verdict = ""
        if bound is not None:
            verdict = "ok" if iqr < bound / 3 else (
                "within bound" if iqr <= bound else "WIDE")
            if name == "setup_s":
                verdict += " (spread not gated)"
        print(f"{name:22} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.3f} "
              f"{rng:9.3f} {bound if bound is not None else '':>6}  {verdict}")


def drift(workload, batches, metrics):
    print(f"\n{workload}: median drift, batch 2 vs batch 1 (worse direction)")
    for name in batches[0][0]:
        first = statistics.median(r[name] for r in batches[0])
        second = statistics.median(r[name] for r in batches[1])
        spec = metrics.get(name, {})
        worse = (second - first) / first if first else 0.0
        if spec.get("better") == "higher":
            worse = -worse
        bound = spec.get("bound")
        flag = "" if bound is None or worse <= bound else "  BEYOND BOUND"
        print(f"  {name:22} {first:12.6g} -> {second:12.6g}  "
              f"{100 * worse:+6.2f}%{flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--batches", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()
    spec, metrics = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    for workload in args.workload:
        batches = []
        for _ in range(args.batches):
            runs = []
            for seed in range(1, args.runs + 1):
                runs.append(run_once(workload, seed, seconds))
                print(f"  {workload} seed {seed}: " + ", ".join(
                    f"{k}={v:.6g}" for k, v in runs[-1].items()
                    if k in ("setup_s", "deliveries_per_s",
                             "delivery_p50_ms", "control_round_ms")),
                    flush=True)
            batches.append(runs)
            report(workload, runs, metrics)
        if len(batches) == 2:
            drift(workload, batches, metrics)


if __name__ == "__main__":
    main()
