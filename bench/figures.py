#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/figures.py --runs 10 --first-seed 1 --set-name A

Runs ``bench/run.py`` once per (workload, seed) for every workload in
BENCHMARK.json, one process at a time, untraced, with ``run_seconds`` from
BENCHMARK.json.  Prints, per workload and metric,
the median, the first and third quartiles (``statistics.quantiles(n=4)``)
and the spread (Q3 - Q1) / median, and writes every run's result to
``bench/out/figures-<set-name>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--set-name", default="A")
    args = ap.parse_args()

    results: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, wall_s=wall)
            results[workload].append(result)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {values} attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']} wall={wall:.1f}s", flush=True)

    print(f"\nset {args.set_name}: {args.runs} runs per workload, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'workload':12} {'metric':40} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8}")
    summary = {}
    for workload, runs in results.items():
        for metric in runs[0]["metrics"]:
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            summary[f"{workload}/{metric}"] = s
            print(f"{workload:12} {metric:40} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} {s['spread']:8.2%}")
        walls = [r["wall_s"] for r in runs]
        print(f"{workload:12} {'(wall time of one run, s)':40} {statistics.median(walls):12.1f}")
    out = BENCH_DIR / "out" / f"figures-{args.set_name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"summary": summary, "runs": results}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
