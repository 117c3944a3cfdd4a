"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 [--workloads spectral,kernel] \\
        [--trace-seed 1] [--out bench/out/summary.json]

Runs ``run.py`` once per (workload, seed) with the run length from
BENCHMARK.json, one workload after another, and then (with
``--trace-seed``) one traced run per workload.  For every end-to-end
metric it reports the median, the quartiles and the spread (quartile
distance over the median, as ``statistics.quantiles(values, n=4)`` gives
the quartiles) and flags spreads at or above a third of the metric's
bound.  Traced runs contribute their per-layer values as they are.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "spread_over_bound": spread / bound, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", default=str(BENCH / "out" / "summary.json"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            result = run_once(name, seed, spec["run_seconds"], 0)
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']}", flush=True)
        record = BENCH / "out" / f"{name}-seed{seeds[-1]}-trace0.json"
        entry = {"correct": all(r["correct"] for r in runs),
                 "provenance": json.loads(record.read_text())["provenance"], "metrics": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]
            if len(values) == len(runs):
                entry["metrics"][metric] = summarise(values, bound)
                s = entry["metrics"][metric]
                flag = "" if s["spread_over_bound"] < 1 / 3 else "  <-- wide"
                print(f"{name:9s} {metric:16s} median {s['median']:.6g} {units[metric]}"
                      f"  spread {s['spread']:.4f} (bound {bound}){flag}", flush=True)
        if args.trace_seed is not None:
            traced = run_once(name, args.trace_seed, spec["run_seconds"], 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": traced["correct"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        report["workloads"][name] = entry
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"summary written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
