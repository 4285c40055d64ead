#!/usr/bin/env python3
"""Steadiness check: run the benchmark once per seed and report the spread.

    python3 perfbench/steady.py --seeds 1-10 [--workload NAME ...] [--record FILE]

For each workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the interquartile range as a share of the
median, next to the metric's bound from BENCHMARK.json.  Runs are sequential.
--record writes the summary as JSON (perfbench/baseline.json holds the one
measured at the commit that added the benchmark).
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    argv = [
        sys.executable, str(ROOT / BENCHMARK["command"][1]), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--record", type=Path, help="write the summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    workloads = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    summary = {}
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: {runs[-1]}", flush=True)
        summary[workload] = {name: summarise([r[name] for r in runs]) for name in bounds}
        for name, row in summary[workload].items():
            flag = "ok" if name == "setup_s" or row["spread"] <= bounds[name] / 3 else "WIDE"
            print(
                f"  {name:12s} median {row['median']:.6g}  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}"
                f"  spread {row['spread']:.4f} (bound {bounds[name]}) {flag}",
                flush=True,
            )
    if args.record:
        doc = {
            "seeds": args.seeds,
            "run_seconds": args.seconds,
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {platform.processor() or 'unknown cpu'}",
            "workloads": summary,
        }
        args.record.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
