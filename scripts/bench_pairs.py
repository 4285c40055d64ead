#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as a BENCH_*.json file.

Run from the repository root:

    python3 scripts/bench_pairs.py --parent HEAD~1 --out BENCH_11.json \\
        --claim vote-l1-secp256k1:verify_s:1.5

The parent commit's committed files are unpacked with `git archive` into a
temporary directory, and the change's files (this checkout's tracked and
unignored files, edits included) are copied next to them, so both sides run
from fresh copies with no compiled-bytecode cache on the same disk.  For every
workload, pair k (seed = --first-seed + k) runs `perfbench/run.py --trace 0`
once from each side, the parent first on odd pairs and the change first on
even ones, so slow drift of a shared machine hits both sides alike.  There
are PAIRS pairs per workload, each run SECONDS long, the run length that
BENCHMARK.json sets.  Each run is a separate process, one at a time.  With
--trace-seconds > 0, TRACED_PAIRS alternating `--trace 1 --seed 1` pairs per
workload add the median and the runs of each per-layer time on each side,
every count that differs between the sides, and every count that differs
within one side.  The output has the shape of BENCH_8.json.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GATE = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in GATE["workloads"])  # the gated ones, the default
DEFINED = tuple(json.loads((ROOT / "perfbench" / "spec.json").read_text())["workloads"])
PAIRS = 10
SECONDS = GATE["run_seconds"]
TRACED_PAIRS = 3  # one traced run per side cannot tell a layer change from noise
UNITS = {m["name"]: m["unit"] for m in GATE["end_to_end"]}
END_TO_END = tuple(UNITS)


def unpack(rev: str, dest: Path) -> Path:
    """The committed files of `rev`, unpacked under dest."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    tree = dest / "parent"
    tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def copy_worktree(dest: Path) -> Path:
    """This checkout's tracked and unignored files, as they are on disk, under dest."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        check=True, capture_output=True, text=True,
    ).stdout
    tree = dest / "change"
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, tree / name)
    return tree


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int, workdir: Path) -> dict:
    """One perfbench run from `tree`; its last stdout line, parsed."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(workdir),
    ]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} printed nothing: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    print(f"  {tree.name}: {workload} seed {seed}: "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                     if k in END_TO_END), flush=True)
    return result


def quartiles(runs) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(parent_runs, change_runs) -> dict:
    """Medians, quartiles and pair wins of one lower-is-better metric."""
    better = sum(c < p for p, c in zip(parent_runs, change_runs))
    ties = sum(c == p for p, c in zip(parent_runs, change_runs))
    median_c = statistics.median(change_runs)
    return {
        "parent": quartiles(parent_runs),
        "change": quartiles(change_runs),
        "change_better_pairs": better,
        "ties": ties,
        "ratio_parent_over_change": round(statistics.median(parent_runs) / median_c, 3)
        if median_c else None,
        "parent_runs": [round(v, 4) for v in parent_runs],
        "change_runs": [round(v, 4) for v in change_runs],
    }


def pairs(trees, workload, seeds, scratch) -> dict:
    results = {"parent": [], "change": []}
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            workdir = scratch / f"{side}-{workload}-{seed}"
            results[side].append(bench(trees[side], workload, seed, SECONDS, 0, workdir))
    out = {
        "seeds": list(seeds),
        "pairs": len(seeds),
        "seconds": SECONDS,
        "order": "alternating, parent first on odd pairs",
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in results.items()},
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in results.items()},
        "correct": all(r["correct"] for rs in results.values() for r in rs),
    }
    for name in END_TO_END:
        runs = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in results.items()}
        out[name] = compare(runs["parent"], runs["change"])
    return out


def traced(trees, workload, seconds, scratch) -> dict:
    """TRACED_PAIRS alternating --trace 1 --seed 1 pairs: each per-layer
    time's median and runs per side, and the counts that differ between the
    sides or within one."""
    runs = {"parent": [], "change": []}
    for k in range(TRACED_PAIRS):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            workdir = scratch / f"{side}-{workload}-trace{k}"
            runs[side].append(bench(trees[side], workload, 1, seconds, 1, workdir)["metrics"])
    out = {"seed": 1, "seconds": seconds, "pairs": TRACED_PAIRS}
    equal, differ, unsteady = 0, {}, {}
    for name, metric in runs["parent"][0].items():
        values = {side: [r[name]["value"] for r in rs] for side, rs in runs.items()}
        if metric["unit"] == "count":
            unsteady.update({f"{name} ({side})": vs for side, vs in values.items()
                             if len(set(vs)) > 1})
            if values["parent"] == values["change"]:
                equal += 1
            else:
                differ[name] = values
        elif metric["unit"] == "s":
            out[name] = {
                side: {"median": round(statistics.median(vs), 4), "runs": [round(v, 4) for v in vs]}
                for side, vs in values.items()
            }
    out["count_metrics_equal"] = equal
    out["count_metrics_differ"] = differ
    out["count_metrics_differ_within_a_side"] = unsteady
    return out


def claim(result, spec) -> dict:
    """Whether a WORKLOAD:METRIC:RATIO claim on a lower-is-better metric is
    met: the median ratio parent over change is at least RATIO, the change
    is better in at least 9 of 10 pairs, and the median gap exceeds the
    parent's interquartile range.  The gap and the IQR are in METRIC's unit."""
    workload, metric, ratio = spec.split(":")
    stats = result["perfbench_trace0_pairs"][workload][metric]
    parent, change = stats["parent"], stats["change"]
    pairs, unit = len(stats["parent_runs"]), UNITS[metric]
    gap, iqr = parent["median"] - change["median"], parent["q3"] - parent["q1"]
    return {
        "metric": f"{metric} on {workload}, median parent over change, at least {ratio}x",
        "ratio_parent_over_change": stats["ratio_parent_over_change"],
        "change_better_pairs": stats["change_better_pairs"],
        "pairs": pairs,
        f"median_difference_{unit}": round(gap, 4),
        f"parent_iqr_{unit}": round(iqr, 4),
        "met": stats["ratio_parent_over_change"] is not None
        and stats["ratio_parent_over_change"] >= float(ratio)
        and 10 * stats["change_better_pairs"] >= 9 * pairs
        and gap > iqr,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json to write")
    parser.add_argument("--workload", action="append", choices=DEFINED,
                        help="workload of perfbench/spec.json to run (repeatable; "
                             "default: the two gated ones)")
    parser.add_argument("--first-seed", type=int, default=11)
    parser.add_argument("--trace-seconds", type=float, default=SECONDS,
                        help="length of each --trace 1 --seed 1 run; 0 skips them")
    parser.add_argument("--claim", help="WORKLOAD:METRIC:RATIO, the gain to check")
    parser.add_argument("--change-note", default="", help="one line saying what changed")
    args = parser.parse_args(argv)

    workloads = args.workload or list(WORKLOADS)
    seeds = range(args.first_seed, args.first_seed + PAIRS)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        scratch = Path(tmp)
        trees = {"parent": unpack(args.parent, scratch), "change": copy_worktree(scratch)}
        result = {
            "hardware": f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, "
                        f"{platform.python_implementation()} {platform.python_version()}",
            "change": args.change_note,
            "parent": subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", args.parent],
                check=True, capture_output=True, text=True,
            ).stdout.strip(),
            "perfbench_trace0_pairs": {},
        }
        for workload in workloads:
            print(f"{workload}: {PAIRS} pairs of {SECONDS} s", flush=True)
            result["perfbench_trace0_pairs"][workload] = pairs(trees, workload, seeds, scratch)
        if args.trace_seconds > 0:
            print(f"traced: {TRACED_PAIRS} pairs of {args.trace_seconds} s", flush=True)
            result["perfbench_trace1_seed1"] = {
                workload: traced(trees, workload, args.trace_seconds, scratch)
                for workload in workloads
            }
    if args.claim:
        result["claim"] = claim(result, args.claim)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
