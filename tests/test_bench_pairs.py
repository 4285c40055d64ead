"""The claim rule of scripts/bench_pairs.py on synthetic pair statistics: a
claimed gain is met when the median ratio reaches the claimed one, the
change wins at least 9 of 10 pairs, and the median gap exceeds the parent's
interquartile range.  The script takes its workloads, end-to-end metrics
and run length from BENCHMARK.json."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _claim(parent_runs, change_runs, metric="verify_s", ratio="1.1"):
    stats = bench_pairs.compare(parent_runs, change_runs)
    result = {"perfbench_trace0_pairs": {"w": {metric: stats}}}
    return bench_pairs.claim(result, f"w:{metric}:{ratio}")


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


@pytest.mark.parametrize(
    "change, better, gap_above_iqr, met",
    [
        ([0.80] * 10, 10, True, True),
        # one pair lost, and a gap of ~0.2 s against an IQR of ~0.035 s
        ([0.80] * 9 + [1.10], 9, True, True),
        # one pair lost, and a gap of ~0.005 s inside the IQR
        ([p - 0.005 for p in PARENT[:9]] + [1.10], 9, False, False),
        ([0.80] * 8 + [1.10, 1.10], 8, True, False),
    ],
    ids=["10-of-10", "9-of-10-gap-above-iqr", "9-of-10-gap-inside-iqr", "8-of-10"],
)
def test_claim_is_met_by_the_stated_rule(change, better, gap_above_iqr, met):
    result = _claim(PARENT, change, ratio="1.0")
    assert result["change_better_pairs"] == better and result["pairs"] == 10
    assert (result["median_difference_s"] > result["parent_iqr_s"]) == gap_above_iqr
    assert result["met"] is met


def test_claim_needs_the_ratio():
    assert not _claim(PARENT, [0.95] * 10, ratio="1.1")["met"]
    assert _claim(PARENT, [0.95] * 10, ratio="1.05")["met"]


def test_claim_reports_the_metrics_own_unit():
    result = _claim([38706] * 10, [33450] * 10, metric="ledger_bytes", ratio="1.15")
    assert result["met"]
    assert (result["median_difference_bytes"], result["parent_iqr_bytes"]) == (5256, 0)
    assert "median_difference_s" not in result


def test_gate_is_read_from_benchmark_json():
    gate = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    assert bench_pairs.WORKLOADS == tuple(w["name"] for w in gate["workloads"])
    assert bench_pairs.END_TO_END == tuple(m["name"] for m in gate["end_to_end"])
    assert bench_pairs.SECONDS == gate["run_seconds"]
