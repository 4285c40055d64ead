"""Tests of the benchmark itself, at tiny sizes (mod41, n=2, m=1)."""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

cli = bench.import_zorro()

import spans  # noqa: E402
from zorro.groups import prod_group  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY = bench.Workload("tiny", ("--group", "test", "--check", "l1", "--bound", "4"), 2, 1, "ballots", 4)


def _result(capsys, **kwargs):
    result = bench.run_benchmark(cli, TINY, 5, 0, probes=False, **kwargs)
    printed = capsys.readouterr().out
    return result, {line.split(":")[0] for line in printed.splitlines()}


def test_every_end_to_end_metric_is_printed(tmp_path, capsys):
    result, printed = _result(capsys, trace=0, workdir=tmp_path)
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(result["metrics"]) == names
    assert set(names) | {"fail_rate"} <= printed
    assert {m["unit"] for m in result["metrics"].values()} == {m["unit"] for m in BENCHMARK["end_to_end"]}
    # 1 session: aggregate + verify, then the two tamper checks
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 4, 0)
    assert result["metrics"]["aggregate_s"]["value"] > 0


def test_every_per_layer_metric_is_printed_with_exact_counts(tmp_path, capsys):
    result, printed = _result(capsys, trace=1, workdir=tmp_path)
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert list(result["metrics"]) == names
    assert set(names) <= printed
    assert result["correct"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # n=2, m=1: aggregate checks round 1 once and derives pads twice per party
    # (receive_round1, verify_contribution); verify once per party, L=3 bits
    assert values["sigma.verify_dlog.calls.aggregate"] == 2 + 4 + 4
    assert values["sigma.verify_dlog.calls.verify"] == 2 + 2 * 2
    assert values["protocol.derive_pads.calls.aggregate"] == 4
    assert values["sigma.verify_bit.calls.verify"] == 2 * (1 + 1) * 3
    assert values["sigma.prove_bit.calls.aggregate"] == 2 * (1 + 1) * 3
    assert values["sigma.verify_square.calls.verify"] == 0
    assert values["dlog.bsgs.calls.aggregate"] == 1
    assert all(values[f"trace.overhead.{phase}"] > 0 for phase in bench.PHASES)
    assert list(tmp_path.glob("trace-tiny-seed5.json"))


def test_self_time_on_a_synthetic_span_tree():
    # (id, name, start, end, parent, session, ops_s); b overlaps a, c overruns root
    tree = [
        (0, "root", 0.0, 10.0, None, "s", 1.0),
        (1, "a", 1.0, 4.0, 0, "s", 0.5),
        (2, "b", 3.0, 6.0, 0, "s", 0.0),
        (3, "c", 8.0, 12.0, 0, "s", 0.0),
        (4, "d", 2.0, 3.0, 1, "s", 0.25),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 10 - 5 - 2 - 1.0, 1: 3 - 1 - 0.5, 2: 3, 3: 4, 4: 0.75})


def test_group_ops_count_only_at_the_outermost_call():
    g = prod_group().g
    tracer = spans.Tracer()
    tracer.session = "x"
    original_pow = type(g).__pow__
    with tracer.installed():
        point = tracer.root("root", lambda: g ** 12345)
        tracer.root("root", lambda: point / g)
    assert type(g).__pow__ is original_pow
    assert tracer.counts["x", "exp"] == 1
    assert tracer.counts["x", "mul"] == 0
    assert tracer.counts["x", "div"] == 1
    root_ops_s = tracer.spans[0][6]
    assert root_ops_s > 0
    assert spans.self_times(tracer.spans[:1])[0] == pytest.approx(
        tracer.spans[0][3] - tracer.spans[0][2] - root_ops_s
    )


def _session(tmp_path):
    bench.set_up(cli, TINY, 9, tmp_path)
    run = bench.Run(cli, TINY, 9, tmp_path)
    ledger = run.session(0)[2]
    assert (run.attempted, run.failed) == (2, 0)
    return run, ledger


def test_both_tampered_copies_are_rejected(tmp_path):
    run, ledger = _session(tmp_path)
    run.tamper_checks(ledger)
    assert (run.attempted, run.failed) == (4, 0)


def test_accepted_tampered_copies_count_as_failures(tmp_path, monkeypatch, capsys):
    run, ledger = _session(tmp_path)
    monkeypatch.setattr(cli, "cmd_verify", lambda args: cli.EXIT_OK)
    run.tamper_checks(ledger)
    assert (run.attempted, run.failed) == (4, 2)
    assert capsys.readouterr().err.count("FAIL:") == 2


def test_inputs_come_from_the_seed_alone():
    for name in bench.SPEC["workloads"]:
        wl = bench.Workload.named(name)
        vectors = bench.make_vectors(wl, 7, 3)
        assert vectors == bench.make_vectors(wl, 7, 3) != bench.make_vectors(wl, 8, 3)
        assert len(vectors) == wl.parties and all(len(v) == wl.dim for v in vectors)
        for vec in vectors:
            if wl.inputs == "ballots":
                assert min(vec) >= 0 and sum(vec) <= wl.limit
            else:
                assert sum(v * v for v in vec) <= bench.SIGNED_CAP


def test_set_up_probes_time_child_processes(tmp_path):
    times = bench.measure_setup(bench.Workload.named("audit-l1-mod41-n128"), 1, tmp_path)
    assert len(times) == bench.SETUP_PROBES and min(times) > 0
