#!/usr/bin/env python3
"""The zorro benchmark: seeded `zorro aggregate` + `zorro verify` sessions.

Run from the repository root:

    python3 perfbench/run.py --workload vote-l1-secp256k1 --seed 1 --seconds 30 --trace 0

Sessions run back to back through the CLI entry point in this one process
and thread (a closed loop with one client): ``zorro.cli.main(["aggregate",
...])`` and then ``zorro.cli.main(["verify", LEDGER])`` on the ledger that
session wrote.  Every tally and verdict is checked.  With ``--trace 0`` the
last stdout line is a JSON object holding the end-to-end metrics; with
``--trace 1`` each untraced session is followed by the same session traced
(perfbench/spans.py) and the object holds the per-layer metrics.  The exit
status is non-zero when any check fails.  Workloads and metric definitions
are in perfbench/spec.json.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
SETUP_PROBES = 5
SIGNED_CAP = 256  # sum of squares of a signed input: the nominal l2 bound 16, squared
PHASES = ("aggregate", "verify")

END_TO_END = (
    ("setup_s", "s"),
    ("aggregate_s", "s"),
    ("verify_s", "s"),
    ("ledger_bytes", "bytes"),
    ("peak_rss_mb", "MiB"),
)

_BOTH = PHASES
_AGG = ("aggregate",)
_VER = ("verify",)
# (stem, unit, phases); the metric name is "<stem>.<phase>"
PER_LAYER = (
    ("groups.exp.calls", "count", _BOTH),
    ("groups.mul.calls", "count", _BOTH),
    ("groups.div.calls", "count", _BOTH),
    ("groups.decode.calls", "count", _VER),
    ("groups.self_s", "s", _BOTH),
    *(
        (f"sigma.{fn}.{kind}", unit, _BOTH)
        for fn in ("verify_dlog", "verify_dh_tuple", "verify_bit", "verify_square")
        for kind, unit in (("calls", "count"), ("s", "s"))
    ),
    ("sigma.prove.calls", "count", _AGG),
    ("sigma.prove.s", "s", _AGG),
    ("sigma.prove_bit.calls", "count", _AGG),
    ("sigma.prove_square.calls", "count", _AGG),
    ("sigma.challenge.calls", "count", _BOTH),
    ("rangeproof.prove.s", "s", _AGG),
    ("rangeproof.verify.s", "s", _BOTH),
    ("rangeproof.self_s", "s", _BOTH),
    ("protocol.round1_generate.s", "s", _AGG),
    ("protocol.round2_generate.s", "s", _AGG),
    ("protocol.derive_pads.calls", "count", _BOTH),
    ("protocol.derive_pads.s", "s", _BOTH),
    ("protocol.verify_contribution.s", "s", _BOTH),
    ("protocol.decode.s", "s", _BOTH),
    ("protocol.tally.s", "s", _AGG),
    ("protocol.self_s", "s", _BOTH),
    ("dlog.bsgs.calls", "count", _AGG),
    ("dlog.bsgs.s", "s", _AGG),
    ("ledger.append.s", "s", _AGG),
    ("ledger.load.s", "s", _VER),
    ("ledger.verify_chain.s", "s", _VER),
    ("cli.self_s", "s", _BOTH),
    ("trace.overhead", "ratio", _BOTH),
)
PER_LAYER_UNITS = {f"{stem}.{phase}": unit for stem, unit, phases in PER_LAYER for phase in phases}


def import_zorro():
    """Import zorro from this checkout's src/ and nowhere else."""
    if not (SRC / "zorro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no zorro sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import zorro
    import zorro.cli

    if Path(zorro.__file__).resolve().parent != SRC / "zorro":
        raise SystemExit(f"perfbench: imported zorro from {zorro.__file__}, not {SRC}")
    return zorro.cli


@dataclass(frozen=True)
class Workload:
    name: str
    cli: tuple
    parties: int
    dim: int
    inputs: str  # "ballots": non-negative, sum <= limit; "signed": |v| <= limit, sum v^2 <= SIGNED_CAP
    limit: int

    @classmethod
    def named(cls, name):
        spec = SPEC["workloads"][name]
        return cls(
            name, tuple(spec["cli"]), spec["parties"], spec["dim"], spec["inputs"], spec["limit"]
        )


def derive(seed, *labels) -> int:
    digest = hashlib.sha256("|".join(map(str, (seed, *labels))).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_vectors(wl: Workload, seed, index):
    """The n input vectors of session `index`, from the workload seed alone."""
    rng = random.Random(derive(seed, wl.name, "vectors", index))
    vectors = []
    for _ in range(wl.parties):
        if wl.inputs == "ballots":
            vec = [0] * wl.dim
            for _ in range(rng.randint(0, wl.limit)):
                vec[rng.randrange(wl.dim)] += 1
        else:
            while True:
                vec = [rng.randint(-wl.limit, wl.limit) for _ in range(wl.dim)]
                if sum(v * v for v in vec) <= SIGNED_CAP:
                    break
        vectors.append(vec)
    return vectors


def column_sums(vectors):
    return [sum(col) for col in zip(*vectors)]


def set_up(cli, wl: Workload, seed, workdir: Path):
    """Everything before the first timed session: group, its lazily hashed gamma, inputs."""
    from zorro.groups import prod_group, test_group

    args = cli.build_parser().parse_args(["aggregate", *wl.cli, "--ledger", "-"])
    group = prod_group() if args.group == "prod" else test_group()
    group.gamma  # hashed to the group on first use
    workdir.mkdir(parents=True, exist_ok=True)
    write_vectors(workdir / "vectors-0.txt", make_vectors(wl, seed, 0))


def write_vectors(path: Path, vectors):
    path.write_text("".join(" ".join(map(str, vec)) + "\n" for vec in vectors))


def measure_setup(wl: Workload, seed, workdir: Path):
    """Wall times of set-up-only child processes, from spawn to exit."""
    times = []
    for k in range(SETUP_PROBES):
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--probe",
            "--workload", wl.name, "--seed", str(seed), "--workdir", str(workdir / f"probe{k}"),
        ]
        t0 = perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return times


class Run:
    """One benchmark run: its sessions, checks and failure count."""

    def __init__(self, cli, wl: Workload, seed, workdir: Path):
        self.cli = cli
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL: {what}", file=sys.stderr)

    def call(self, argv, tracer=None, session=None):
        """Run zorro.cli.main(argv); return (exit code, stdout, stderr, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    tracer.session = session
                    code = tracer.root("cli.main", self.cli.main, argv)
            except (Exception, SystemExit):
                code = None
                traceback.print_exc()
            seconds = perf_counter() - t0
        return code, out.getvalue(), err.getvalue(), seconds

    def session(self, index, tracer=None):
        """One aggregate + verify session; returns (aggregate_s, verify_s, ledger path)."""
        vec_path = self.workdir / f"vectors-{index}.txt"
        vectors = make_vectors(self.wl, self.seed, index)
        write_vectors(vec_path, vectors)
        ledger = self.workdir / f"ledger-{index}{'-traced' if tracer else ''}.zl"
        argv = [
            "aggregate", *self.wl.cli, "--vectors", str(vec_path), "--ledger", str(ledger),
            "--seed", str(derive(self.seed, self.wl.name, "session", index)),
        ]
        label = f"s{index}"
        code, out, err, agg_s = self.call(argv, tracer, f"{label}.aggregate")
        expected = "tally: " + ",".join(map(str, column_sums(vectors)))
        self.check(
            code == 0 and out.strip() == expected,
            f"session {index} aggregate: exit {code}, {out.strip()!r} != {expected!r} {err.strip()}",
        )
        code, out, err, ver_s = self.call(["verify", str(ledger)], tracer, f"{label}.verify")
        self.check(
            code == 0 and out.startswith("ledger ok"),
            f"session {index} verify: exit {code}: {out.strip()} {err.strip()}",
        )
        return agg_s, ver_s, ledger

    def tamper_checks(self, ledger: Path):
        """Two tampered copies of `ledger` that `zorro verify` must reject."""
        from zorro.ledger import Ledger

        lines = ledger.read_bytes().split(b"\n")
        pos = 1 + (len(lines) - 2) // 2  # a middle entry line
        fields = lines[pos].split(b" ")
        payload = bytearray.fromhex(fields[-1].decode())
        payload[len(payload) // 2] ^= 0x01
        fields[-1] = payload.hex().encode()
        lines[pos] = b" ".join(fields)
        flipped = self.workdir / "tamper-flipped.zl"
        flipped.write_bytes(b"\n".join(lines))
        code = self.call(["verify", str(flipped)])[0]
        self.check(code == 3, f"flipped payload byte: verify exit {code}, expected 3")

        source = Ledger.load(ledger)
        rechained = self.workdir / "tamper-rechained.zl"
        copy = Ledger(source.header, path=rechained)
        for entry in source.entries:
            payload = entry.payload
            if entry.round == 2 and entry.party == 0:
                payload = payload[:-1] + bytes([payload[-1] ^ 0x01])
            copy.append(entry.round, entry.party, payload)
        code = self.call(["verify", str(rechained)])[0]
        self.check(code == 2, f"re-chained altered round-2 post: verify exit {code}, expected 2")


def _keep_going(start, deadline, done):
    """Start another unit of work only if the last one would still fit."""
    now = perf_counter()
    return now + (now - start) / done <= deadline


def run_untraced(run: Run, seconds):
    agg, ver, sizes = [], [], []
    start = perf_counter()
    deadline = start + seconds
    ledger = None
    while not agg or _keep_going(start, deadline, len(agg)):
        agg_s, ver_s, ledger = run.session(len(agg))
        agg.append(agg_s)
        ver.append(ver_s)
        sizes.append(ledger.stat().st_size)
    run.tamper_checks(ledger)
    return agg, ver, sizes


def run_traced(run: Run, seconds, trace_path: Path):
    """Alternate untraced and traced copies of each session; per-layer medians."""
    import spans

    tracer = spans.Tracer()
    plain = {phase: [] for phase in PHASES}
    traced = {phase: [] for phase in PHASES}
    start = perf_counter()
    deadline = start + seconds
    index, ledger = 0, None
    while not index or _keep_going(start, deadline, index):
        for phase, value in zip(PHASES, run.session(index)):
            plain[phase].append(value)
        with tracer.installed():
            *times, ledger = run.session(index, tracer)
        for phase, value in zip(PHASES, times):
            traced[phase].append(value)
        index += 1
    run.tamper_checks(ledger)
    tracer.write(trace_path, start)

    per_session = [layer_metrics(tracer, f"s{i}", phase) for i in range(index) for phase in PHASES]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if not name.startswith("trace."):
            # counts can depend on the inputs: report one that was observed
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = median([m[name] for m in per_session if name in m])
    for phase in PHASES:
        metrics[f"trace.overhead.{phase}"] = (
            statistics.median(traced[phase]) / statistics.median(plain[phase])
        )
    return metrics


def layer_metrics(tracer, label, phase):
    """Per-layer values of one phase of one traced session ("<stem>.<phase>" keys)."""
    from spans import self_times

    session = f"{label}.{phase}"
    recorded = [s for s in tracer.spans if s[5] == session]
    own = self_times(recorded)
    calls, total, durations = {}, {}, {}
    layer_self = dict.fromkeys(("groups", "rangeproof", "protocol", "cli"), 0.0)
    for sid, name, start, end, _parent, _session, ops_s in recorded:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        durations.setdefault(name, []).append(end - start)
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += own[sid]
        layer_self["groups"] += ops_s

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    def seconds(*names):
        return sum(total.get(n, 0.0) for n in names)

    provers = [f"sigma.prove_{p}" for p in ("dlog", "dh_tuple", "bit", "square")]
    values = {
        "groups.exp.calls": tracer.counts[session, "exp"],
        "groups.mul.calls": tracer.counts[session, "mul"],
        "groups.div.calls": tracer.counts[session, "div"],
        "groups.decode.calls": tracer.counts[session, "decode"],
        "groups.self_s": layer_self["groups"],
        "sigma.prove.calls": count(*provers),
        "sigma.prove.s": seconds(*provers),
        "sigma.prove_bit.calls": count("sigma.prove_bit"),
        "sigma.prove_square.calls": count("sigma.prove_square"),
        "sigma.challenge.calls": tracer.counts[session, "sigma.challenge"],
        "rangeproof.prove.s": seconds("rangeproof.prove_l1", "rangeproof.prove_l2"),
        "rangeproof.verify.s": seconds("rangeproof.verify_l1", "rangeproof.verify_l2"),
        "rangeproof.self_s": layer_self["rangeproof"],
        "protocol.derive_pads.calls": count("protocol.derive_pads"),
        "protocol.derive_pads.s": seconds("protocol.derive_pads"),
        "protocol.verify_contribution.s": seconds("protocol.verify_contribution"),
        "protocol.decode.s": seconds("protocol.decode"),
        "protocol.tally.s": seconds("protocol.tally"),
        "protocol.self_s": layer_self["protocol"],
        "dlog.bsgs.calls": count("dlog.bsgs"),
        "dlog.bsgs.s": seconds("dlog.bsgs"),
        "ledger.append.s": seconds("ledger.append"),
        "ledger.load.s": seconds("ledger.load"),
        "ledger.verify_chain.s": seconds("ledger.verify_chain"),
        "cli.self_s": layer_self["cli"],
    }
    for fn in ("verify_dlog", "verify_dh_tuple", "verify_bit", "verify_square"):
        values[f"sigma.{fn}.calls"] = count(f"sigma.{fn}")
        values[f"sigma.{fn}.s"] = seconds(f"sigma.{fn}")
    for fn in ("round1_generate", "round2_generate"):
        values[f"protocol.{fn}.s"] = statistics.median(durations.get(f"protocol.{fn}", [0.0]))
    return {
        f"{stem}.{phase}": values[stem]
        for stem, _unit, phases in PER_LAYER
        if phase in phases and stem in values
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_benchmark(cli, wl: Workload, seed, seconds, trace, workdir: Path, probes=True):
    """Run one benchmark; returns the result object printed as the last line."""
    run = Run(cli, wl, seed, workdir)
    if trace:
        values = run_traced(run, seconds, workdir / f"trace-{wl.name}-seed{seed}.json")
        for name, unit in PER_LAYER_UNITS.items():
            print(f"{name}: {values[name]} {unit}")
        metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    else:
        setup = measure_setup(wl, seed, workdir) if probes else [0.0]
        agg, ver, sizes = run_untraced(run, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "setup_s": statistics.median(setup),
            "aggregate_s": statistics.median(agg),
            "verify_s": statistics.median(ver),
            "ledger_bytes": statistics.median(sizes),
            "peak_rss_mb": rss_mb,
        }
        samples = {"setup_s": len(setup), "aggregate_s": len(agg), "verify_s": len(ver),
                   "ledger_bytes": len(sizes), "peak_rss_mb": 1}
        for name, unit in END_TO_END:
            print(f"{name}: {values[name]} {unit} (median of {samples[name]})")
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    print(f"fail_rate: {run.failed / run.attempted} ratio ({run.failed}/{run.attempted})")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, default=OUT, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = import_zorro()
    wl = Workload.named(args.workload)
    set_up(cli, wl, args.seed, args.workdir)
    if args.probe:
        return 0
    result = run_benchmark(cli, wl, args.seed, args.seconds, args.trace, args.workdir)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
