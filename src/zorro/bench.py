"""Wall-clock benchmarks for proof generation, verification and tallying.

Costs are dominated by the round-2 validity bundles, which scale with the
vector length m and (through the digit count) the bound B, so the grid runs
two-party sessions over (m, B) and reports medians.
"""

import csv
import random
import statistics
import time
from dataclasses import dataclass

from .protocol import (
    Party,
    ProtocolConfig,
    round2_generate,
    tally,
    verify_contribution,
)
from .rangeproof import BoundPolicy


@dataclass(frozen=True)
class BenchRow:
    m: int
    B: int
    gen_ms: float
    verify_ms: float
    tally_ms: float


def _policy(kind: str, B: int) -> BoundPolicy:
    return BoundPolicy.l1(B) if kind == "l1" else BoundPolicy.l2(B)


def _legal_vector(m: int, B: int) -> list:
    # a few ones, always legal under either policy for B >= 1
    ones = min(m, B)
    return [1] * ones + [0] * (m - ones)


def _session(group, kind: str, n: int, m: int, B: int, rng):
    cfg = ProtocolConfig(group, n, m, _policy(kind, B), bytes(rng.randbytes(16)))
    parties = [Party(cfg, i, random.Random(rng.randrange(2**63))) for i in range(n)]
    posts1 = [p.round1() for p in parties]
    for p in parties:
        p.receive_round1(posts1)
    return cfg, parties, posts1


def bench_grid(group, kind: str, ms, Bs, reps: int = 3, seed: int = 0):
    """Median generation / verification / tally times over an (m, B) grid."""
    rng = random.Random(seed)
    rows = []
    for m in ms:
        for B in Bs:
            cfg, parties, posts1 = _session(group, kind, 2, m, B, rng)
            values = _legal_vector(m, B)
            gen_times, verify_times, tally_times = [], [], []
            pads = {p.index: p.pads for p in parties}
            for _ in range(reps):
                t0 = time.perf_counter()
                post = round2_generate(
                    cfg, 0, values, parties[0].secret, pads[0], parties[0].keypair,
                    parties[0].rng,
                )
                gen_times.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                ok, reason = verify_contribution(cfg, posts1, post, pads=pads[0])
                verify_times.append(time.perf_counter() - t0)
                assert ok, reason
            other = parties[1].round2(values)
            posts2 = [post, other]
            for _ in range(reps):
                t0 = time.perf_counter()
                tally(cfg, posts2)
                tally_times.append(time.perf_counter() - t0)
            rows.append(
                BenchRow(
                    m, B,
                    statistics.median(gen_times) * 1e3,
                    statistics.median(verify_times) * 1e3,
                    statistics.median(tally_times) * 1e3,
                )
            )
    return rows


def write_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "B", "gen_ms", "verify_ms", "tally_ms"])
        for row in rows:
            writer.writerow(
                [row.m, row.B, f"{row.gen_ms:.3f}", f"{row.verify_ms:.3f}", f"{row.tally_ms:.3f}"]
            )
