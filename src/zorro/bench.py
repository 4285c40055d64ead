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

from .errors import ZorroError
from .protocol import (
    ProtocolConfig,
    derive_pads,
    round1_generate,
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


def _legal_vector(m: int, B: int) -> list:
    # a few ones, always legal under either policy for B >= 1
    ones = min(m, B)
    return [1] * ones + [0] * (m - ones)


def _session(group, kind: str, n: int, m: int, B: int, rng):
    """A session's config, and each party's rng, round-1 secret and pads."""
    cfg = ProtocolConfig(group, n, m, BoundPolicy(kind, B), bytes(rng.randbytes(16)))
    rngs = [random.Random(rng.randrange(2**63)) for _ in range(n)]
    secrets, posts1 = zip(*(round1_generate(cfg, i, r) for i, r in enumerate(rngs)))
    return cfg, rngs, secrets, [derive_pads(cfg, posts1, i) for i in range(n)]


def bench_grid(group, kind: str, ms, Bs, reps: int = 3, seed: int = 0):
    """Median generation / verification / tally times over an (m, B) grid."""
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    rng = random.Random(seed)
    rows = []
    for m in ms:
        for B in Bs:
            cfg, rngs, secrets, pads = _session(group, kind, 2, m, B, rng)
            values = _legal_vector(m, B)
            gen_times, verify_times, tally_times = [], [], []
            for _ in range(reps):
                t0 = time.perf_counter()
                post = round2_generate(cfg, values, secrets[0], pads[0], rngs[0])
                gen_times.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                ok, reason = verify_contribution(cfg, post, pads[0])
                verify_times.append(time.perf_counter() - t0)
                if not ok:
                    raise ZorroError(f"benchmarked contribution rejected ({reason})")
            other = round2_generate(cfg, values, secrets[1], pads[1], rngs[1])
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
