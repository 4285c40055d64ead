"""zorro: simulate aggregation sessions over a file ledger and inspect them.

Parties run in one process and exchange nothing but their public posts, and
every session is checked by the same public ledger verifier that `zorro
verify` runs.  Exit codes distinguish the failure classes: 1 usage or
illegal input, 2 proof rejection, 3 ledger corruption, 4 dropout (a party
missing from a round).
"""

import argparse
import hashlib
import random
import sys

import numpy as np

from . import bench as bench_mod
from . import reductions
from .dlog import DlogWindow
from .errors import ChainBroken, LedgerRejected, MissingPost, NotInWindow, ZorroError
from .groups import prod_group, test_group
from .ledger import Ledger
from .protocol import Party, ProtocolConfig, tally, verify_ledger
from .rangeproof import BoundPolicy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROOF = 2
EXIT_LEDGER = 3
EXIT_DROPOUT = 4


class SessionFailure(ZorroError):
    """A usage error: bad arguments or input files (exit 1)."""


def _group_for(name: str):
    return {"test": test_group(), "prod": prod_group()}[name]


def _policy_for(kind: str, bound: int) -> BoundPolicy:
    if kind == "none":
        return BoundPolicy.none()
    if bound is None:
        raise SessionFailure(f"--bound is required for --check {kind}")
    return BoundPolicy(kind, bound)


def _derived_rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}|{label}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def run_session(cfg: ProtocolConfig, vectors, ledger: Ledger, seed: int, window=None):
    """Drive n in-process parties through both rounds over the ledger.

    Parties see each other only through their posts: round-1 posts derive
    the pads, and the finished ledger is verified from its bytes alone by
    verify_ledger before tallying.  Returns the tally.
    """
    group = cfg.group
    parties = [Party(cfg, i, _derived_rng(seed, f"party{i}")) for i in range(cfg.n)]
    posts1 = [party.round1() for party in parties]
    for post in posts1:
        ledger.append(1, post.party, post.to_bytes(group))
    for party in parties:
        party.receive_round1(posts1)
    for party, values in zip(parties, vectors):
        ledger.append(2, party.index, party.round2(values).to_bytes(group))
    return tally(cfg, verify_ledger(cfg, ledger), window)


def _read_rows(path, cast=int):
    """Rows of a dataset file: comma/space separated, `#` starts a comment."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([cast(tok) for tok in line.replace(",", " ").split()])
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise SessionFailure(f"{path}: need equal-length non-empty rows")
    return rows


def _run_and_report(args, vectors, policy, window=None):
    """Run one session over the per-party vectors and return its totals.

    The ledger is kept at --ledger when the subcommand has that flag and its
    hash chain is re-checked; the totals are written to --out when given.
    """
    m = len(vectors[0]) if vectors else 0
    session = hashlib.sha256(f"session|{args.seed}".encode()).digest()[:16]
    cfg = ProtocolConfig(_group_for(args.group), len(vectors), m, policy, session)
    ledger = Ledger(cfg.header(), path=getattr(args, "ledger", None))
    totals = run_session(cfg, vectors, ledger, args.seed, window=window)
    ledger.verify_chain()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(",".join(map(str, totals)) + "\n")
    return totals


def _run_encoded(args, encode, inputs):
    """Encode each party's input with `encode(input) -> (vector, policy)`, then run and report."""
    vectors, policy = [], None
    for i, item in enumerate(inputs):
        try:
            vec, policy = encode(item)
        except ZorroError as exc:
            raise SessionFailure(f"input of party {i} is illegal: {exc}") from exc
        vectors.append(vec)
    return _run_and_report(args, vectors, policy)


# -- subcommands ----------------------------------------------------------------


def cmd_vote(args) -> int:
    ballots = _read_rows(args.ballots)
    totals = _run_encoded(args, lambda ballot: reductions.encode_ballot(ballot, args.bound), ballots)
    for j, total in enumerate(totals):
        print(f"candidate {j}: {total} votes")
    return EXIT_OK


def cmd_aggregate(args) -> int:
    policy = _policy_for(args.check, args.bound)
    if args.vectors:
        vectors = _read_rows(args.vectors)
    else:
        rng = _derived_rng(args.seed, "inputs")
        vectors = [_random_vector(policy, args.dim, rng) for _ in range(args.parties)]
    window = DlogWindow(0, args.window) if policy.kind == "none" else None
    print("tally:", ",".join(map(str, _run_and_report(args, vectors, policy, window))))
    return EXIT_OK


def _random_vector(policy: BoundPolicy, m: int, rng) -> list:
    if m < 1:
        return []  # the session refuses the dimension
    if policy.kind == "l1":
        budget = policy.B
        vec = [0] * m
        for _ in range(budget):
            if rng.random() < 0.7:
                vec[rng.randrange(m)] += 1
        return vec
    if policy.kind == "l2":
        cap = max(1, int(policy.B / max(1, m) ** 0.5))
        return [rng.randrange(cap + 1) for _ in range(m)]
    return [rng.randrange(33) for _ in range(m)]


def cmd_verify(args) -> int:
    ledger = Ledger.load(args.ledger)
    ledger.verify_chain()
    try:
        cfg = ProtocolConfig.from_header(ledger.header)
    except (KeyError, ValueError) as exc:
        raise LedgerRejected(None, "header", f"bad ledger header: {exc.args[0]}") from exc
    posts2 = verify_ledger(cfg, ledger)
    totals = None
    if cfg.policy.tally_window(cfg.n) is not None:
        try:
            totals = tally(cfg, posts2)
        except NotInWindow as exc:
            raise LedgerRejected(None, "tally", f"tally failed at {exc}") from exc
    print(f"ledger ok: {len(ledger.entries)} entries, {cfg.n} parties verified")
    if totals is not None:
        print("tally:", ",".join(map(str, totals)))
    return EXIT_OK


def cmd_bench(args) -> int:
    group = _group_for(args.group)
    ms = [int(tok) for tok in args.dims.split(",")]
    Bs = [int(tok) for tok in args.bounds.split(",")]
    rows = bench_mod.bench_grid(group, args.check, ms, Bs, reps=args.reps, seed=args.seed)
    bench_mod.write_csv(rows, args.out)
    for row in rows:
        print(
            f"m={row.m:3d} B={row.B:3d} gen={row.gen_ms:9.3f}ms "
            f"verify={row.verify_ms:9.3f}ms tally={row.tally_ms:8.3f}ms"
        )
    print(f"wrote {args.out}")
    return EXIT_OK


# -- reduction demos --------------------------------------------------------------


def _split_rows(rows, parties):
    """Balanced shares of the dataset rows, one per party (sizes differ by at most one)."""
    if not 0 < parties <= len(rows):
        raise SessionFailure(f"cannot split {len(rows)} rows over {parties} parties")
    return np.array_split(np.asarray(rows), parties)


def _sample_tables(path, parties, values=None):
    """Per-party (feature value x label) count tables from a file of 'value label'
    rows, and the row count; `values` defaults to the largest value seen + 1."""
    rows = _read_rows(path)
    values = values or max(r[0] for r in rows) + 1
    if any(len(r) != 2 or not 0 <= r[0] < values or r[1] < 0 for r in rows):
        raise SessionFailure(f"samples must be rows 'feature label', 0 <= feature < {values}")
    k = max(r[1] for r in rows) + 1
    tables = []
    for share in _split_rows(rows, parties):
        table = [[0] * k for _ in range(values)]
        for v, y in share:
            table[v][y] += 1
        tables.append(table)
    return tables, len(rows)


def _count_session(args, tables, cap):
    """Tally per-party count tables under L1(cap); returns (tallied, centralised) tables."""
    totals = _run_encoded(args, lambda t: reductions.encode_counts(t, cap), tables)
    tallied = reductions.decode_counts(totals, np.shape(tables[0]))
    return tallied, np.sum(np.array(tables), axis=0)


def cmd_demo_lda(args) -> int:
    rng = _derived_rng(args.seed, "lda")
    words, topics = 6, 3
    matrices = [
        [[rng.randrange(3) for _ in range(topics)] for _ in range(words)]
        for _ in range(args.parties)
    ]
    tallied, central = _count_session(args, matrices, cap=40)
    same = bool(np.array_equal(tallied, central))
    print("aggregated word-topic counts:")
    print(tallied)
    print("matches centralized sum:", same)
    return EXIT_OK if same else EXIT_PROOF


def cmd_demo_id3(args) -> int:
    if args.samples:
        tables, cap = _sample_tables(args.samples, args.parties, values=2)
    else:
        rng = _derived_rng(args.seed, "id3")
        k, cap = 3, 60
        # per user: p = label counts with feature 0, q = with feature 1
        ps = [[rng.randrange(5) for _ in range(k)] for _ in range(args.parties)]
        qs = [[rng.randrange(5) for _ in range(k)] for _ in range(args.parties)]
        tables = [[p, q] for p, q in zip(ps, qs)]
    split, central_split = _count_session(args, tables, cap)
    gain = reductions.compute_gain(split.sum(axis=0), split)
    central = reductions.compute_gain(central_split.sum(axis=0), central_split)
    print(f"entropy gain (distributed): {gain:.6f}")
    print(f"entropy gain (centralized): {central:.6f}")
    return EXIT_OK if abs(gain - central) < 1e-12 else EXIT_PROOF


def cmd_demo_nb(args) -> int:
    if args.samples:
        tables, cap = _sample_tables(args.samples, args.parties)
    else:
        rng = _derived_rng(args.seed, "nb")
        k, values, cap = 2, 3, 80
        tables = [
            [[1 + rng.randrange(4) for _ in range(k)] for _ in range(values)]
            for _ in range(args.parties)
        ]
    table, central_table = _count_session(args, tables, cap)
    priors, conds = reductions.nb_parameters(table.sum(axis=0), [table])
    priors_c, conds_c = reductions.nb_parameters(central_table.sum(axis=0), [central_table])
    print("class priors:", np.round(priors, 6))
    print("conditionals:")
    print(np.round(conds[0], 6))
    same = np.allclose(priors, priors_c) and np.allclose(conds[0], conds_c[0])
    print("matches centralized fit:", bool(same))
    return EXIT_OK if same else EXIT_PROOF


def cmd_demo_regression(args) -> int:
    if args.data:
        rows = np.asarray(_read_rows(args.data, cast=float))
        if rows.shape[1] < 2:
            raise SessionFailure("data rows must be 'x1 ... xd y'")
    else:
        X = np.random.default_rng(args.seed).integers(-8, 9, size=(24, 2))
        rows = np.column_stack([X, (X @ np.array([2.0, -1.0])).astype(int)])
    X, Y = rows[:, :-1], rows[:, -1]
    totals = _run_encoded(
        args,
        lambda share: reductions.encode_regression(share[:, :-1], share[:, -1], bound=10**6),
        _split_rows(rows, args.parties),
    )
    beta = reductions.solve_beta(totals, X.shape[1])
    # oracle: centralized least squares on the same floor-quantized data
    central, *_ = np.linalg.lstsq(np.floor(X).astype(float), np.floor(Y).astype(float), rcond=None)
    print("beta (distributed): ", np.round(beta, 9))
    print("beta (centralized): ", np.round(central, 9))
    if args.data:
        fp, *_ = np.linalg.lstsq(X.astype(float), Y.astype(float), rcond=None)
        print("beta (full precision, for reference):", np.round(fp, 9))
    ok = bool(np.allclose(beta, central, atol=1e-9))
    print("match:", ok)
    return EXIT_OK if ok else EXIT_PROOF


def cmd_demo_cf(args) -> int:
    rng = np.random.default_rng(args.seed)
    k, scale = 2, 2**16
    if args.ratings:
        rows = _read_rows(args.ratings)
        if any(v < 0 for row in rows for v in row):
            raise SessionFailure("ratings must be non-negative integers")
        ratings = [np.asarray(row) for row in rows]
        items = len(rows[0])
    else:
        items = 4
        ratings = [rng.integers(0, 6, size=items) for _ in range(args.parties)]
    A = rng.normal(scale=0.3, size=(k, items))
    totals = _run_encoded(
        args, lambda P: reductions.encode_cf_gradient(A, P, bound=10**9, scale=scale), ratings
    )
    central = sum(reductions.cf_gradient(A, P) for P in ratings)
    tallied = np.array([float(v) for v in totals]).reshape(k, items) / scale
    err = np.abs(tallied - central).max()
    tol = 2 * len(ratings) / scale
    print(f"gradient max deviation: {err:.3e} (fixed-point tolerance {tol:.3e})")
    A_next = reductions.cf_gradient_step(totals, A, step=0.05, scale=scale)
    print("factor updated, norm change:", f"{np.linalg.norm(A_next - A):.6f}")
    return EXIT_OK if err <= tol else EXIT_PROOF


# -- argument parsing --------------------------------------------------------------


def _add_common(parser, ledger=False):
    parser.add_argument("--group", choices=["test", "prod"], default="test",
                        help="group instantiation (default: test)")
    parser.add_argument("--seed", type=int, default=0, help="deterministic run seed")
    if ledger:
        parser.add_argument("--ledger", required=True, help="ledger file path")
    parser.add_argument("--out", help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zorro",
        description="self-tallying encrypted vector aggregation with validity proofs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vote", help="run a cumulative-voting session from a ballots file")
    p.add_argument("ballots", help="file with one comma/space separated ballot per line")
    p.add_argument("--bound", type=int, required=True,
                   help="vote budget: each voter casts fewer than this many votes")
    _add_common(p, ledger=True)
    p.set_defaults(func=cmd_vote)

    p = sub.add_parser("aggregate", help="aggregate integer vectors (random or from file)")
    p.add_argument("--parties", type=int, default=3)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--bound", type=int)
    p.add_argument("--check", choices=["l1", "l2", "none"], default="l1")
    p.add_argument("--vectors", help="file with one vector per line (overrides --parties/--dim)")
    p.add_argument("--window", type=int, default=100000,
                   help="tally search bound when --check none")
    _add_common(p, ledger=True)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("verify", help="re-verify a persisted ledger end to end")
    p.add_argument("ledger", help="ledger file path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="benchmark proof generation/verification/tally")
    p.add_argument("--check", choices=["l1", "l2"], default="l1")
    p.add_argument("--dims", default="1,2,4,8,16,32", help="comma list of vector lengths")
    p.add_argument("--bounds", default="2,4,8,16,32", help="comma list of bounds")
    p.add_argument("--reps", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_bench)
    p.set_defaults(out="bench.csv")

    for name, func, blurb, extra in [
        ("demo-lda", cmd_demo_lda, "aggregate word-topic count matrices", None),
        ("demo-id3", cmd_demo_id3, "entropy gain from aggregated split counts",
         ("--samples", "labeled sample rows 'feature(0|1) label'")),
        ("demo-nb", cmd_demo_nb, "naive Bayes parameters from aggregated counts",
         ("--samples", "labeled sample rows 'feature_value label'")),
        ("demo-regression", cmd_demo_regression, "least squares from aggregated tensors",
         ("--data", "regression rows 'x1 ... xd y'")),
        ("demo-cf", cmd_demo_cf, "collaborative-filtering gradient aggregation",
         ("--ratings", "one row of item ratings per user")),
    ]:
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--parties", type=int, default=3)
        if extra is not None:
            flag, blurb2 = extra
            p.add_argument(flag, help=f"optional dataset file: {blurb2}")
        _add_common(p)
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ChainBroken as exc:
        print(f"ledger corrupt at seq {exc.seq}: {exc.reason}", file=sys.stderr)
        return EXIT_LEDGER
    except LedgerRejected as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PROOF
    except MissingPost as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DROPOUT
    except (ZorroError, OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
