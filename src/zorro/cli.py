"""zorro: simulate aggregation sessions over a file ledger and inspect them.

Parties run in one process and exchange nothing but their public posts, and
every session is checked by the same public ledger verifier that `zorro
verify` runs.  Exit codes distinguish the failure classes: 1 usage or
illegal input, 2 proof rejection, 3 ledger corruption, 4 dropout (a party
missing from a round).
"""

import argparse
import hashlib
import math
import random
import sys

from . import bench as bench_mod
from .errors import (
    BoundExceeded,
    ChainBroken,
    LedgerRejected,
    MissingPost,
    NegativeEntry,
    NotInWindow,
    ZorroError,
)
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
    if bound is None:
        raise SessionFailure(f"--bound is required for --check {kind}")
    return BoundPolicy(kind, bound)


def _derived_rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}|{label}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def run_session(cfg: ProtocolConfig, vectors, ledger: Ledger, seed: int):
    """Drive n in-process parties through both rounds over the ledger.

    Parties see each other only through their posts: round-1 posts derive
    the pads, and the finished ledger is verified from its bytes alone by
    verify_ledger before tallying.  Returns the tally.  A vector that its
    party's round 2 refuses is a SessionFailure naming that party.
    """
    group = cfg.group
    parties = [Party(cfg, i, _derived_rng(seed, f"party{i}")) for i in range(cfg.n)]
    posts1 = [party.round1() for party in parties]
    for post in posts1:
        ledger.append(1, post.party, post.to_bytes(group))
    for party in parties:
        party.receive_round1(posts1)
    for party, values in zip(parties, vectors):
        try:
            post = party.round2(values)
        except (BoundExceeded, NegativeEntry) as exc:
            raise SessionFailure(f"input of party {party.index} is illegal: {exc}") from exc
        ledger.append(2, party.index, post.to_bytes(group))
    return tally(cfg, verify_ledger(cfg, ledger))


def _read_rows(path, cast=int):
    """Rows of a dataset file: comma/space separated, `#` starts a comment.
    A token `cast` cannot read is a SessionFailure naming its path and line."""
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([cast(tok) for tok in line.replace(",", " ").split()])
            except ValueError as exc:
                raise SessionFailure(f"{path}:{number}: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise SessionFailure(f"{path}: need equal-length non-empty rows")
    return rows


def _session_config(args, n: int, m: int, policy) -> ProtocolConfig:
    """The config of this run's session; ValueError if no session can have it."""
    session = hashlib.sha256(f"session|{args.seed}".encode()).digest()[:16]
    return ProtocolConfig(_group_for(args.group), n, m, policy, session)


def _run_and_report(args, vectors, policy):
    """Run one session over the per-party vectors and return its totals.

    The ledger is kept at --ledger when the subcommand has that flag and its
    hash chain is re-checked; the totals are written to --out when given.
    """
    cfg = _session_config(args, len(vectors), len(vectors[0]) if vectors else 0, policy)
    ledger = Ledger(cfg.header(), path=getattr(args, "ledger", None))
    totals = run_session(cfg, vectors, ledger, args.seed)
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


def encode_ballot(ballot, B: int):
    """Votes per candidate for a voter holding a budget of B - 1 votes.

    Legal ballots are non-negative with total under B: the encoding is the
    identity plus an L1(B-1) policy, which the ballot must satisfy
    (BoundPolicy.check).  It lives here, not among the numpy encoders of
    zorro.reductions, so `zorro vote` runs without numpy.
    """
    votes = [int(v) for v in ballot]
    policy = BoundPolicy.l1(B - 1)
    policy.check(votes)
    return votes, policy


def cmd_vote(args) -> int:
    if args.bound < 2:
        raise SessionFailure(f"--bound must be at least 2 (one vote), got {args.bound}")
    ballots = _read_rows(args.ballots)
    totals = _run_encoded(args, lambda ballot: encode_ballot(ballot, args.bound), ballots)
    for j, total in enumerate(totals):
        print(f"candidate {j}: {total} votes")
    return EXIT_OK


def cmd_aggregate(args) -> int:
    policy = _policy_for(args.check, args.bound)
    if args.vectors:
        vectors = _read_rows(args.vectors)
    else:
        _session_config(args, args.parties, args.dim, policy)  # refuse it before the draw
        rng = _derived_rng(args.seed, "inputs")
        vectors = [_random_vector(policy, args.dim, rng) for _ in range(args.parties)]
    print("tally:", ",".join(map(str, _run_and_report(args, vectors, policy))))
    return EXIT_OK


def _random_vector(policy: BoundPolicy, m: int, rng) -> list:
    if policy.kind == "l2":
        cap = math.isqrt(policy.B * policy.B // m)  # floor(B / sqrt(m)): m * cap^2 <= B^2
        return [rng.randrange(cap + 1) for _ in range(m)]
    # l1 and none: a total in [0, B], cut into m non-negative parts at m - 1 sorted points
    total = rng.randint(0, policy.B)
    cuts = sorted(rng.randint(0, total) for _ in range(m - 1))
    return [hi - lo for lo, hi in zip([0, *cuts], [*cuts, total])]


def cmd_verify(args) -> int:
    ledger = Ledger.load(args.ledger)
    ledger.verify_chain()
    try:
        cfg = ProtocolConfig.from_header(ledger.header)
    except (KeyError, ValueError) as exc:
        raise LedgerRejected(None, "header", f"bad ledger header: {exc.args[0]}") from exc
    posts2 = verify_ledger(cfg, ledger)
    try:
        totals = tally(cfg, posts2)
    except NotInWindow as exc:
        raise LedgerRejected(None, "tally", f"tally failed at {exc}") from exc
    print(f"ledger ok: {len(ledger.entries)} entries, {cfg.n} parties verified")
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


def cmd_demo(args) -> int:
    """Run the reduction demo named by the subcommand; zorro.demos, and with
    it numpy, is imported only here."""
    from . import demos

    return getattr(demos, "cmd_" + args.command.replace("-", "_"))(args)


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
    p.add_argument("--bound", type=int,
                   help="B, required: each party's element sum under l1, its vector's "
                        "l2 norm under l2, and under none its nominal element sum, which "
                        "no proof enforces and which sets the tally window [0, n*B]")
    p.add_argument("--check", choices=["l1", "l2", "none"], default="l1")
    p.add_argument("--vectors", help="file with one vector per line (overrides --parties/--dim)")
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

    for name, blurb, extra in [
        ("demo-lda", "aggregate word-topic count matrices", None),
        ("demo-id3", "entropy gain from aggregated split counts",
         ("--samples", "labeled sample rows 'feature(0|1) label'")),
        ("demo-nb", "naive Bayes parameters from aggregated counts",
         ("--samples", "labeled sample rows 'feature_value label'")),
        ("demo-regression", "least squares from aggregated tensors",
         ("--data", "regression rows 'x1 ... xd y'")),
        ("demo-cf", "collaborative-filtering gradient aggregation",
         ("--ratings", "one row of item ratings per user")),
    ]:
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--parties", type=int, default=3)
        if extra is not None:
            flag, blurb2 = extra
            p.add_argument(flag, help=f"optional dataset file: {blurb2}")
        _add_common(p)
        p.set_defaults(func=cmd_demo)

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
