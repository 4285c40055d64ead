"""The five reduction demos of the zorro command line.

Each runs one aggregation session over per-party inputs derived from its
seed or read from an optional dataset file, then checks the tallied result
against the same computation done centrally.  `zorro.cli` imports this module
only when a demo subcommand runs, so numpy stays out of the other commands.
"""

import numpy as np

from . import reductions
from .cli import EXIT_OK, EXIT_PROOF, SessionFailure, _derived_rng, _read_rows, _run_encoded


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
