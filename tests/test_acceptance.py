"""Acceptance suite: one test per criterion, each printing its own PASS line.

Scale-sensitive criteria run in the 41-bit-order group, where arithmetic is
fast, tallies up to ~10^5 are uniquely representable, and accidental forgery
probability is ~2^-41 (the 11-element group can represent neither the
required tallies nor a meaningful forgery bound).  Run with `pytest -v` for
the per-criterion lines, `-s` to see the PASS messages as they land.
"""

import math
import random
import statistics
import time
from collections import Counter

import numpy as np
import pytest

from zorro import groups
from zorro.bench import bench_grid
from zorro.dlog import DlogWindow, bsgs
from zorro.elgamal import encrypt_exp
from zorro.errors import BoundExceeded, ChainBroken, NegativeEntry, ZorroError
from zorro.ledger import Ledger, LedgerHeader
from zorro.protocol import (
    ProtocolConfig,
    Round1Post,
    Round2Post,
    derive_pads,
    round1_generate,
    round2_generate,
    tally,
    verify_contribution,
    verify_round1,
)
from zorro.rangeproof import (
    BoundPolicy,
    _build_l1,
    bits_of,
    prove_l1,
    prove_l2,
    verify_l1,
)
from zorro.reductions import (
    cf_gradient,
    compute_gain,
    decode_counts,
    encode_cf_gradient,
    encode_counts,
    encode_regression,
    nb_parameters,
    solve_beta,
)
from zorro.sigma import (
    FsTranscript,
    lift_proofs,
    prove_bit,
    prove_dh_tuple,
    prove_dlog,
    prove_square,
    verify_bit,
    verify_dh_tuple,
    verify_dlog,
    verify_square,
)

TOY = groups.toy_group()
MOD = groups.test_group()
CURVE = groups.prod_group()


def announce(number, text):
    print(f"\ncriterion {number:2d}: PASS - {text}", flush=True)


def round1(cfg, seeds):
    """Each party's rng, Random(seeds[i]), and the round-1 secrets and posts
    it draws."""
    rngs = [random.Random(seed) for seed in seeds]
    secrets, posts1 = zip(*(round1_generate(cfg, i, rng) for i, rng in enumerate(rngs)))
    return rngs, secrets, posts1


def run_session(group, n, m, policy, vectors, seed, verify=True):
    """An honest session: its config, every party's pads, both rounds' posts
    and the tally."""
    cfg = ProtocolConfig(group, n, m, policy, random.Random(seed).randbytes(16))
    rngs, secrets, posts1 = round1(cfg, [seed * 1009 + i for i in range(n)])
    pads = [derive_pads(cfg, posts1, i) for i in range(n)]
    posts2 = [round2_generate(cfg, *args) for args in zip(vectors, secrets, pads, rngs)]
    if verify:
        for post in posts2:
            ok, reason = verify_contribution(cfg, post, pads[post.party])
            assert ok, f"party {post.party} rejected: {reason}"
    return cfg, pads, posts1, posts2, tally(cfg, posts2)


def test_criterion_01_exact_self_tally():
    rng = random.Random(20260809)
    t0 = time.perf_counter()
    sessions = 200
    for trial in range(sessions):
        n = rng.randint(2, 10)
        m = rng.randint(1, 20)
        vectors = [[rng.randint(0, 32) for _ in range(m)] for _ in range(n)]
        kind = ("none", "l1", "l2")[trial % 3]
        if kind == "l2":
            policy = BoundPolicy.l2(
                max(1, math.isqrt(max(sum(e * e for e in v) for v in vectors)) + 1)
            )
        else:
            policy = BoundPolicy(kind, max(1, max(sum(v) for v in vectors)))
        _, _, _, _, result = run_session(MOD, n, m, policy, vectors, seed=trial)
        oracle = tuple(sum(v[j] for v in vectors) for j in range(m))
        assert result == oracle, f"session {trial}: {result} != {oracle}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    announce(1, f"200/200 randomized sessions tally exactly ({elapsed:.1f}s)")


def test_criterion_02_completeness():
    rng = random.Random(2)
    checked = 0
    for group in (TOY, MOD):
        for trial in range(100):
            ctx = FsTranscript(b"c2-dlog")
            xs = [group.random_scalar(rng) for _ in range(1 + trial % 3)]
            As = [group.g ** x for x in xs]
            assert verify_dlog(group, As, prove_dlog(group, xs, As, ctx, rng), ctx)
            checked += 1

            ctx = FsTranscript(b"c2-dh")
            w = group.random_scalar(rng)
            h = group.g ** (1 + rng.randrange(group.q - 1))
            st = (group.g, h, group.g ** w, h ** w)
            assert verify_dh_tuple(group, st, prove_dh_tuple(group, w, st, ctx, rng), ctx)
            checked += 1

            ctx = FsTranscript(b"c2-bit")
            bit = rng.randrange(2)
            (proof,) = lift_proofs(group, [prove_bit(group, bit, group.random_scalar(rng), ctx, rng)])
            assert verify_bit(group, proof, ctx)
            checked += 1

            ctx = FsTranscript(b"c2-square")
            a = rng.randrange(-5, 6)
            s_a, s_b = group.random_scalar(rng), group.random_scalar(rng)
            ((C, W, proof),) = lift_proofs(group, [prove_square(group, a, s_a, s_b, ctx, rng)])
            assert verify_square(group, C, W, proof, ctx)
            checked += 1

    for trial in range(150):
        m = rng.randint(1, 5)
        n = 2
        budget = rng.randint(1, 12)
        vec = [0] * m
        for _ in range(budget):
            vec[rng.randrange(m)] += 1
        policy = BoundPolicy.l1(budget)
        run_session(MOD, n, m, policy, [vec, [0] * m], seed=1000 + trial)
        checked += 2  # both parties' bundles verified

    for trial in range(150):
        m = rng.randint(1, 5)
        vec = [rng.randint(-4, 4) for _ in range(m)]
        policy = BoundPolicy.l2(max(1, math.isqrt(sum(e * e for e in vec)) + 1))
        run_session(MOD, 2, m, policy, [vec, [0] * m], seed=5000 + trial)
        checked += 2

    assert checked >= 1000
    announce(2, f"{checked} honest proofs all verified (sigma + range bundles)")


def test_criterion_03_mutation_soundness():
    rng = random.Random(3)
    targets = []

    # protocol posts carrying every proof type
    for kind, vec in (("l1", [2, 1]), ("l2", [2, 1])):
        policy = BoundPolicy.l1(3) if kind == "l1" else BoundPolicy.l2(3)
        cfg, pads, posts1, posts2, _ = run_session(MOD, 2, 2, policy, [vec, [0, 0]], seed=33)
        for post in posts1:
            data = post.to_bytes(MOD)

            def check_r1(payload, cfg=cfg, party=post.party):
                try:
                    decoded = Round1Post.from_bytes(MOD, payload, party, cfg.m)
                except ZorroError:
                    return False
                return verify_round1(cfg, decoded)

            targets.append((data, check_r1))
        for post in posts2:
            data = post.to_bytes(MOD)
            elements = posts1[post.party].elements

            def check_r2(
                payload, cfg=cfg, pads=pads[post.party], elements=elements, party=post.party
            ):
                try:
                    decoded = Round2Post.from_bytes(MOD, payload, party, cfg.policy, elements)
                except ZorroError:
                    return False
                return verify_contribution(cfg, decoded, pads)[0]

            targets.append((data, check_r2))

    # standalone sigma proofs (cheap to verify, so they can carry bulk)
    ctx = FsTranscript(b"c3")
    xs = [MOD.random_scalar(rng) for _ in range(2)]
    As = [MOD.g ** x for x in xs]
    dp = prove_dlog(MOD, xs, As, ctx, rng)
    targets.append((dp.to_bytes(MOD), lambda payload: _try_verify_dlog(As, payload, ctx)))
    (bp,) = lift_proofs(MOD, [prove_bit(MOD, 1, MOD.random_scalar(rng), ctx, rng)])
    targets.append((bp.to_bytes(MOD), lambda payload: _try_verify_bit(payload, ctx)))

    for data, check in targets:
        assert check(bytes(data)), "corpus must verify before mutation"

    mutations = 10_000
    accepted = 0
    for _ in range(mutations):
        data, check = targets[rng.randrange(len(targets))]
        buf = bytearray(data)
        pos = rng.randrange(len(buf))
        new = rng.randrange(256)
        while new == buf[pos]:
            new = rng.randrange(256)
        buf[pos] = new
        if check(bytes(buf)):
            accepted += 1
    assert accepted == 0, f"{accepted} forged payloads accepted"
    announce(3, f"{mutations} single-byte mutations, 0 accepted")


def _try_verify_dlog(As, payload, ctx):
    from zorro.encoding import Reader
    from zorro.sigma import DlogProof

    try:
        reader = Reader(payload)
        proof = DlogProof.read_from(MOD, reader)
        reader.expect_end()
    except ZorroError:
        return False
    return verify_dlog(MOD, As, proof, ctx)


def _try_verify_bit(payload, ctx):
    from zorro.encoding import Reader
    from zorro.sigma import BitProof

    try:
        reader = Reader(payload)
        proof = BitProof.read_from(MOD, reader)
        reader.expect_end()
    except ZorroError:
        return False
    return verify_bit(MOD, proof, ctx)


def test_criterion_04_range_enforcement():
    rng = random.Random(4)
    policy = BoundPolicy.l1(3)  # L = 2, effective bound 3, 2^L = 4
    trials = 50
    refused = rejected = 0
    for trial in range(trials):
        m = rng.randint(1, 4)
        x = [MOD.random_scalar(rng) for _ in range(m)]
        pads = [MOD.g ** MOD.random_scalar(rng) for _ in range(m)]
        ctx = FsTranscript(b"c4").child(trial)

        over = [0] * m
        over[rng.randrange(m)] = 4  # element sum exactly 2^L
        cts = [encrypt_exp(MOD, over[j], x[j], pads[j]) for j in range(m)]
        with pytest.raises(BoundExceeded):
            prove_l1(MOD, cts, over, x, pads, policy, ctx, rng)
        refused += 1
        digits = [bits_of(v % 4, 2) for v in over]
        forced = _build_l1(MOD, cts, digits, bits_of(0, 2), x, pads, policy, ctx, rng)
        ok, _ = verify_l1(MOD, cts, forced, policy, pads, ctx)
        assert not ok
        rejected += 1

        neg = [1] * m
        neg[rng.randrange(m)] = -1
        cts = [encrypt_exp(MOD, neg[j], x[j], pads[j]) for j in range(m)]
        with pytest.raises(NegativeEntry):
            prove_l1(MOD, cts, neg, x, pads, policy, ctx, rng)
        refused += 1
        digits = [bits_of(v % 4, 2) for v in neg]
        forced = _build_l1(MOD, cts, digits, bits_of(sum(neg) % 4, 2), x, pads, policy, ctx, rng)
        ok, _ = verify_l1(MOD, cts, forced, policy, pads, ctx)
        assert not ok
        rejected += 1
    announce(4, f"{refused} prover refusals, {rejected} forced bundles rejected")


def test_criterion_05_consistency():
    rng = random.Random(5)
    for trial in range(100):
        m = rng.randint(1, 6)
        vec = [rng.randint(-3, 3) for _ in range(m)]
        policy = BoundPolicy.l2(max(1, math.isqrt(sum(e * e for e in vec)) + 1))
        x = [MOD.random_scalar(rng) for _ in range(m)]
        pads = [MOD.g ** MOD.random_scalar(rng) for _ in range(m)]
        cts = [encrypt_exp(MOD, t, xj, h) for t, xj, h in zip(vec, x, pads)]
        proof = prove_l2(MOD, cts, vec, x, pads, policy, FsTranscript(b"c5").child(trial), rng)
        lhs = MOD.identity
        for W in proof.squares:
            lhs = lhs * W
        rhs = MOD.identity
        for l, digit in enumerate(proof.digit_proofs):
            rhs = rhs * digit.y ** (1 << l)
        assert lhs == rhs  # exact identity of Pedersen commitments
    announce(5, "square/digit products match on 100 bundles")


def test_criterion_06_pad_cancellation():
    rng = random.Random(6)
    for trial in range(30):
        n, m = rng.randint(2, 8), rng.randint(1, 10)
        cfg = ProtocolConfig(MOD, n, m, BoundPolicy("none", 1), random.Random(trial).randbytes(16))
        _, secrets, posts1 = round1(cfg, [trial * 31 + i for i in range(n)])
        pads = [derive_pads(cfg, posts1, i) for i in range(n)]
        for j in range(m):
            prod = MOD.identity
            for i in range(n):
                prod = prod * pads[i][j] ** secrets[i].x[j]
            assert prod == MOD.identity
    announce(6, "pad products collapse to the identity in every session")


def test_criterion_07_bsgs(monkeypatch):
    window = DlogWindow(0, 32000)
    point = MOD.identity
    for m in range(32001):
        assert bsgs(MOD, point, window) == m
        point = point * MOD.g

    # production curve spot sweep with the same window logic
    curve_window = DlogWindow(0, 2000)
    for m in list(range(0, 2001, 97)) + [1, 1999, 2000]:
        assert bsgs(CURVE, CURVE.g ** m, curve_window) == m

    def median_query_ops(size, queries=400):
        """The median count of group operations (*, /, **, inverse) of one
        query: exact, so the bound holds on a loaded machine too."""
        window = DlogWindow(0, size - 1)
        rng = random.Random(size)
        targets = [(MOD.g ** rng.randrange(size)) for _ in range(queries)]
        bsgs(MOD, targets[0], window)  # build the baby table outside the count
        calls, ops = [0], []

        def counted(op):
            def wrapped(*args):
                calls[0] += 1
                return op(*args)

            return wrapped

        with monkeypatch.context() as patch:
            for name in ("__mul__", "__truediv__", "__pow__", "inverse"):
                patch.setattr(groups.ModElement, name, counted(getattr(groups.ModElement, name)))
            for target in targets:
                calls[0] = 0
                bsgs(MOD, target, window)
                ops.append(calls[0])
        return statistics.median(ops)

    ops_n, ops_4n = median_query_ops(8000), median_query_ops(32000)
    ratio = ops_4n / ops_n
    assert ratio <= 3.0, f"ops(4N)/ops(N) = {ops_4n}/{ops_n}"
    announce(7, f"exact recovery on [0, 32000]; ops(4N)/ops(N) = {ratio:.2f} <= 3")


def _group_ops(monkeypatch, names, run):
    """The ModElement operations in `names` that run() spends, by name."""
    counts = Counter()

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)

        return wrapped

    with monkeypatch.context() as patch:
        for name in names:
            patch.setattr(groups.ModElement, name, counting(name, getattr(groups.ModElement, name)))
        run()
    return counts


def _verify_group_ops(n, monkeypatch):
    """Group operations spent verifying all n contributions of one session."""
    cfg, pads, posts1, posts2, _ = run_session(
        MOD, n, 4, BoundPolicy.l1(4), [[1, 1, 1, 0]] * n, seed=10, verify=False
    )

    def verify_all():
        for post in posts2:
            ok, reason = verify_contribution(cfg, post, pads[post.party])
            assert ok, reason

    return _group_ops(monkeypatch, ("__pow__", "__mul__", "__truediv__", "inverse"), verify_all)


def _prover_pows(monkeypatch):
    """The ** spent by one prove_bit, one prove_square (each finished by
    lift_proofs) and one l1 round 2."""
    rng = random.Random(12)
    ctx = FsTranscript(b"c8")
    s_a, s_b = MOD.random_scalar(rng), MOD.random_scalar(rng)
    cfg = ProtocolConfig(MOD, 2, 4, BoundPolicy.l1(4), rng.randbytes(16))
    rngs, secrets, posts1 = round1(cfg, range(2))
    pads = derive_pads(cfg, posts1, 0)
    runs = {
        "prove_bit": lambda: lift_proofs(MOD, [prove_bit(MOD, 1, s_a, ctx, rng)]),
        "prove_square": lambda: lift_proofs(MOD, [prove_square(MOD, 3, s_a, s_b, ctx, rng)]),
        "round2_generate": lambda: round2_generate(cfg, [1, 1, 1, 0], secrets[0], pads, rngs[0]),
    }
    return {name: _group_ops(monkeypatch, ("__pow__",), run)["__pow__"] for name, run in runs.items()}


def test_criterion_08_benchmark_trends(monkeypatch):
    ms = [1, 4, 16, 32]
    rows = bench_grid(MOD, "l1", ms, [2], reps=5, seed=8)
    gens = [row.gen_ms for row in rows]
    assert all(a < b for a, b in zip(gens, gens[1:])), f"not monotone: {gens}"

    wide = bench_grid(MOD, "l1", [32], [2], reps=5, seed=9)[0]
    tall = bench_grid(MOD, "l1", [1], [32], reps=5, seed=9)[0]
    assert wide.gen_ms > tall.gen_ms, (wide.gen_ms, tall.gen_ms)

    # verification is linear in n: exact group-op counts, not wall-clock time
    small, large = _verify_group_ops(2, monkeypatch), _verify_group_ops(8, monkeypatch)
    # the mod41 op mix is pinned: multi_exp there is one ** per term at an
    # exponent other than 1, plus the *.  Per party: 4 links of 4 ** and 2 *
    # and 2 / (h_pad / gamma, ct.B / C_j, each one inverse and one *); each
    # C_j is its row's Horner chain, 2(L - 1) *; 15 bit proofs of 5 ** and
    # 3 * (a bit-1 branch takes g ** -d, not y / g); and the sum, one
    # equation over the 12 row digits and the 3 sum digits, 10 ** and 13 *
    assert small == Counter({"__pow__": 202, "__mul__": 180, "__truediv__": 16, "inverse": 16})
    assert large == Counter({op: 4 * c for op, c in small.items()}), (small, large)
    # a prover lifts each commitment it proves once, with its commitments,
    # each g^u * gamma^v at most 2 ** (none for a log of 0, nor for g at 1):
    # a bit proof of 1 lifts y = g * gamma^rho (1), the simulated branch (2)
    # and the real one gamma^w (1); a square proof C, W, K1 and K2 (8).  The
    # l1 round 2 adds to its 15 bit proofs (5 of 1, 4 ** each; 10 of 0, 4
    # each) the 4 posted slots' B (4 **: their A is the round-1 element, and
    # a plaintext of 0 or 1 takes no g **) and 4 links of 2 ** each, the
    # DH-tuple commitments.  C_j is its row's Horner chain, and a link reads
    # g^x_j as the posted slot's A and (h_pad / gamma)^x_j as ct_j.B / C_j,
    # so it raises no base to x_j
    pows = _prover_pows(monkeypatch)
    assert pows == {"prove_bit": 4, "prove_square": 8, "round2_generate": 72}, pows
    announce(
        8,
        f"gen monotone in m {['%.2f' % g for g in gens]}; "
        f"gen(m=32,B=2)={wide.gen_ms:.2f}ms > gen(m=1,B=32)={tall.gen_ms:.2f}ms; "
        f"verify linear in n (group ops n=2 {dict(small)}, n=8 exactly 4x); prover ** {pows}",
    )


def test_criterion_09_reduction_oracles():
    rng = np.random.default_rng(9)
    datasets = 20

    for _ in range(datasets):  # ID3 gain
        k, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        ps = rng.integers(0, 6, size=(n, k))
        qs = rng.integers(0, 6, size=(n, k))
        if ps.sum() + qs.sum() == 0:
            ps[0][0] = 1
        vectors = [encode_counts(np.vstack([p, q]).reshape(2, k), cap=200)[0] for p, q in zip(ps, qs)]
        split = decode_counts([sum(c) for c in zip(*vectors)], (2, k))
        gain = compute_gain(split.sum(axis=0), split)
        central = compute_gain(
            (ps.sum(axis=0) + qs.sum(axis=0)), [ps.sum(axis=0), qs.sum(axis=0)]
        )
        assert math.isclose(gain, central, abs_tol=1e-12)

    for _ in range(datasets):  # naive Bayes parameters
        k, values, n = 2, int(rng.integers(2, 4)), int(rng.integers(2, 5))
        tables = rng.integers(1, 5, size=(n, values, k))
        vectors = [encode_counts(t, cap=500)[0] for t in tables]
        tallied = decode_counts([sum(c) for c in zip(*vectors)], (values, k))
        priors, conds = nb_parameters(tallied.sum(axis=0), [tallied])
        pooled = tables.sum(axis=0)
        priors_c, conds_c = nb_parameters(pooled.sum(axis=0), [pooled])
        assert np.allclose(priors, priors_c) and np.allclose(conds[0], conds_c[0])

    for _ in range(datasets):  # LDA count matrices
        words, topics, n = int(rng.integers(2, 7)), int(rng.integers(2, 5)), int(rng.integers(2, 6))
        mats = rng.integers(0, 4, size=(n, words, topics))
        vectors = [encode_counts(m, cap=500)[0] for m in mats]
        tallied = decode_counts([sum(c) for c in zip(*vectors)], (words, topics))
        assert np.array_equal(tallied, mats.sum(axis=0))

    for _ in range(datasets):  # regression, exact integer data
        d, samples, n = int(rng.integers(1, 4)), 24, int(rng.integers(2, 5))
        X = rng.integers(-9, 10, size=(samples, d))
        Y = rng.integers(-30, 31, size=samples)
        parts = np.array_split(np.arange(samples), n)
        try:
            vectors = [encode_regression(X[idx], Y[idx], bound=10**9)[0] for idx in parts]
            beta = solve_beta([sum(c) for c in zip(*vectors)], d)
        except ZorroError:
            continue  # singular draw
        central, *_ = np.linalg.lstsq(X.astype(float), Y.astype(float), rcond=None)
        assert np.abs(beta - central).max() < 1e-9

    scale = 2**16
    for _ in range(datasets):  # CF gradients
        k, m, n = 2, int(rng.integers(2, 6)), int(rng.integers(2, 5))
        A = rng.normal(scale=0.3, size=(k, m))
        ratings = [rng.integers(0, 6, size=m) for _ in range(n)]
        vectors = [encode_cf_gradient(A, P, bound=10**9, scale=scale)[0] for P in ratings]
        tallied = np.array([sum(c) for c in zip(*vectors)], dtype=float).reshape(k, m) / scale
        central = sum(cf_gradient(A, P) for P in ratings)
        assert np.abs(tallied - central).max() <= 2 * n / scale
    announce(9, f"{datasets} pooled datasets per reduction match centralized computation")


def test_criterion_10_fixed_point_accuracy():
    rng = np.random.default_rng(10)
    samples = 400
    x = rng.uniform(0, 40, size=samples)
    y = 480.0 - 2.2 * x + rng.normal(0, 6.0, size=samples)
    X = np.column_stack([x, np.ones(samples)])
    beta_fp, *_ = np.linalg.lstsq(X, y, rcond=None)
    mse_fp = np.mean((X @ beta_fp - y) ** 2)
    parts = np.array_split(np.arange(samples), 4)
    vectors = [encode_regression(X[idx], y[idx], bound=10**9)[0] for idx in parts]
    beta = solve_beta([sum(c) for c in zip(*vectors)], d=2)
    ratio = np.mean((X @ beta - y) ** 2) / mse_fp
    assert ratio <= 1.15, f"floor: {ratio:.4f}"
    announce(10, f"floored-fit MSE within 15% of FP fit (+{100 * (ratio - 1):.1f}%)")


def test_criterion_11_ledger_mutations(tmp_path):
    path = tmp_path / "c11.ledger"
    header = LedgerHeader("mod41", bytes(range(16)), 3, 2, "l1", 4)
    ledger = Ledger(header, path=str(path))
    payload_rng = random.Random(11)
    for rnd in (1, 2):
        for party in range(3):
            ledger.append(rnd, party, payload_rng.randbytes(40))
    original = path.read_bytes()

    # map byte offset -> ledger line index
    line_of = []
    line = 0
    for byte in original:
        line_of.append(line)
        if byte == ord("\n"):
            line += 1

    rng = random.Random(1111)
    for trial in range(1000):
        buf = bytearray(original)
        pos = rng.randrange(len(buf))
        new = rng.randrange(256)
        while new == buf[pos]:
            new = rng.randrange(256)
        buf[pos] = new
        path.write_bytes(bytes(buf))
        expected = max(0, line_of[pos] - 1)  # header line maps to seq 0
        with pytest.raises(ChainBroken) as err:
            Ledger.load(str(path)).verify_chain()
        assert err.value.seq == expected, (
            f"trial {trial}: offset {pos} expected seq {expected}, got {err.value.seq}"
        )
    announce(11, "1000/1000 single-byte mutations detected at the correct seq")
