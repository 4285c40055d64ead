import dataclasses
import hashlib
import itertools
import random

import pytest

from zorro.encoding import Reader, Share
from zorro.errors import MalformedEncoding
from zorro import groups
from zorro.sigma import (
    BitProof,
    DhTupleProof,
    DlogProof,
    FsTranscript,
    SquareProof,
    _bit_branch,
    _dh_commitments,
    _dlog_commitment,
    _Logs,
    _square_commitments,
    folds,
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


# -- Fiat-Shamir transcript ----------------------------------------------------


def test_challenge_deterministic():
    A = MOD.g ** 5
    assert FsTranscript(b"tag").challenge(MOD, A, MOD.g) == FsTranscript(b"tag").challenge(
        MOD, A, MOD.g
    )
    # the byte layout: u32(len m) || m for m in [tag, group id, enc(e)...]
    msgs = [b"tag", b"mod41", MOD.encode_element(A), MOD.encode_element(MOD.g)]
    digest = hashlib.sha256(b"".join(len(m).to_bytes(4, "big") + m for m in msgs)).digest()
    assert FsTranscript(b"tag").challenge(MOD, A, MOD.g) == int.from_bytes(digest, "big") % MOD.q


def test_challenge_domain_separation():
    A = MOD.g ** 5
    assert FsTranscript(b"tag1").challenge(MOD, A) != FsTranscript(b"tag2").challenge(MOD, A)
    # element order is part of the input
    assert FsTranscript(b"t").challenge(MOD, A, MOD.g) != FsTranscript(b"t").challenge(
        MOD, MOD.g, A
    )


def test_challenge_below_order():
    for i in range(50):
        assert 0 <= FsTranscript(bytes([i])).challenge(TOY, TOY.g) < TOY.q


def test_child_context_extends_tag():
    base = FsTranscript(b"base")
    child = base.child(b"bit", 3)
    assert child.domain_tag == b"base/bit/3"
    assert base.challenge(MOD, MOD.g) != child.challenge(MOD, MOD.g)


# -- the challenge space [0, N), N = min(q, 2^128) --------------------------------


class _FixedChallenge(FsTranscript):
    """A transcript whose challenge is c whatever it hashes: the interactive
    protocol, where the verifier picks c."""

    __slots__ = ("c",)

    def __init__(self, c):
        super().__init__(b"fixed")
        self.c = c

    def challenge(self, group, *elements):
        return self.c


@pytest.mark.parametrize("group", [TOY, MOD, CURVE], ids=lambda g: g.group_id)
def test_challenges_are_the_digest_mod_n(group):
    # N is all of Z_q on the modular groups, whose challenges stay
    # int(digest) % q, and 2^128 on secp256k1, exactly where the fold runs
    N = group.challenge_space
    assert N == (1 << 128 if group is CURVE else group.q)
    assert folds(group) == (N == 1 << 128)
    for i in range(20):
        ctx = FsTranscript(bytes([i]))
        msgs = [ctx.domain_tag, group.group_id.encode(), group.encode_element(group.g)]
        digest = hashlib.sha256(b"".join(len(m).to_bytes(4, "big") + m for m in msgs)).digest()
        c = ctx.challenge(group, group.g)
        assert c == int.from_bytes(digest, "big") % N and 0 <= c < N
        if group is not CURVE:
            assert c == int.from_bytes(digest, "big") % group.q


@pytest.mark.parametrize("b", [0, 1])
def test_bit_special_soundness_over_the_challenge_space(b):
    # two accepting transcripts of one (y, a0, a1) under distinct c in [0, N)
    # differ in the share of at least one branch, and that branch opens
    # y / g^bit = gamma^rho: gamma^r (y / g^bit)^d = gamma^s (y / g^bit)^e
    N, q, rho = CURVE.challenge_space, CURVE.q, 123456789
    pairs = [(0, N - 1), (1, 2), (N - 1, N - 2), (5, 1 << 127)]
    for seed, (c, c2) in enumerate(pairs):
        first, second = (
            bit_proof(CURVE, b, rho, _FixedChallenge(e), random.Random(seed)) for e in (c, c2)
        )
        assert (first.y, first.a0, first.a1) == (second.y, second.a0, second.a1)
        assert verify_bit(CURVE, first, _FixedChallenge(c))
        assert verify_bit(CURVE, second, _FixedChallenge(c2))
        branches = [
            (first.d0, second.d0, first.r0, second.r0),
            ((c - first.d0) % N, (c2 - second.d0) % N, first.r1, second.r1),
        ]
        bit, (d, e, r, s) = next((k, t) for k, t in enumerate(branches) if t[0] != t[1])
        extracted = (s - r) * pow(d - e, -1, q) % q
        assert first.y / CURVE.g ** bit == CURVE.gamma ** extracted
        assert (bit, extracted) == (b, rho)


@pytest.mark.parametrize("v", [0, 1, 2])
def test_simulated_bit_transcripts_verify(v):
    # HVZK: given c, a share d0 drawn from [0, N), d1 = c - d0 mod N and
    # uniform responses make an accepting transcript without rho, for a
    # commitment to any value
    rng = random.Random(30 + v)
    N = CURVE.challenge_space
    y = pedersen(CURVE, v, CURVE.random_scalar(rng))
    for _ in range(4):
        c, d0 = CURVE.random_share(rng), CURVE.random_share(rng)
        r0, r1 = CURVE.random_scalar(rng), CURVE.random_scalar(rng)
        a0, a1 = _bit_branch(CURVE, y, 0, d0, r0), _bit_branch(CURVE, y, 1, (c - d0) % N, r1)
        assert verify_bit(CURVE, BitProof(y, a0, a1, d0, r0, r1), _FixedChallenge(c))


@pytest.mark.parametrize("b", [0, 1])
def test_a_simulated_branch_lifts_one_glv_half_of_g(b):
    # the simulated branch's g-exponent is -d_sim (b = 0: branch 1) or d_sim
    # (b = 1: branch 0), a share below 2^128, so one GLV half and at most 17
    # signed radix-256 entries of g's table; the real branch has none
    ctx = FsTranscript(b"entries")
    for seed in range(8):
        y, a0, a1 = prove_bit(CURVE, b, 99, ctx.child(seed), random.Random(seed)).logs
        sim, real = (a1, a0) if b == 0 else (a0, a1)
        assert min(sim.u, CURVE.q - sim.u) < CURVE.challenge_space
        assert 0 < len(CURVE._table_entries(CURVE.g, sim.u)) <= 17
        assert CURVE._table_entries(CURVE.g, real.u) == []


@pytest.mark.parametrize("group", [TOY, MOD, CURVE], ids=lambda g: g.group_id)
def test_a_bit_proof_posts_its_share_at_the_width_of_n(group):
    # d0 is written in the byte length of N - 1, 16 bytes on secp256k1 and a
    # scalar's width where N = q; a share outside [0, N) is refused by name
    rng = random.Random(31)
    proof = bit_proof(group, 1, group.random_scalar(rng), FsTranscript(b"share"), rng)
    width, E, S = Share.width(group), group.element_bytes, group.scalar_bytes
    assert width == (16 if group is CURVE else S)
    data = proof.to_bytes(group)
    assert len(data) == 3 * E + width + 2 * S == (179 if group is CURVE else len(data))
    assert data[3 * E:3 * E + width] == proof.d0.to_bytes(width, "big")
    for bad in (-1, group.challenge_space, proof.d0 + group.challenge_space):
        with pytest.raises(ValueError, match=r"^BitProof\.d0 = "):
            dataclasses.replace(proof, d0=bad).to_bytes(group)
    if group is not CURVE:  # 16 bytes hold no share past 2^128 - 1
        past = data[:3 * E] + group.challenge_space.to_bytes(width, "big") + data[3 * E + width:]
        with pytest.raises(MalformedEncoding, match="challenge share out of range"):
            BitProof.read_from(group, Reader(past))


# -- completeness and targeted mutations ----------------------------------------


@pytest.mark.parametrize("group", [TOY, MOD], ids=lambda g: g.group_id)
def test_dlog_roundtrip(group):
    rng = random.Random(1)
    ctx = FsTranscript(b"dlog")
    for m in (1, 2, 4):
        for _ in range(20):
            xs = [group.random_scalar(rng) for _ in range(m)]
            As = [group.g ** x for x in xs]
            proof = prove_dlog(group, xs, As, ctx, rng)
            assert verify_dlog(group, As, proof, ctx)


def test_dlog_mutations():
    rng = random.Random(2)
    ctx = FsTranscript(b"dlog")
    xs = [7, 11, 13]
    As = [MOD.g ** x for x in xs]
    proof = prove_dlog(MOD, xs, As, ctx, rng)
    assert verify_dlog(MOD, As, proof, ctx)
    assert not verify_dlog(MOD, As, dataclasses.replace(proof, s=(proof.s + 1) % MOD.q), ctx)
    assert not verify_dlog(MOD, As, dataclasses.replace(proof, K=proof.K * MOD.g), ctx)
    assert not verify_dlog(MOD, As, proof, FsTranscript(b"other"))
    assert not verify_dlog(MOD, As[:2], proof, ctx)
    assert not verify_dlog(MOD, [*As, MOD.g], proof, ctx)
    assert not verify_dlog(MOD, [As[0] * MOD.g, *As[1:]], proof, ctx)


def _toy_dlog_proof(seed):
    """A valid toy23 proof of two distinct exponents: (xs, As, proof, ctx)."""
    ctx = FsTranscript(b"dlog/toy")
    xs = [3, 8]
    As = [TOY.g ** x for x in xs]
    proof = prove_dlog(TOY, xs, As, ctx, random.Random(seed))
    assert verify_dlog(TOY, As, proof, ctx)
    return xs, As, proof, ctx


def test_dlog_binds_the_order_of_its_elements():
    xs, As, proof, ctx = _toy_dlog_proof(20)
    assert not verify_dlog(TOY, As[::-1], proof, ctx)
    # under one challenge c the swap shifts s by c(1 - c)(x_2 - x_1), nonzero
    # for every c but 0 and 1: the powers of c, not only the hash, bind order
    k = TOY.random_scalar(random.Random(20))  # the prover's first draw
    for c in range(2, TOY.q):
        s = (k + c * xs[0] + c * c * xs[1]) % TOY.q
        assert _dlog_commitment(TOY, As, s, c) == proof.K
        assert _dlog_commitment(TOY, As[::-1], s, c) != proof.K


def test_dlog_refuses_a_shifted_element():
    xs, As, proof, ctx = _toy_dlog_proof(21)
    for j in range(len(As)):
        shifted = [A * TOY.g if i == j else A for i, A in enumerate(As)]
        assert not verify_dlog(TOY, shifted, proof, ctx)


def test_dlog_at_one_element_is_the_schnorr_proof():
    ctx = FsTranscript(b"dlog/schnorr")
    for a in range(TOY.q):
        A = TOY.g ** a
        proof = prove_dlog(TOY, [a], [A], ctx, random.Random(a))
        k = TOY.random_scalar(random.Random(a))  # the prover's first draw
        c = ctx.challenge(TOY, A, proof.K)
        assert proof == DlogProof(TOY.g ** k, (k + c * a) % TOY.q)
        assert TOY.g ** proof.s == proof.K * A ** c
        assert verify_dlog(TOY, [A], proof, ctx)


@pytest.mark.parametrize("group", [TOY, MOD], ids=lambda g: g.group_id)
def test_dh_tuple_roundtrip(group):
    rng = random.Random(3)
    ctx = FsTranscript(b"dh")
    for _ in range(20):
        w = group.random_scalar(rng)
        h = group.g ** group.random_scalar(rng)
        if h == group.identity:
            continue
        st = (group.g, h, group.g ** w, h ** w)
        proof = prove_dh_tuple(group, w, st, ctx, rng)
        assert verify_dh_tuple(group, st, proof, ctx)


def test_dh_tuple_rejects_non_tuple():
    rng = random.Random(4)
    ctx = FsTranscript(b"dh")
    h = MOD.g ** 3
    w = 5
    st = (MOD.g, h, MOD.g ** w, h ** w)
    proof = prove_dh_tuple(MOD, w, st, ctx, rng)
    bad = (MOD.g, h, MOD.g ** 5, h ** 6)
    assert not verify_dh_tuple(MOD, bad, proof, ctx)
    assert not verify_dh_tuple(MOD, st, dataclasses.replace(proof, z=(proof.z + 1) % MOD.q), ctx)
    assert not verify_dh_tuple(MOD, st, proof, FsTranscript(b"elsewhere"))


def test_dh_tuple_degenerate_statement():
    rng = random.Random(5)
    ctx = FsTranscript(b"dh")
    st = (MOD.g, MOD.identity, MOD.g ** 2, MOD.identity)
    with pytest.raises(ValueError):
        prove_dh_tuple(MOD, 2, st, ctx, rng)
    fake = DhTupleProof(MOD.g, MOD.g, 0)
    assert not verify_dh_tuple(MOD, st, fake, ctx)


def pedersen(group, v, rho):
    """The commitment g^v * gamma^rho."""
    return group.multi_exp(((group.g, v), (group.gamma, rho)))


def bit_proof(group, b, rho, ctx, rng) -> BitProof:
    """prove_bit, finished by lift_proofs alone."""
    (proof,) = lift_proofs(group, [prove_bit(group, b, rho, ctx, rng)])
    return proof


def square_proof(group, a, s_a, s_b, ctx, rng) -> tuple:
    """prove_square, finished by lift_proofs alone: (C, W, proof)."""
    (proved,) = lift_proofs(group, [prove_square(group, a, s_a, s_b, ctx, rng)])
    return proved


@pytest.mark.parametrize("group", [TOY, MOD, CURVE], ids=lambda g: g.group_id)
@pytest.mark.parametrize("b", [0, 1])
def test_bit_roundtrip(group, b):
    # the proof holds the digit it proves, lifted from the logs: the
    # commitment g^b * gamma^rho computed from elements
    rng = random.Random(6)
    ctx = FsTranscript(b"bit")
    for _ in range(10):
        rho = group.random_scalar(rng)
        proof = bit_proof(group, b, rho, ctx, rng)
        assert proof.y == pedersen(group, b, rho)
        assert verify_bit(group, proof, ctx)


def test_bit_rejects_witness_misuse():
    rng = random.Random(7)
    ctx = FsTranscript(b"bit")
    with pytest.raises(ValueError):
        prove_bit(MOD, 2, MOD.random_scalar(rng), ctx, rng)


def test_bit_mutations():
    rng = random.Random(8)
    ctx = FsTranscript(b"bit")
    rho = MOD.random_scalar(rng)
    proof = bit_proof(MOD, 1, rho, ctx, rng)
    for field in ("y", "a0", "a1"):
        bad = dataclasses.replace(proof, **{field: getattr(proof, field) * MOD.g})
        assert not verify_bit(MOD, bad, ctx)
    for field in ("d0", "r0", "r1"):  # d1 is c - d0, not posted
        bad = dataclasses.replace(proof, **{field: (getattr(proof, field) + 1) % MOD.q})
        assert not verify_bit(MOD, bad, ctx)
    # the proof for a commitment to 1 does not verify for one to 0 or to 2
    for v in (0, 2):
        assert not verify_bit(MOD, dataclasses.replace(proof, y=pedersen(MOD, v, rho)), ctx)
    assert not verify_bit(MOD, proof, FsTranscript(b"other"))


@pytest.mark.parametrize("group", [TOY, MOD, CURVE], ids=lambda g: g.group_id)
@pytest.mark.parametrize("a", [3, -2, 0])
def test_square_roundtrip(group, a):
    rng = random.Random(9)
    ctx = FsTranscript(b"square")
    s_a, s_b = group.random_scalar(rng), group.random_scalar(rng)
    C, W, proof = square_proof(group, a, s_a, s_b, ctx, rng)
    assert C == pedersen(group, a, s_a)
    assert W == pedersen(group, a * a, s_b)
    assert verify_square(group, C, W, proof, ctx)


def test_square_challenge_hashes_the_statement_then_the_commitments():
    rng = random.Random(10)
    ctx = FsTranscript(b"square")
    s_a, s_b = MOD.random_scalar(rng), MOD.random_scalar(rng)
    C, W, proof = square_proof(MOD, 4, s_a, s_b, ctx, rng)
    c = ctx.challenge(MOD, C, W, proof.K1, proof.K2)
    assert pedersen(MOD, proof.z1, proof.z2) == C ** c * proof.K1
    assert C ** proof.z1 * MOD.gamma ** proof.z3 == W ** c * proof.K2
    assert c != ctx.challenge(MOD, W, C, proof.K1, proof.K2)


def test_square_rejects_non_square():
    rng = random.Random(11)
    ctx = FsTranscript(b"square")
    s_a, s_b = MOD.random_scalar(rng), MOD.random_scalar(rng)
    C, W, proof = square_proof(MOD, 3, s_a, s_b, ctx, rng)
    assert not verify_square(MOD, C, pedersen(MOD, 8, s_b), proof, ctx)
    assert not verify_square(MOD, C, W * MOD.g, proof, ctx)
    assert not verify_square(MOD, C * MOD.g, W, proof, ctx)
    for field in ("z1", "z2", "z3"):
        bad = dataclasses.replace(proof, **{field: (getattr(proof, field) + 1) % MOD.q})
        assert not verify_square(MOD, C, W, bad, ctx)
    for field in ("K1", "K2"):
        bad = dataclasses.replace(proof, **{field: getattr(proof, field) * MOD.gamma})
        assert not verify_square(MOD, C, W, bad, ctx)


# -- exhaustive special soundness at toy scale -----------------------------------
#
# In the 11-element group every (response, challenge) combination can be
# enumerated, and the log of gamma to base g is known, so every statement
# about a Pedersen commitment is true of some opening: what binds a prover
# is only that nobody knows log_gamma(g).  These tests check that binding
# is all it takes: any two accepting transcripts that share commitments and
# differ in challenge extract, for a commitment to a non-bit or a non-square,
# a second opening of it, hence log_gamma(g).  So a prover that can answer
# two challenges of such a statement computes that log, and a hash
# challenge leaves a prover that cannot a 1/q chance.

Y_OF_TWO = pedersen(TOY, 2, 4)  # a digit committing to 2


def _inverse(k):
    return pow(k % TOY.q, -1, TOY.q)


def test_bit_proof_of_a_two_extracts_log_gamma_g_exhaustive():
    y, q = Y_OF_TWO, TOY.q
    transcripts = {}
    for d0 in range(q):
        for d1 in range(q):
            for r0 in range(q):
                for r1 in range(q):
                    a0 = _bit_branch(TOY, y, 0, d0, r0)
                    a1 = _bit_branch(TOY, y, 1, d1, r1)
                    transcripts.setdefault((a0.value, a1.value), []).append((d0, d1, r0, r1))
    extracted = 0
    for opened in transcripts.values():
        d0, d1, r0, r1 = opened[0]
        for e0, e1, s0, s1 in opened:
            if (e0 + e1) % q == (d0 + d1) % q:
                continue
            # a branch whose challenges differ opens y / g^bit = gamma^rho
            bit, (d, r, e, s) = (0, (d0, r0, e0, s0)) if e0 != d0 else (1, (d1, r1, e1, s1))
            rho = (s - r) * _inverse(d - e) % q
            assert y / TOY.g ** bit == TOY.gamma ** rho
            # y = g^2 * gamma^4 = g^bit * gamma^rho: g^(2 - bit) = gamma^(rho - 4)
            assert TOY.g == TOY.gamma ** ((rho - 4) * _inverse(2 - bit))
            extracted += 1
    assert extracted == len(transcripts) * (q * q - q)


def test_square_proof_for_a_non_square_extracts_log_gamma_g_exhaustive():
    C, W, q = pedersen(TOY, 3, 2), pedersen(TOY, 8, 6), TOY.q  # 8 is no square mod 11
    transcripts = {}
    for z1 in range(q):
        for z2 in range(q):
            for z3 in range(q):
                for c in range(q):
                    K1, K2 = _square_commitments(TOY, C, W, z1, z2, z3, c)
                    transcripts.setdefault((K1.value, K2.value), []).append((z1, z2, z3, c))
    extracted = 0
    for opened in transcripts.values():
        first = opened[0]
        for other in opened:
            if other[3] == first[3]:
                continue
            inv = _inverse(first[3] - other[3])
            a, s_a, t = ((u - v) * inv % q for u, v in zip(first[:3], other[:3]))
            # C opens to (a, s_a) and W = C^a * gamma^t: W opens to a^2 as well as to 8
            assert C == pedersen(TOY, a, s_a) and W == C ** a * TOY.gamma ** t
            assert TOY.g == TOY.gamma ** ((a * s_a + t - 6) * _inverse(8 - a * a))
            extracted += 1
    assert extracted == len(transcripts) * (q * q - q)


def test_square_proof_true_statement_opens_all_challenges():
    # contrast: with a genuine square, one commitment answers every challenge
    rng = random.Random(16)
    a, s_a, s_b = 3, 2, 6
    C, W = pedersen(TOY, a, s_a), pedersen(TOY, 9, s_b)
    k1, k2, k3 = (TOY.random_scalar(rng) for _ in range(3))
    K = _square_commitments(TOY, C, W, k1, k2, k3, 0)
    for c in range(11):
        z1, z2, z3 = (k1 + c * a) % 11, (k2 + c * s_a) % 11, (k3 + c * (s_b - a * s_a)) % 11
        assert _square_commitments(TOY, C, W, z1, z2, z3, c) == K
        assert pedersen(TOY, z1, z2) == C ** c * K[0]
        assert C ** z1 * TOY.gamma ** z3 == W ** c * K[1]


# -- special soundness: two accepting transcripts extract the witness -----------
#
# The prover's commitment is its relation's commitment function at challenge
# 0; the honest response to any challenge must give that commitment back.


def _interpolate(points, q):
    """The coefficients, constant first, of the polynomial of degree
    len(points) - 1 mod q through the (c, s) points: Gauss-Jordan on the
    Vandermonde system."""
    rows = [[pow(c, i, q) for i in range(len(points))] + [s] for c, s in points]
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col] % q)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, q)
        rows[col] = [v * inv % q for v in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(v - f * w) % q for v, w in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


def test_dlog_extraction():
    # m = 2: every three accepting transcripts with one K and distinct c
    # solve for (k, x_1, x_2), the responses found by search, not computed
    k, xs = 5, [3, 8]
    As = [TOY.g ** x for x in xs]
    K = _dlog_commitment(TOY, As, k, 0)
    assert K == TOY.g ** k
    accepting = {}
    for c in range(TOY.q):
        (s,) = [s for s in range(TOY.q) if _dlog_commitment(TOY, As, s, c) == K]
        accepting[c] = s
    for cs in itertools.combinations(range(TOY.q), 3):
        assert _interpolate([(c, accepting[c]) for c in cs], TOY.q) == [k, *xs]


def test_dh_extraction():
    rng = random.Random(13)
    w = 6
    h = TOY.g ** 4
    statement = (TOY.g, h, TOY.g ** w, h ** w)
    r = TOY.random_scalar(rng)
    commitments = _dh_commitments(TOY, statement, r, 0)
    e1, e2 = 3, 8
    z1, z2 = (r + e1 * w) % TOY.q, (r + e2 * w) % TOY.q
    assert _dh_commitments(TOY, statement, z1, e1) == commitments
    assert _dh_commitments(TOY, statement, z2, e2) == commitments
    extracted = (z1 - z2) * pow(e1 - e2, -1, TOY.q) % TOY.q
    assert extracted == w


def test_square_extraction():
    rng = random.Random(14)
    a, s_a, s_b = 4, 3, 8
    C, W = pedersen(TOY, a, s_a), pedersen(TOY, a * a, s_b)
    k1, k2, k3 = (TOY.random_scalar(rng) for _ in range(3))
    commitments = _square_commitments(TOY, C, W, k1, k2, k3, 0)
    c1, c2 = 1, 6
    responses = []
    for c in (c1, c2):
        z = (k1 + c * a) % 11, (k2 + c * s_a) % 11, (k3 + c * (s_b - a * s_a)) % 11
        assert _square_commitments(TOY, C, W, *z, c) == commitments
        responses.append(z)
    inv = pow(c1 - c2, -1, TOY.q)
    extracted = [(u - v) * inv % TOY.q for u, v in zip(*responses)]
    assert extracted == [a, s_a, (s_b - a * s_a) % TOY.q]


# -- provers' evaluation on discrete logs ----------------------------------------
#
# A prover that knows the logs of every base to g and gamma evaluates a
# commitment function on _Logs(group) and lifts each result with
# group.lift, g^u * gamma^v; that must be the element the same function
# gives on the group.

COMMITMENT_FUNCTIONS = {
    # name: (number of bases, number of scalars, the function on (view, bases, scalars))
    "dlog": (2, 2, lambda G, b, s: _dlog_commitment(G, b, s[0], s[1])),
    "dh_tuple": (4, 2, lambda G, b, s: _dh_commitments(G, b, s[0], s[1])),
    "bit_branch_0": (1, 2, lambda G, b, s: _bit_branch(G, b[0], 0, s[0], s[1])),
    "bit_branch_1": (1, 2, lambda G, b, s: _bit_branch(G, b[0], 1, s[0], s[1])),
    "square": (2, 4, lambda G, b, s: _square_commitments(G, b[0], b[1], *s)),
}


def _agrees_on_logs(group, name, values):
    """f(_Logs(group)) lifted equals f(group) at bases g^u * gamma^v, the
    (u, v) taken in pairs from values, and the scalars that follow them."""
    k, count, f = COMMITMENT_FUNCTIONS[name]
    logs_of = [values[2 * i:2 * i + 2] for i in range(k)]
    scalars = values[2 * k:2 * k + count]
    logs = _Logs(group)
    on_logs = f(logs, tuple(logs.at(u, v) for u, v in logs_of), scalars)
    on_elements = f(group, tuple(pedersen(group, u, v) for u, v in logs_of), scalars)
    if not isinstance(on_logs, tuple):
        on_logs, on_elements = (on_logs,), (on_elements,)
    return group.lift([(P.u, P.v) for P in on_logs]) == list(on_elements)


def _width(name):
    k, count, _ = COMMITMENT_FUNCTIONS[name]
    return 2 * k + count


@pytest.mark.parametrize("name", COMMITMENT_FUNCTIONS)
def test_logs_agree_with_elements_on_every_toy_scalar_pair(name):
    q = TOY.q
    for u in range(q):
        for v in range(q):
            # every pair (u, v), and a third value from both, in every slot
            pattern = (u, v, (u * v + 1) % q)
            values = [pattern[i % 3] for i in range(_width(name))]
            assert _agrees_on_logs(TOY, name, values), (u, v)


@pytest.mark.parametrize("group", [MOD, groups.prod_group()], ids=lambda g: g.group_id)
@pytest.mark.parametrize("name", COMMITMENT_FUNCTIONS)
def test_logs_agree_with_elements_on_seeded_scalars(group, name):
    rng = random.Random(17)
    q = group.q
    width = _width(name)
    rows = [[0] * width, [q - 1] * width, [0, q - 1] * width, [q - 1, 1] * width]
    rows += [[group.random_scalar(rng) for _ in range(width)] for _ in range(4)]
    for row in rows:
        assert _agrees_on_logs(group, name, row[:width]), row


def test_logs_lift_commitments_through_g_and_gamma():
    logs = _Logs(MOD)
    assert logs.g == logs.at(1) and logs.gamma == logs.at(0, 1)
    assert logs.at(MOD.q + 3, -1) == logs.at(3, MOD.q - 1)
    assert logs.at(5, 2) ** 3 == logs.at(15, 6)
    assert MOD.lift([(P.u, P.v) for P in (logs.at(0), logs.at(2, 1), logs.g)]) == [
        MOD.identity, MOD.g ** 2 * MOD.gamma, MOD.g
    ]


def test_pending_proofs_finish_in_order_after_one_lift(monkeypatch):
    # a batch draws each proof's nonces when it is built, so the batch
    # finishes to the proofs each would give lifted alone, from one
    # group.lift call of every proof's logs in order
    ctx, s_a, s_b = FsTranscript(b"batch"), 5, 7
    make = [
        lambda rng: prove_bit(CURVE, 1, 11, ctx.child(0), rng),
        lambda rng: prove_square(CURVE, 3, s_a, s_b, ctx.child(1), rng),
        lambda rng: prove_bit(CURVE, 0, 13, ctx.child(2), rng),
    ]
    rng = random.Random(3)
    alone = [lift_proofs(CURVE, [f(rng)])[0] for f in make]
    lift, calls = CURVE.lift, []
    monkeypatch.setattr(CURVE, "lift", lambda pairs: calls.append(len(pairs)) or lift(pairs))
    rng = random.Random(3)
    assert lift_proofs(CURVE, [f(rng) for f in make]) == alone
    assert calls == [3 + 4 + 3]
    assert lift_proofs(CURVE, []) == [] and calls == [10, 0]
    assert verify_bit(CURVE, alone[0], ctx.child(0))
    assert verify_square(CURVE, *alone[1], ctx.child(1))


# -- serialization ----------------------------------------------------------------


def test_proof_serialization_roundtrips():
    rng = random.Random(15)
    ctx = FsTranscript(b"serial")
    a = MOD.random_scalar(rng)
    proofs = []
    proofs.append((prove_dlog(MOD, [a], [MOD.g ** a], ctx, rng), DlogProof))
    h = MOD.g ** 3
    proofs.append((prove_dh_tuple(MOD, 5, (MOD.g, h, MOD.g ** 5, h ** 5), ctx, rng), DhTupleProof))
    proofs.append((bit_proof(MOD, 1, MOD.random_scalar(rng), ctx, rng), BitProof))
    s_a, s_b = MOD.random_scalar(rng), MOD.random_scalar(rng)
    proofs.append((square_proof(MOD, 3, s_a, s_b, ctx, rng)[2], SquareProof))
    for proof, cls in proofs:
        data = proof.to_bytes(MOD)
        reader = Reader(data)
        assert cls.read_from(MOD, reader) == proof
        reader.expect_end()
        with pytest.raises(MalformedEncoding):  # the first element's top byte, past p
            cls.read_from(MOD, Reader(b"\xff" + data[1:]))
        with pytest.raises(MalformedEncoding):
            cls.read_from(MOD, Reader(data[:-1]))
