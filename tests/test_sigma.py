import dataclasses
import hashlib
import random

import pytest

from zorro.elgamal import Ciphertext, Keypair, encrypt_exp
from zorro.encoding import Reader
from zorro.errors import KeyMismatch, MalformedEncoding
from zorro import groups
from zorro.sigma import (
    BitProof,
    DhTupleProof,
    DlogProof,
    FsTranscript,
    SquareProof,
    _dh_commit,
    _dh_respond,
    _dlog_commit,
    _dlog_respond,
    _square_commit,
    _square_respond,
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


# -- completeness and targeted mutations ----------------------------------------


@pytest.mark.parametrize("group", [TOY, MOD], ids=lambda g: g.group_id)
def test_dlog_roundtrip(group):
    rng = random.Random(1)
    ctx = FsTranscript(b"dlog")
    for _ in range(20):
        a = group.random_scalar(rng)
        A = group.g ** a
        proof = prove_dlog(group, a, A, ctx, rng)
        assert verify_dlog(group, A, proof, ctx)


def test_dlog_mutations():
    rng = random.Random(2)
    ctx = FsTranscript(b"dlog")
    a = 7
    A = MOD.g ** a
    proof = prove_dlog(MOD, a, A, ctx, rng)
    assert not verify_dlog(MOD, A, dataclasses.replace(proof, s=(proof.s + 1) % MOD.q), ctx)
    assert not verify_dlog(MOD, A, dataclasses.replace(proof, K=proof.K * MOD.g), ctx)
    assert not verify_dlog(MOD, A, proof, FsTranscript(b"other"))
    assert not verify_dlog(MOD, A * MOD.g, proof, ctx)


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


@pytest.mark.parametrize("group", [TOY, MOD], ids=lambda g: g.group_id)
@pytest.mark.parametrize("m", [0, 1])
def test_bit_roundtrip(group, m):
    rng = random.Random(6)
    kp = Keypair.generate(group, rng)
    ctx = FsTranscript(b"bit")
    for _ in range(10):
        r = group.random_scalar(rng)
        ct = encrypt_exp(group, m, r, kp.pk)
        proof = prove_bit(group, m, r, ct, kp.pk, ctx, rng)
        assert verify_bit(group, ct, kp.pk, proof, ctx)


def test_bit_rejects_witness_misuse():
    rng = random.Random(7)
    kp = Keypair.generate(MOD, rng)
    ctx = FsTranscript(b"bit")
    r = MOD.random_scalar(rng)
    with pytest.raises(ValueError):
        prove_bit(MOD, 2, r, encrypt_exp(MOD, 2, r, kp.pk), kp.pk, ctx, rng)
    with pytest.raises(KeyMismatch):
        prove_bit(MOD, 0, r, encrypt_exp(MOD, 1, r, kp.pk), kp.pk, ctx, rng)


def test_bit_mutations():
    rng = random.Random(8)
    kp = Keypair.generate(MOD, rng)
    ctx = FsTranscript(b"bit")
    r = MOD.random_scalar(rng)
    ct = encrypt_exp(MOD, 1, r, kp.pk)
    proof = prove_bit(MOD, 1, r, ct, kp.pk, ctx, rng)
    for field in ("a1", "b1", "a2", "b2"):
        bad = dataclasses.replace(proof, **{field: getattr(proof, field) * MOD.g})
        assert not verify_bit(MOD, ct, kp.pk, bad, ctx)
    for field in ("d1", "d2", "r1", "r2"):
        bad = dataclasses.replace(proof, **{field: (getattr(proof, field) + 1) % MOD.q})
        assert not verify_bit(MOD, ct, kp.pk, bad, ctx)
    # proof for E[1] does not verify against E[0]
    other = encrypt_exp(MOD, 0, r, kp.pk)
    assert not verify_bit(MOD, other, kp.pk, proof, ctx)


@pytest.mark.parametrize("a", [3, -2, 0])
def test_square_roundtrip(a):
    rng = random.Random(9)
    kp = Keypair.generate(MOD, rng)
    ctx = FsTranscript(b"square")
    s_a, s_b = MOD.random_scalar(rng), MOD.random_scalar(rng)
    ct_a = encrypt_exp(MOD, a, s_a, kp.pk)
    ct_b = encrypt_exp(MOD, a * a, s_b, kp.pk)
    proof = prove_square(MOD, a, s_a, s_b, ct_a, ct_b, kp.pk, ctx, rng)
    assert verify_square(MOD, ct_a, ct_b, kp.pk, proof, ctx)


def test_square_challenge_hashes_g_after_pk():
    rng = random.Random(10)
    kp = Keypair.generate(MOD, rng)
    ctx = FsTranscript(b"square")
    s_a, s_b = MOD.random_scalar(rng), MOD.random_scalar(rng)
    ct_a = encrypt_exp(MOD, 4, s_a, kp.pk)
    ct_b = encrypt_exp(MOD, 16, s_b, kp.pk)
    proof = prove_square(MOD, 4, s_a, s_b, ct_a, ct_b, kp.pk, ctx, rng)
    C_a, C_b = proof.C_a, proof.C_b
    statement = (ct_a.A, ct_a.B, ct_b.A, ct_b.B, C_a.A, C_a.B, C_b.A, C_b.B)
    c = ctx.challenge(MOD, kp.pk, MOD.g, *statement)
    assert MOD.g ** proof.z_a == ct_a.A ** c * C_a.A
    assert c != ctx.challenge(MOD, kp.pk, *statement)


def test_square_rejects_non_square():
    rng = random.Random(11)
    kp = Keypair.generate(MOD, rng)
    ctx = FsTranscript(b"square")
    s_a, s_b = MOD.random_scalar(rng), MOD.random_scalar(rng)
    ct_a = encrypt_exp(MOD, 3, s_a, kp.pk)
    ct_b = encrypt_exp(MOD, 9, s_b, kp.pk)
    proof = prove_square(MOD, 3, s_a, s_b, ct_a, ct_b, kp.pk, ctx, rng)
    ct_bad = encrypt_exp(MOD, 8, s_b, kp.pk)
    assert not verify_square(MOD, ct_a, ct_bad, kp.pk, proof, ctx)
    with pytest.raises(KeyMismatch):
        prove_square(MOD, 3, s_a, s_b, ct_a, ct_bad, kp.pk, ctx, rng)
    for field, delta in (("v", 1), ("z_a", 1), ("z_b", 1)):
        bad = dataclasses.replace(proof, **{field: (getattr(proof, field) + delta) % MOD.q})
        assert not verify_square(MOD, ct_a, ct_b, kp.pk, bad, ctx)


# -- exhaustive soundness at toy scale ------------------------------------------
#
# In the 11-element group every (response, challenge) combination can be
# enumerated; the verification equations pin the commitments each one opens.
# For a false statement, no commitment may open under two distinct
# challenges: otherwise special soundness would extract a witness that does
# not exist.  A cheating prover's interactive success is therefore exactly
# the 1/q guessing probability, which the hash challenge makes negligible at
# production scale.


def test_bit_proof_for_two_single_challenge_exhaustive():
    kp = Keypair(3, TOY.g ** 3)
    ct = encrypt_exp(TOY, 2, 4, kp.pk)  # encrypts 2: both branches false
    x, y = ct.A, ct.B
    openable = {}
    for d1 in range(11):
        for d2 in range(11):
            for r1 in range(11):
                for r2 in range(11):
                    a1 = TOY.g ** r1 * x ** d1
                    b1 = kp.pk ** r1 * y ** d1
                    a2 = TOY.g ** r2 * x ** d2
                    b2 = kp.pk ** r2 * (y / TOY.g) ** d2
                    key = (a1.value, b1.value, a2.value, b2.value)
                    openable.setdefault(key, set()).add((d1 + d2) % 11)
    assert all(len(challenges) == 1 for challenges in openable.values())


def test_square_proof_for_non_square_single_challenge_exhaustive():
    kp = Keypair(5, TOY.g ** 5)
    ct_a = encrypt_exp(TOY, 3, 2, kp.pk)
    ct_b = encrypt_exp(TOY, 8, 6, kp.pk)  # 8 != 3^2 = 9 mod 11
    openable = {}
    for v in range(11):
        for z_a in range(11):
            for z_b in range(11):
                for c in range(11):
                    C_a = Ciphertext(
                        TOY.g ** z_a / ct_a.A ** c,
                        TOY.g ** v * kp.pk ** z_a / ct_a.B ** c,
                    )
                    C_b = Ciphertext(
                        ct_a.A ** v * TOY.g ** z_b / ct_b.A ** c,
                        ct_a.B ** v * kp.pk ** z_b / ct_b.B ** c,
                    )
                    key = (C_a.A.value, C_a.B.value, C_b.A.value, C_b.B.value)
                    openable.setdefault(key, set()).add(c)
    assert all(len(challenges) == 1 for challenges in openable.values())


def test_square_proof_true_statement_opens_all_challenges():
    # contrast: with a genuine square, one commitment answers every challenge
    kp = Keypair(5, TOY.g ** 5)
    rng = random.Random(16)
    ct_a = encrypt_exp(TOY, 3, 2, kp.pk)
    ct_b = encrypt_exp(TOY, 9, 6, kp.pk)
    state, (C_a, C_b) = _square_commit(TOY, ct_a, kp.pk, rng)
    for c in range(11):
        v, z_a, z_b = _square_respond(TOY, 3, 2, 6, state, c)
        assert TOY.g ** z_a == ct_a.A ** c * C_a.A
        assert TOY.g ** v * kp.pk ** z_a == ct_a.B ** c * C_a.B
        assert ct_a.A ** v * TOY.g ** z_b == ct_b.A ** c * C_b.A
        assert ct_a.B ** v * kp.pk ** z_b == ct_b.B ** c * C_b.B


# -- special soundness: two accepting transcripts extract the witness -----------


def test_dlog_extraction():
    rng = random.Random(12)
    a = 7
    k, K = _dlog_commit(TOY, rng)
    c1, c2 = 2, 9
    s1, s2 = _dlog_respond(TOY, a, k, c1), _dlog_respond(TOY, a, k, c2)
    extracted = (s1 - s2) * pow(c1 - c2, -1, TOY.q) % TOY.q
    assert extracted == a


def test_dh_extraction():
    rng = random.Random(13)
    w = 6
    h = TOY.g ** 4
    r, (a, b) = _dh_commit(TOY, TOY.g, h, rng)
    e1, e2 = 3, 8
    z1, z2 = _dh_respond(TOY, w, r, e1), _dh_respond(TOY, w, r, e2)
    extracted = (z1 - z2) * pow(e1 - e2, -1, TOY.q) % TOY.q
    assert extracted == w


def test_square_extraction():
    rng = random.Random(14)
    kp = Keypair(2, TOY.g ** 2)
    a, s_a, s_b = 4, 3, 8
    ct_a = encrypt_exp(TOY, a, s_a, kp.pk)
    state, _ = _square_commit(TOY, ct_a, kp.pk, rng)
    c1, c2 = 1, 6
    v1, *_ = _square_respond(TOY, a, s_a, s_b, state, c1)
    v2, *_ = _square_respond(TOY, a, s_a, s_b, state, c2)
    extracted = (v1 - v2) * pow(c1 - c2, -1, TOY.q) % TOY.q
    assert extracted == a % TOY.q


# -- serialization ----------------------------------------------------------------


def test_proof_serialization_roundtrips():
    rng = random.Random(15)
    kp = Keypair.generate(MOD, rng)
    ctx = FsTranscript(b"serial")
    a = MOD.random_scalar(rng)
    proofs = []
    proofs.append((prove_dlog(MOD, a, MOD.g ** a, ctx, rng), DlogProof))
    h = MOD.g ** 3
    proofs.append((prove_dh_tuple(MOD, 5, (MOD.g, h, MOD.g ** 5, h ** 5), ctx, rng), DhTupleProof))
    r = MOD.random_scalar(rng)
    ct = encrypt_exp(MOD, 1, r, kp.pk)
    proofs.append((prove_bit(MOD, 1, r, ct, kp.pk, ctx, rng), BitProof))
    s_a, s_b = MOD.random_scalar(rng), MOD.random_scalar(rng)
    ct_a = encrypt_exp(MOD, 3, s_a, kp.pk)
    ct_b = encrypt_exp(MOD, 9, s_b, kp.pk)
    proofs.append((prove_square(MOD, 3, s_a, s_b, ct_a, ct_b, kp.pk, ctx, rng), SquareProof))
    for proof, cls in proofs:
        data = proof.to_bytes(MOD)
        reader = Reader(data)
        assert cls.read_from(MOD, reader) == proof
        reader.expect_end()
        with pytest.raises(MalformedEncoding):
            cls.read_from(MOD, Reader(b"\xff" + data[1:]))
        with pytest.raises(MalformedEncoding):
            cls.read_from(MOD, Reader(data[:-1]))
