import dataclasses
import functools
import random

import pytest

from zorro import groups
from zorro.elgamal import Ciphertext, Keypair, encrypt_exp, hom_mul
from zorro.encoding import Reader
from zorro.errors import BoundExceeded, MalformedEncoding, NegativeEntry
from zorro.rangeproof import (
    BoundPolicy,
    L1RangeProof,
    L2RangeProof,
    _build_l1,
    _digit_randomness,
    _link_proof,
    _prove_digits,
    bits_of,
    prove_l1,
    prove_l2,
    verify_l1,
    verify_l2,
    verify_reencryption_link,
)
from zorro.sigma import DhTupleProof, FsTranscript

TOY = groups.toy_group()
MOD = groups.test_group()


def make_keys(group, m, rng):
    """Randomness, pad keys and a long-term keypair for a standalone bundle."""
    x = [group.random_scalar(rng) for _ in range(m)]
    kp = Keypair.generate(group, rng)
    while True:
        pads = [group.g ** group.random_scalar(rng) for _ in range(m)]
        if all(h != kp.pk for h in pads):
            return x, pads, kp


def posted(group, values, x, pads):
    return [encrypt_exp(group, values[j], x[j], pads[j]) for j in range(len(values))]


# -- policy ---------------------------------------------------------------------


def test_policy_digit_counts():
    assert BoundPolicy.l1(3).L == 2 and BoundPolicy.l1(3).effective_bound == 3
    assert BoundPolicy.l1(4).L == 3 and BoundPolicy.l1(4).effective_bound == 7
    assert BoundPolicy.l2(5).L == 5 and BoundPolicy.l2(5).effective_bound == 31
    assert BoundPolicy.l2(2).L == 3
    assert BoundPolicy("none", 5).L == 0


def test_policy_validation():
    with pytest.raises(ValueError):
        BoundPolicy("l3", 2)
    with pytest.raises(ValueError):
        BoundPolicy.l1(0)
    with pytest.raises(ValueError, match="positive"):
        BoundPolicy("none", 0)


def test_policy_windows():
    w = BoundPolicy.l1(3).tally_window(4)
    assert (w.lo, w.hi) == (0, 12)
    w = BoundPolicy.l2(5).tally_window(2)
    assert (w.lo, w.hi) == (-10, 10)  # isqrt(31) = 5 per party
    w = BoundPolicy("none", 5).tally_window(3)
    assert (w.lo, w.hi) == (0, 15)  # policy none proves nothing: B alone sets it


def test_policy_refuses_a_bound_beyond_u64():
    assert BoundPolicy.l1(2**64 - 1).B == 2**64 - 1
    for kind in ("l1", "l2", "none"):
        with pytest.raises(ValueError, match="u64"):
            BoundPolicy(kind, 2**64)


def test_bits_of():
    assert bits_of(25, 5) == [1, 0, 0, 1, 1]
    assert bits_of(0, 3) == [0, 0, 0]
    with pytest.raises(ValueError):
        bits_of(8, 3)
    with pytest.raises(ValueError):
        bits_of(-1, 3)


# -- re-encryption link ------------------------------------------------------------


def test_link_roundtrip():
    rng = random.Random(2)
    x, pads, kp = make_keys(MOD, 1, rng)
    ct = encrypt_exp(MOD, 3, x[0], pads[0])
    ctx = FsTranscript(b"link")
    ct_star = encrypt_exp(MOD, 3, x[0], kp.pk)
    proof = _link_proof(MOD, ct, ct_star.B, x[0], pads[0], kp.pk, ctx, rng)
    assert ct_star.A == ct.A
    assert verify_reencryption_link(MOD, ct, ct_star.B, pads[0], kp.pk, proof, ctx)


def test_link_detects_plaintext_swap():
    rng = random.Random(3)
    x, pads, kp = make_keys(MOD, 1, rng)
    ct = encrypt_exp(MOD, 3, x[0], pads[0])
    ctx = FsTranscript(b"link")
    # re-encryption of a different plaintext with the same randomness
    ct_star = encrypt_exp(MOD, 4, x[0], kp.pk)
    honest_B = encrypt_exp(MOD, 3, x[0], kp.pk).B
    proof = _link_proof(MOD, ct, honest_B, x[0], pads[0], kp.pk, ctx, rng)
    assert not verify_reencryption_link(MOD, ct, ct_star.B, pads[0], kp.pk, proof, ctx)
    # a prover that links the swapped plaintext states a false tuple
    proof = _link_proof(MOD, ct, ct_star.B, x[0], pads[0], kp.pk, ctx, rng)
    assert not verify_reencryption_link(MOD, ct, ct_star.B, pads[0], kp.pk, proof, ctx)


def test_link_degenerate_keys():
    rng = random.Random(4)
    kp = Keypair.generate(MOD, rng)
    ctx = FsTranscript(b"link")
    ct = encrypt_exp(MOD, 3, 5, kp.pk)
    with pytest.raises(ValueError):
        _link_proof(MOD, ct, ct.B, 5, kp.pk, kp.pk, ctx, rng)


def test_link_verifier_refuses_degenerate_keys():
    # with h_pad = h_i the DH base is the identity, and this proof satisfies
    # both equations; verify_dh_tuple's identity-base check refuses it
    rng = random.Random(4)
    kp = Keypair.generate(MOD, rng)
    x, r = 5, 9
    ct = encrypt_exp(MOD, 3, x, kp.pk)
    ctx = FsTranscript(b"link")
    a, b = MOD.g ** r, MOD.identity
    e = ctx.challenge(MOD, MOD.g, MOD.identity, ct.A, MOD.identity, a, b)
    proof = DhTupleProof(a, b, (r + e * x) % MOD.q)
    assert not verify_reencryption_link(MOD, ct, ct.B, kp.pk, kp.pk, proof, ctx)


def test_link_requires_matching_first_component():
    # the link proves the posted ct.A, which is also E*[t]'s first component:
    # no bundle posts another
    rng = random.Random(5)
    x, pads, kp = make_keys(MOD, 1, rng)
    ctx = FsTranscript(b"link")
    ct_star = encrypt_exp(MOD, 3, x[0], kp.pk)
    ct = encrypt_exp(MOD, 3, x[0], pads[0])
    proof = _link_proof(MOD, ct, ct_star.B, x[0], pads[0], kp.pk, ctx, rng)
    other = encrypt_exp(MOD, 3, (x[0] + 1) % MOD.q, pads[0])
    assert not verify_reencryption_link(MOD, other, ct_star.B, pads[0], kp.pk, proof, ctx)


# -- L2 bundle ----------------------------------------------------------------------


def test_l2_boundary_case():
    # 3^2 + 4^2 = 25 = B^2 exactly
    rng = random.Random(6)
    policy = BoundPolicy.l2(5)
    x, pads, kp = make_keys(MOD, 2, rng)
    cts = posted(MOD, [3, 4], x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, cts, [3, 4], x, pads, kp, policy, ctx, rng)
    assert verify_l2(MOD, cts, proof, policy, pads, ctx) == (True, None)


def test_l2_zero_vector():
    rng = random.Random(7)
    policy = BoundPolicy.l2(5)
    x, pads, kp = make_keys(MOD, 3, rng)
    cts = posted(MOD, [0, 0, 0], x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, cts, [0, 0, 0], x, pads, kp, policy, ctx, rng)
    assert verify_l2(MOD, cts, proof, policy, pads, ctx) == (True, None)


def test_l2_prover_refuses_over_bound():
    rng = random.Random(8)
    policy = BoundPolicy.l2(5)
    x, pads, kp = make_keys(MOD, 2, rng)
    with pytest.raises(BoundExceeded):
        prove_l2(MOD, posted(MOD, [6, 0], x, pads), [6, 0], x, pads, kp, policy,
                 FsTranscript(b"l2"), rng)


@pytest.mark.parametrize("m", [1, 3, 5, 6, 8], ids=["m=1", "m<L", "m=L", "m=L+1", "m>L"])
def test_l2_bundle_holds_exactly_m_squares(m):
    # L = 5: an m below, at or above L gets exactly m squares, and the digits'
    # randomness recomposes to theirs, so the identity is one of ciphertexts
    rng = random.Random(9)
    policy = BoundPolicy.l2(5)
    values = [j % 3 - 1 for j in range(m)]
    x, pads, kp = make_keys(MOD, m, rng)
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, cts, values, x, pads, kp, policy, ctx, rng)
    runs = (proof.square_cts, proof.square_proofs, proof.reencrypted_B, proof.links)
    assert [len(run) for run in runs] == [m] * 4
    assert verify_l2(MOD, cts, proof, policy, pads, ctx) == (True, None)
    # prod_j E[w_j] == prod_l E[s_l]^(2^l), both components
    squares = functools.reduce(hom_mul, proof.square_cts)
    digits = functools.reduce(hom_mul, (
        Ciphertext(d.A ** (1 << l), d.B ** (1 << l)) for l, d in enumerate(proof.digit_cts)
    ))
    assert squares == digits


def test_l2_signed_entries():
    rng = random.Random(10)
    policy = BoundPolicy.l2(5)
    x, pads, kp = make_keys(MOD, 2, rng)
    cts = posted(MOD, [-3, 4], x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, cts, [-3, 4], x, pads, kp, policy, ctx, rng)
    assert verify_l2(MOD, cts, proof, policy, pads, ctx) == (True, None)


def test_l2_reason_codes():
    rng = random.Random(11)
    policy = BoundPolicy.l2(5)
    x, pads, kp = make_keys(MOD, 2, rng)
    values = [3, 4]
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, cts, values, x, pads, kp, policy, ctx, rng)

    # re-randomizing one w ciphertext breaks the exact consistency identity
    cts_w = list(proof.square_cts)
    cts_w[0] = hom_mul(cts_w[0], encrypt_exp(MOD, 0, 1, kp.pk))
    bad = dataclasses.replace(proof, square_cts=tuple(cts_w))
    assert verify_l2(MOD, cts, bad, policy, pads, ctx) == (False, "consistency")

    # swapping the posted ciphertext after proving breaks the link
    cts_swapped = [encrypt_exp(MOD, 9, x[0], pads[0]), cts[1]]
    assert verify_l2(MOD, cts_swapped, proof, policy, pads, ctx) == (False, "tuple")

    # a digit proof verified under the wrong slot context fails
    digit_proofs = list(proof.digit_proofs)
    digit_proofs[0], digit_proofs[1] = digit_proofs[1], digit_proofs[0]
    digit_cts = list(proof.digit_cts)
    digit_cts[0], digit_cts[1] = digit_cts[1], digit_cts[0]
    bad = dataclasses.replace(
        proof, digit_proofs=tuple(digit_proofs), digit_cts=tuple(digit_cts)
    )
    result = verify_l2(MOD, cts, bad, policy, pads, ctx)
    assert result[0] is False and result[1] in ("consistency", "bit")

    # a bundle whose digit runs do not fit the policy's L is flagged before any crypto
    assert verify_l2(MOD, cts, proof, BoundPolicy.l2(6), pads, ctx) == (False, "malformed")


def test_l2_square_check_catches_wrong_square():
    # force-construct a bundle claiming w = T^2 + 1 by patching the square
    # ciphertext and re-proving the (true) square relation on a lie
    rng = random.Random(12)
    policy = BoundPolicy.l2(5)
    x, pads, kp = make_keys(MOD, 2, rng)
    values = [3, 4]
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, cts, values, x, pads, kp, policy, ctx, rng)
    cts_w = list(proof.square_cts)
    cts_w[0] = hom_mul(cts_w[0], encrypt_exp(MOD, 1, 0, kp.pk))  # now encrypts 10
    bad = dataclasses.replace(proof, square_cts=tuple(cts_w))
    ok, reason = verify_l2(MOD, cts, bad, policy, pads, ctx)
    assert not ok and reason in ("consistency", "square")


def test_l2_square_check_isolated():
    # shift plaintexts between two w slots with zero-randomness factors: the
    # slot-product (hence the consistency check) is unchanged, so the forgery
    # must be caught by the square proofs themselves
    rng = random.Random(23)
    policy = BoundPolicy.l2(5)
    x, pads, kp = make_keys(MOD, 2, rng)
    values = [3, 4]
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, cts, values, x, pads, kp, policy, ctx, rng)
    cts_w = list(proof.square_cts)
    cts_w[0] = hom_mul(cts_w[0], encrypt_exp(MOD, 1, 0, kp.pk))   # 9 -> 10
    cts_w[1] = hom_mul(cts_w[1], encrypt_exp(MOD, -1, 0, kp.pk))  # 16 -> 15
    bad = dataclasses.replace(proof, square_cts=tuple(cts_w))
    assert verify_l2(MOD, cts, bad, policy, pads, ctx) == (False, "square")


def test_l2_context_binding():
    rng = random.Random(13)
    policy = BoundPolicy.l2(5)
    x, pads, kp = make_keys(MOD, 2, rng)
    cts = posted(MOD, [1, 2], x, pads)
    proof = prove_l2(MOD, cts, [1, 2], x, pads, kp, policy, FsTranscript(b"session-a"), rng)
    ok, reason = verify_l2(MOD, cts, proof, policy, pads, FsTranscript(b"session-b"))
    assert not ok and reason == "tuple"


def test_l2_serialization():
    rng = random.Random(14)
    policy = BoundPolicy.l2(5)
    x, pads, kp = make_keys(MOD, 2, rng)
    cts = posted(MOD, [3, 4], x, pads)
    proof = prove_l2(MOD, cts, [3, 4], x, pads, kp, policy, FsTranscript(b"l2"), rng)
    data = proof.to_bytes(MOD)
    reader = Reader(data)
    assert L2RangeProof.read_from(MOD, reader, 2, policy.L) == proof
    reader.expect_end()
    # h_i, then only the B of each slot's E*[T_j]: its A is ct_j.A
    assert data.startswith(b"".join(map(MOD.encode_element, (proof.h_i, *proof.reencrypted_B))))
    with pytest.raises(MalformedEncoding):
        L2RangeProof.read_from(MOD, Reader(data[:-3]), 2, policy.L)


# -- L1 bundle -----------------------------------------------------------------------


def test_l1_ballot_cases():
    rng = random.Random(15)
    policy = BoundPolicy.l1(3)
    x, pads, kp = make_keys(MOD, 3, rng)
    cts = posted(MOD, [3, 0, 0], x, pads)
    ctx = FsTranscript(b"l1")
    proof = prove_l1(MOD, cts, [3, 0, 0], x, pads, kp, policy, ctx, rng)
    assert verify_l1(MOD, cts, proof, policy, pads, ctx) == (True, None)
    with pytest.raises(BoundExceeded):
        prove_l1(MOD, cts, [2, 2, 0], x, pads, kp, policy, ctx, rng)
    with pytest.raises(NegativeEntry):
        prove_l1(MOD, cts, [-1, 1, 0], x, pads, kp, policy, ctx, rng)


def test_l1_forced_overflow_rejected():
    # sum = 2^L (one past the effective bound): force digits of sum mod 2^L
    rng = random.Random(16)
    policy = BoundPolicy.l1(3)  # L = 2, effective bound 3
    x, pads, kp = make_keys(MOD, 2, rng)
    values = [3, 1]  # sum 4 = 2^L
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l1")
    digits = [bits_of(v, policy.L) for v in values]
    forced_sum = bits_of(4 % 4, policy.L)
    proof = _build_l1(MOD, cts, values, digits, forced_sum, x, pads, kp, policy, ctx, rng)
    ok, reason = verify_l1(MOD, cts, proof, policy, pads, ctx)
    assert not ok and reason == "sum"


def test_l1_forced_negative_rejected():
    # element -1 has no 2-bit decomposition; force digits of (-1 mod 2^L)
    rng = random.Random(17)
    policy = BoundPolicy.l1(3)
    x, pads, kp = make_keys(MOD, 2, rng)
    values = [-1, 2]
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l1")
    digits = [bits_of(v % 4, policy.L) for v in values]
    forced_sum = bits_of(sum(values) % 4, policy.L)
    proof = _build_l1(MOD, cts, values, digits, forced_sum, x, pads, kp, policy, ctx, rng)
    # E*[T_0] is what row 0 spells, 3, so the link of slot 0 fails
    assert verify_l1(MOD, cts, proof, policy, pads, ctx) == (False, "tuple")


def test_l1_reason_codes():
    rng = random.Random(18)
    policy = BoundPolicy.l1(3)
    x, pads, kp = make_keys(MOD, 2, rng)
    values = [2, 1]
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l1")
    proof = prove_l1(MOD, cts, values, x, pads, kp, policy, ctx, rng)

    # a row moved by E[0; r = 1] moves E*[T_0] with it: the link fails first
    rows = [list(r) for r in proof.element_digit_cts]
    rows[0][0] = hom_mul(rows[0][0], encrypt_exp(MOD, 0, 1, kp.pk))
    bad = dataclasses.replace(proof, element_digit_cts=tuple(tuple(r) for r in rows))
    assert verify_l1(MOD, cts, bad, policy, pads, ctx) == (False, "tuple")

    # row 0 spells 0 under randomness that keeps E*[T_0]: only its first
    # components, off from cts[0].A, show it
    target = (x[0] + 2 * pow(kp.sk, -1, MOD.q)) % MOD.q
    row = _prove_digits(
        MOD, bits_of(0, policy.L), _digit_randomness(MOD, target, policy.L, rng), kp,
        ctx.child(b"bit", 0), rng,
    )
    bad = dataclasses.replace(
        proof,
        element_digit_cts=(row[0], *proof.element_digit_cts[1:]),
        element_digit_proofs=(row[1], *proof.element_digit_proofs[1:]),
    )
    assert verify_l1(MOD, cts, bad, policy, pads, ctx) == (False, "element")

    cts_swapped = [encrypt_exp(MOD, 1, x[0], pads[0]), cts[1]]
    assert verify_l1(MOD, cts_swapped, proof, policy, pads, ctx) == (False, "tuple")

    sum_cts = list(proof.sum_digit_cts)
    sum_cts[0] = hom_mul(sum_cts[0], encrypt_exp(MOD, 0, 1, kp.pk))
    bad = dataclasses.replace(proof, sum_digit_cts=tuple(sum_cts))
    assert verify_l1(MOD, cts, bad, policy, pads, ctx) == (False, "sum")


def test_l1_serialization():
    rng = random.Random(19)
    policy = BoundPolicy.l1(3)
    x, pads, kp = make_keys(MOD, 2, rng)
    cts = posted(MOD, [2, 1], x, pads)
    proof = prove_l1(MOD, cts, [2, 1], x, pads, kp, policy, FsTranscript(b"l1"), rng)
    data = proof.to_bytes(MOD)
    reader = Reader(data)
    assert L1RangeProof.read_from(MOD, reader, 2, policy.L) == proof
    reader.expect_end()


# -- bundle shape -------------------------------------------------------------------


def _short_by_one(proof, field, row=None):
    """The bundle with one item dropped from `field`, or from its row `row`."""
    items = list(getattr(proof, field))
    if row is None:
        items.pop()
    else:
        items[row] = items[row][:-1]
    return dataclasses.replace(proof, **{field: tuple(items)})


def _bundle_case(kind):
    rng = random.Random(24)
    policy = BoundPolicy(kind, 5)
    x, pads, kp = make_keys(MOD, 2, rng)
    values = [1, 2]
    prove = prove_l1 if kind == "l1" else prove_l2
    cts = posted(MOD, values, x, pads)
    proof = prove(MOD, cts, values, x, pads, kp, policy, FsTranscript(b"shape"), rng)
    return cts, proof, policy, pads


@pytest.mark.parametrize(
    "kind, field, row",
    [
        ("l1", "links", None),
        ("l1", "element_digit_cts", None),
        ("l1", "element_digit_cts", 1),
        ("l1", "element_digit_proofs", None),
        ("l1", "element_digit_proofs", 0),
        ("l1", "sum_digit_cts", None),
        ("l1", "sum_digit_proofs", None),
        ("l2", "reencrypted_B", None),
        ("l2", "links", None),
        ("l2", "digit_cts", None),
        ("l2", "digit_proofs", None),
        ("l2", "square_cts", None),
        ("l2", "square_proofs", None),
    ],
)
def test_bundle_missing_an_item_is_malformed(kind, field, row):
    cts, proof, policy, pads = _bundle_case(kind)
    verify = verify_l1 if kind == "l1" else verify_l2
    bad = _short_by_one(proof, field, row)
    assert verify(MOD, cts, bad, policy, pads, FsTranscript(b"shape")) == (False, "malformed")


@pytest.mark.parametrize("kind", ["l1", "l2"])
def test_bundle_with_wrong_pad_key_count_is_malformed(kind):
    cts, proof, policy, pads = _bundle_case(kind)
    verify = verify_l1 if kind == "l1" else verify_l2
    for keys in (pads[:1], pads + pads[:1]):
        assert verify(MOD, cts, proof, policy, keys, FsTranscript(b"shape")) == (False, "malformed")


# -- toy-scale exhaustive soundness ---------------------------------------------
#
# Parameters are chosen so the digit range stays inside the 11-element
# exponent field (no modular wraparound): the verifier's algebra then decides
# over the integers and every forced out-of-bound bundle must be rejected.


def test_l2_toy_exhaustive_rejection():
    policy = BoundPolicy.l2(2)  # L = 3, provable range [0, 7] < q = 11
    rng = random.Random(20)
    ctx = FsTranscript(b"toy-l2")
    for values in [(3, 0), (2, 2), (3, 1), (1, 3)]:
        s = sum(v * v for v in values)
        assert s > policy.effective_bound
        with pytest.raises(BoundExceeded):
            x, pads, kp = make_keys(TOY, 2, rng)
            cts = posted(TOY, values, x, pads)
            prove_l2(TOY, cts, list(values), x, pads, kp, policy, ctx, rng)


def test_l1_toy_forced_bundles_all_digit_choices():
    # m = 1 so element range == sum range; every possible digit vector for a
    # dishonest witness yields a rejected bundle
    policy = BoundPolicy.l1(3)  # L = 2
    ctx = FsTranscript(b"toy-l1")
    rng = random.Random(21)
    for value in (4, 5, 6, 7):  # > effective bound 3, < q - no wraparound
        for digit_bits in range(4):
            for sum_bits in range(4):
                x, pads, kp = make_keys(TOY, 1, rng)
                cts = posted(TOY, [value], x, pads)
                digits = [bits_of(digit_bits, 2)]
                sum_digits = bits_of(sum_bits, 2)
                proof = _build_l1(
                    TOY, cts, [value], digits, sum_digits, x, pads, kp, policy, ctx, rng
                )
                ok, reason = verify_l1(TOY, cts, proof, policy, pads, ctx)
                assert not ok, (value, digit_bits, sum_bits)


# -- zero-knowledge smoke check ---------------------------------------------------


def test_digit_ciphertexts_show_no_bias():
    # same-norm vectors produce digit ciphertexts with indistinguishable byte
    # statistics under fresh randomness
    rng = random.Random(22)
    policy = BoundPolicy.l1(3)
    ctx = FsTranscript(b"zk")

    def digit_bytes(values):
        chunks = []
        for _ in range(60):
            x, pads, kp = make_keys(MOD, 2, rng)
            cts = posted(MOD, values, x, pads)
            proof = prove_l1(MOD, cts, values, x, pads, kp, policy, ctx, rng)
            for row in proof.element_digit_cts:
                for ct in row:
                    chunks.append(ct.to_bytes(MOD))
        return b"".join(chunks)

    blob_a = digit_bytes([2, 1])
    blob_b = digit_bytes([1, 2])
    mean_a = sum(blob_a) / len(blob_a)
    mean_b = sum(blob_b) / len(blob_b)
    assert abs(mean_a - mean_b) < 0.05 * 255
