import dataclasses
import random

import pytest
import sympy

from zorro import groups
from zorro.elgamal import Keypair, encrypt_exp, hom_mul
from zorro.encoding import Reader
from zorro.errors import BoundExceeded, MalformedEncoding, NegativeEntry
from zorro.rangeproof import (
    BoundPolicy,
    L1RangeProof,
    L2RangeProof,
    _build_l1,
    bits_of,
    noise_terms,
    prove_l1,
    prove_l2,
    reencryption_link,
    verify_l1,
    verify_l2,
    verify_reencryption_link,
)
from zorro.sigma import FsTranscript

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
    assert BoundPolicy.none().L == 0


def test_policy_validation():
    with pytest.raises(ValueError):
        BoundPolicy("l3", 2)
    with pytest.raises(ValueError):
        BoundPolicy.l1(0)


def test_policy_windows():
    w = BoundPolicy.l1(3).tally_window(4)
    assert (w.lo, w.hi) == (0, 12)
    w = BoundPolicy.l2(5).tally_window(2)
    assert (w.lo, w.hi) == (-10, 10)  # isqrt(31) = 5 per party
    assert BoundPolicy.none().tally_window(3) is None


def test_policy_serialization():
    for policy in (BoundPolicy.l1(7), BoundPolicy.l2(32), BoundPolicy.none()):
        reader = Reader(policy.to_bytes())
        assert BoundPolicy.read_from(reader) == policy
        reader.expect_end()


@pytest.mark.parametrize(
    "data",
    [b"\x01" + bytes(8), b"\x02" + bytes(8), b"\x00" + (5).to_bytes(8, "big"), b"\x03" + bytes(8)],
    ids=["l1-bound-0", "l2-bound-0", "none-with-bound", "unknown-kind"],
)
def test_policy_decoding_rejects_impossible_policies(data):
    # a zero l1/l2 bound used to escape as the constructor's ValueError
    with pytest.raises(MalformedEncoding):
        BoundPolicy.read_from(Reader(data))


def test_bits_of():
    assert bits_of(25, 5) == [1, 0, 0, 1, 1]
    assert bits_of(0, 3) == [0, 0, 0]
    with pytest.raises(ValueError):
        bits_of(8, 3)
    with pytest.raises(ValueError):
        bits_of(-1, 3)


# -- noise construction -----------------------------------------------------------


def test_noise_terms_cancel_randomized():
    rng = random.Random(1)
    for m in (2, 3, 7, 20):
        xstar = [MOD.random_scalar(rng) for _ in range(m)]
        terms = noise_terms(MOD, xstar)
        assert len(terms) == m
        assert sum(terms) % MOD.q == 0


@pytest.mark.parametrize("m", [2, 3, 5])
def test_noise_terms_cancel_symbolically(m):
    # the telescoping identity holds over the integers, not just mod q
    xs = sympy.symbols(f"x0:{m}")
    terms = [
        (sum(xs[:j]) - sum(xs[j + 1 :])) * xs[j]
        for j in range(m)
    ]
    assert sympy.expand(sum(terms)) == 0


# -- re-encryption link ------------------------------------------------------------


def test_link_roundtrip():
    rng = random.Random(2)
    x, pads, kp = make_keys(MOD, 1, rng)
    ct = encrypt_exp(MOD, 3, x[0], pads[0])
    ctx = FsTranscript(b"link")
    ct_star, proof = reencryption_link(MOD, 3, x[0], pads[0], kp.pk, ctx, rng)
    assert verify_reencryption_link(MOD, ct, ct_star, pads[0], kp.pk, proof, ctx)


def test_link_detects_plaintext_swap():
    rng = random.Random(3)
    x, pads, kp = make_keys(MOD, 1, rng)
    ct = encrypt_exp(MOD, 3, x[0], pads[0])
    ctx = FsTranscript(b"link")
    # re-encryption of a different plaintext with the same randomness
    ct_star, proof = reencryption_link(MOD, 4, x[0], pads[0], kp.pk, ctx, rng)
    assert not verify_reencryption_link(MOD, ct, ct_star, pads[0], kp.pk, proof, ctx)


def test_link_degenerate_keys():
    rng = random.Random(4)
    kp = Keypair.generate(MOD, rng)
    ctx = FsTranscript(b"link")
    with pytest.raises(ValueError):
        reencryption_link(MOD, 3, 5, kp.pk, kp.pk, ctx, rng)


def test_link_requires_matching_first_component():
    rng = random.Random(5)
    x, pads, kp = make_keys(MOD, 1, rng)
    ctx = FsTranscript(b"link")
    ct_star, proof = reencryption_link(MOD, 3, x[0], pads[0], kp.pk, ctx, rng)
    other = encrypt_exp(MOD, 3, (x[0] + 1) % MOD.q, pads[0])
    assert not verify_reencryption_link(MOD, other, ct_star, pads[0], kp.pk, proof, ctx)


# -- L2 bundle ----------------------------------------------------------------------


def test_l2_boundary_case():
    # 3^2 + 4^2 = 25 = B^2 exactly
    rng = random.Random(6)
    policy = BoundPolicy.l2(5)
    x, pads, kp = make_keys(MOD, 2, rng)
    cts = posted(MOD, [3, 4], x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, [3, 4], x, pads, kp.pk, policy, ctx, rng)
    assert verify_l2(MOD, cts, proof, policy, pads, ctx) == (True, None)


def test_l2_zero_vector():
    rng = random.Random(7)
    policy = BoundPolicy.l2(5)
    x, pads, kp = make_keys(MOD, 3, rng)
    cts = posted(MOD, [0, 0, 0], x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, [0, 0, 0], x, pads, kp.pk, policy, ctx, rng)
    assert verify_l2(MOD, cts, proof, policy, pads, ctx) == (True, None)


def test_l2_prover_refuses_over_bound():
    rng = random.Random(8)
    policy = BoundPolicy.l2(5)
    x, pads, kp = make_keys(MOD, 2, rng)
    with pytest.raises(BoundExceeded):
        prove_l2(MOD, [6, 0], x, pads, kp.pk, policy, FsTranscript(b"l2"), rng)


def test_l2_pads_short_vectors():
    # m <= L: the w vector is extended to L + 1 slots with encrypted zeros
    rng = random.Random(9)
    policy = BoundPolicy.l2(5)  # L = 5
    x, pads, kp = make_keys(MOD, 1, rng)
    cts = posted(MOD, [5], x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, [5], x, pads, kp.pk, policy, ctx, rng)
    assert len(proof.square_cts) == 6
    assert len(proof.reencrypted) == 6
    assert len(proof.links) == 1
    assert verify_l2(MOD, cts, proof, policy, pads, ctx) == (True, None)


def test_l2_signed_entries():
    rng = random.Random(10)
    policy = BoundPolicy.l2(5)
    x, pads, kp = make_keys(MOD, 2, rng)
    cts = posted(MOD, [-3, 4], x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, [-3, 4], x, pads, kp.pk, policy, ctx, rng)
    assert verify_l2(MOD, cts, proof, policy, pads, ctx) == (True, None)


def test_l2_reason_codes():
    rng = random.Random(11)
    policy = BoundPolicy.l2(5)
    x, pads, kp = make_keys(MOD, 2, rng)
    values = [3, 4]
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, values, x, pads, kp.pk, policy, ctx, rng)

    # re-randomizing one w ciphertext breaks the telescoped noise
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

    # policy mismatch is flagged before any crypto
    assert verify_l2(MOD, cts, proof, BoundPolicy.l2(6), pads, ctx) == (False, "policy")


def test_l2_square_check_catches_wrong_square():
    # force-construct a bundle claiming w = T^2 + 1 by patching the square
    # ciphertext and re-proving the (true) square relation on a lie
    rng = random.Random(12)
    policy = BoundPolicy.l2(5)
    x, pads, kp = make_keys(MOD, 2, rng)
    values = [3, 4]
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, values, x, pads, kp.pk, policy, ctx, rng)
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
    proof = prove_l2(MOD, values, x, pads, kp.pk, policy, ctx, rng)
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
    proof = prove_l2(MOD, [1, 2], x, pads, kp.pk, policy, FsTranscript(b"session-a"), rng)
    ok, reason = verify_l2(MOD, cts, proof, policy, pads, FsTranscript(b"session-b"))
    assert not ok and reason == "tuple"


def test_l2_serialization():
    rng = random.Random(14)
    policy = BoundPolicy.l2(5)
    x, pads, kp = make_keys(MOD, 2, rng)
    proof = prove_l2(MOD, [3, 4], x, pads, kp.pk, policy, FsTranscript(b"l2"), rng)
    data = proof.to_bytes(MOD)
    reader = Reader(data)
    assert L2RangeProof.read_from(MOD, reader) == proof
    reader.expect_end()
    with pytest.raises(MalformedEncoding):
        L2RangeProof.read_from(MOD, Reader(data[:-3]))


# -- L1 bundle -----------------------------------------------------------------------


def test_l1_ballot_cases():
    rng = random.Random(15)
    policy = BoundPolicy.l1(3)
    x, pads, kp = make_keys(MOD, 3, rng)
    cts = posted(MOD, [3, 0, 0], x, pads)
    ctx = FsTranscript(b"l1")
    proof = prove_l1(MOD, [3, 0, 0], x, pads, kp.pk, policy, ctx, rng)
    assert verify_l1(MOD, cts, proof, policy, pads, ctx) == (True, None)
    with pytest.raises(BoundExceeded):
        prove_l1(MOD, [2, 2, 0], x, pads, kp.pk, policy, ctx, rng)
    with pytest.raises(NegativeEntry):
        prove_l1(MOD, [-1, 1, 0], x, pads, kp.pk, policy, ctx, rng)


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
    proof = _build_l1(MOD, values, digits, forced_sum, x, pads, kp.pk, policy, ctx, rng)
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
    proof = _build_l1(MOD, values, digits, forced_sum, x, pads, kp.pk, policy, ctx, rng)
    ok, reason = verify_l1(MOD, cts, proof, policy, pads, ctx)
    assert not ok and reason in ("element", "sum")


def test_l1_reason_codes():
    rng = random.Random(18)
    policy = BoundPolicy.l1(3)
    x, pads, kp = make_keys(MOD, 2, rng)
    values = [2, 1]
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l1")
    proof = prove_l1(MOD, values, x, pads, kp.pk, policy, ctx, rng)

    rows = [list(r) for r in proof.element_digit_cts]
    rows[0][0] = hom_mul(rows[0][0], encrypt_exp(MOD, 0, 1, kp.pk))
    bad = dataclasses.replace(proof, element_digit_cts=tuple(tuple(r) for r in rows))
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
    proof = prove_l1(MOD, [2, 1], x, pads, kp.pk, policy, FsTranscript(b"l1"), rng)
    data = proof.to_bytes(MOD)
    reader = Reader(data)
    assert L1RangeProof.read_from(MOD, reader) == proof
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
    proof = prove(MOD, values, x, pads, kp.pk, policy, FsTranscript(b"shape"), rng)
    return posted(MOD, values, x, pads), proof, policy, pads


@pytest.mark.parametrize(
    "kind, field, row",
    [
        ("l1", "reencrypted", None),
        ("l1", "links", None),
        ("l1", "element_digit_cts", None),
        ("l1", "element_digit_cts", 1),
        ("l1", "element_digit_proofs", None),
        ("l1", "element_digit_proofs", 0),
        ("l1", "sum_digit_cts", None),
        ("l1", "sum_digit_proofs", None),
        ("l2", "reencrypted", None),
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
            prove_l2(TOY, list(values), x, pads, kp.pk, policy, ctx, rng)


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
                    TOY, [value], digits, sum_digits, x, pads, kp.pk, policy, ctx, rng
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
            proof = prove_l1(MOD, values, x, pads, kp.pk, policy, ctx, rng)
            for row in proof.element_digit_cts:
                for ct in row:
                    chunks.append(ct.to_bytes(MOD))
        return b"".join(chunks)

    blob_a = digit_bytes([2, 1])
    blob_b = digit_bytes([1, 2])
    mean_a = sum(blob_a) / len(blob_a)
    mean_b = sum(blob_b) / len(blob_b)
    assert abs(mean_a - mean_b) < 0.05 * 255
