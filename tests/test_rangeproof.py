import dataclasses
import functools
import random

import pytest

from zorro import groups
from zorro.elgamal import encrypt_exp
from zorro.encoding import Reader
from zorro.errors import BoundExceeded, MalformedEncoding, NegativeEntry
from zorro.rangeproof import (
    BoundPolicy,
    L1RangeProof,
    L2RangeProof,
    _build_l1,
    _digit_randomness,
    _link_statement,
    _prove_digits,
    _recomposed,
    bits_of,
    prove_l1,
    prove_l2,
    verify_l1,
    verify_l2,
    verify_reencryption_link,
)
from zorro.sigma import DhTupleProof, FsTranscript, prove_dh_tuple

TOY = groups.toy_group()
MOD = groups.test_group()


def make_keys(group, m, rng):
    """Randomness and pad keys for a standalone bundle: no pad key is gamma,
    whose link statement would be degenerate."""
    x = [group.random_scalar(rng) for _ in range(m)]
    while True:
        pads = [group.g ** group.random_scalar(rng) for _ in range(m)]
        if all(h != group.gamma for h in pads):
            return x, pads


def posted(group, values, x, pads):
    return [encrypt_exp(group, values[j], x[j], pads[j]) for j in range(len(values))]


def pedersen(group, v, rho):
    return group.multi_exp(((group.g, v), (group.gamma, rho)))


def product(elements):
    return functools.reduce(lambda a, b: a * b, elements)


def link_proof(group, ct, C, x, h_pad, ctx, rng):
    return prove_dh_tuple(group, x, _link_statement(group, ct, C, h_pad), ctx, rng)


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
    x, pads = make_keys(MOD, 1, rng)
    ct = encrypt_exp(MOD, 3, x[0], pads[0])
    ctx = FsTranscript(b"link")
    C = pedersen(MOD, 3, x[0])
    proof = link_proof(MOD, ct, C, x[0], pads[0], ctx, rng)
    assert verify_reencryption_link(MOD, ct, C, pads[0], proof, ctx)
    # (ct.A, C) is the encryption of 3 under gamma
    assert C == encrypt_exp(MOD, 3, x[0], MOD.gamma).B


def test_link_detects_plaintext_swap():
    rng = random.Random(3)
    x, pads = make_keys(MOD, 1, rng)
    ct = encrypt_exp(MOD, 3, x[0], pads[0])
    ctx = FsTranscript(b"link")
    # a commitment to a different value with the same randomness
    C_swapped = pedersen(MOD, 4, x[0])
    proof = link_proof(MOD, ct, pedersen(MOD, 3, x[0]), x[0], pads[0], ctx, rng)
    assert not verify_reencryption_link(MOD, ct, C_swapped, pads[0], proof, ctx)
    # a prover that links the swapped value states a false tuple
    proof = link_proof(MOD, ct, C_swapped, x[0], pads[0], ctx, rng)
    assert not verify_reencryption_link(MOD, ct, C_swapped, pads[0], proof, ctx)
    # so does one that keeps the value under other randomness
    C_rerandomized = pedersen(MOD, 3, x[0] + 1)
    proof = link_proof(MOD, ct, C_rerandomized, x[0], pads[0], ctx, rng)
    assert not verify_reencryption_link(MOD, ct, C_rerandomized, pads[0], proof, ctx)


def test_link_degenerate_keys():
    rng = random.Random(4)
    ctx = FsTranscript(b"link")
    ct = encrypt_exp(MOD, 3, 5, MOD.gamma)
    with pytest.raises(ValueError):
        link_proof(MOD, ct, pedersen(MOD, 3, 5), 5, MOD.gamma, ctx, rng)


def test_link_verifier_refuses_degenerate_keys():
    # with h_pad = gamma the DH base is the identity, and this proof satisfies
    # both equations; verify_dh_tuple's identity-base check refuses it
    x, r = 5, 9
    ct = encrypt_exp(MOD, 3, x, MOD.gamma)
    C = pedersen(MOD, 3, x)
    ctx = FsTranscript(b"link")
    a, b = MOD.g ** r, MOD.identity
    e = ctx.challenge(MOD, MOD.g, MOD.identity, ct.A, MOD.identity, a, b)
    proof = DhTupleProof(a, b, (r + e * x) % MOD.q)
    assert not verify_reencryption_link(MOD, ct, C, MOD.gamma, proof, ctx)


def test_link_requires_matching_first_component():
    # the link proves the posted ct.A: no bundle posts another
    rng = random.Random(5)
    x, pads = make_keys(MOD, 1, rng)
    ctx = FsTranscript(b"link")
    C = pedersen(MOD, 3, x[0])
    ct = encrypt_exp(MOD, 3, x[0], pads[0])
    proof = link_proof(MOD, ct, C, x[0], pads[0], ctx, rng)
    other = encrypt_exp(MOD, 3, (x[0] + 1) % MOD.q, pads[0])
    assert not verify_reencryption_link(MOD, other, C, pads[0], proof, ctx)


# -- L2 bundle ----------------------------------------------------------------------


def test_l2_boundary_case():
    # 3^2 + 4^2 = 25 = B^2 exactly
    rng = random.Random(6)
    policy = BoundPolicy.l2(5)
    x, pads = make_keys(MOD, 2, rng)
    cts = posted(MOD, [3, 4], x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, cts, [3, 4], x, pads, policy, ctx, rng)
    assert verify_l2(MOD, cts, proof, policy, pads, ctx) == (True, None)


def test_l2_zero_vector():
    rng = random.Random(7)
    policy = BoundPolicy.l2(5)
    x, pads = make_keys(MOD, 3, rng)
    cts = posted(MOD, [0, 0, 0], x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, cts, [0, 0, 0], x, pads, policy, ctx, rng)
    assert verify_l2(MOD, cts, proof, policy, pads, ctx) == (True, None)


def test_l2_prover_refuses_over_bound():
    rng = random.Random(8)
    policy = BoundPolicy.l2(5)
    x, pads = make_keys(MOD, 2, rng)
    with pytest.raises(BoundExceeded):
        prove_l2(MOD, posted(MOD, [6, 0], x, pads), [6, 0], x, pads, policy,
                 FsTranscript(b"l2"), rng)


@pytest.mark.parametrize("m", [1, 3, 5, 6, 8], ids=["m=1", "m<L", "m=L", "m=L+1", "m>L"])
def test_l2_bundle_holds_exactly_m_squares(m):
    # L = 5: an m below, at or above L gets exactly m squares, and the digits'
    # randomness recomposes to theirs, so the identity is one of commitments
    rng = random.Random(9)
    policy = BoundPolicy.l2(5)
    values = [j % 3 - 1 for j in range(m)]
    x, pads = make_keys(MOD, m, rng)
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, cts, values, x, pads, policy, ctx, rng)
    runs = (proof.squares, proof.square_proofs, proof.commitments, proof.links)
    assert [len(run) for run in runs] == [m] * 4
    assert verify_l2(MOD, cts, proof, policy, pads, ctx) == (True, None)
    # prod_j W_j == prod_l y_l^(2^l), one equation of commitments
    assert product(proof.squares) == _recomposed(proof.digit_proofs)


def test_l2_signed_entries():
    rng = random.Random(10)
    policy = BoundPolicy.l2(5)
    x, pads = make_keys(MOD, 2, rng)
    cts = posted(MOD, [-3, 4], x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, cts, [-3, 4], x, pads, policy, ctx, rng)
    assert verify_l2(MOD, cts, proof, policy, pads, ctx) == (True, None)


def test_l2_reason_codes():
    rng = random.Random(11)
    policy = BoundPolicy.l2(5)
    x, pads = make_keys(MOD, 2, rng)
    values = [3, 4]
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, cts, values, x, pads, policy, ctx, rng)

    # re-randomizing one square breaks the exact consistency identity
    squares = list(proof.squares)
    squares[0] = squares[0] * MOD.gamma
    bad = dataclasses.replace(proof, squares=tuple(squares))
    assert verify_l2(MOD, cts, bad, policy, pads, ctx) == (False, "consistency")

    # swapping the posted ciphertext after proving breaks the link
    cts_swapped = [encrypt_exp(MOD, 9, x[0], pads[0]), cts[1]]
    assert verify_l2(MOD, cts_swapped, proof, policy, pads, ctx) == (False, "tuple")

    # a digit proof verified under the wrong slot context fails
    digit_proofs = list(proof.digit_proofs)
    digit_proofs[0], digit_proofs[1] = digit_proofs[1], digit_proofs[0]
    bad = dataclasses.replace(proof, digit_proofs=tuple(digit_proofs))
    result = verify_l2(MOD, cts, bad, policy, pads, ctx)
    assert result[0] is False and result[1] in ("consistency", "bit")

    # a bundle whose digit runs do not fit the policy's L is flagged before any crypto
    assert verify_l2(MOD, cts, proof, BoundPolicy.l2(6), pads, ctx) == (False, "malformed")


def test_l2_square_check_catches_wrong_square():
    # force-construct a bundle claiming W_0 holds T_0^2 + 1 by patching the
    # square and keeping the (true) square proof of the old one
    rng = random.Random(12)
    policy = BoundPolicy.l2(5)
    x, pads = make_keys(MOD, 2, rng)
    values = [3, 4]
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, cts, values, x, pads, policy, ctx, rng)
    squares = list(proof.squares)
    squares[0] = squares[0] * MOD.g  # now holds 10
    bad = dataclasses.replace(proof, squares=tuple(squares))
    ok, reason = verify_l2(MOD, cts, bad, policy, pads, ctx)
    assert not ok and reason in ("consistency", "square")


def test_l2_square_check_isolated():
    # shift values between two squares: their product (hence the consistency
    # check) is unchanged, so the forgery must be caught by the square proofs
    # themselves
    rng = random.Random(23)
    policy = BoundPolicy.l2(5)
    x, pads = make_keys(MOD, 2, rng)
    values = [3, 4]
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l2")
    proof = prove_l2(MOD, cts, values, x, pads, policy, ctx, rng)
    squares = list(proof.squares)
    squares[0] = squares[0] * MOD.g  # 9 -> 10
    squares[1] = squares[1] / MOD.g  # 16 -> 15
    bad = dataclasses.replace(proof, squares=tuple(squares))
    assert verify_l2(MOD, cts, bad, policy, pads, ctx) == (False, "square")


def test_l2_context_binding():
    rng = random.Random(13)
    policy = BoundPolicy.l2(5)
    x, pads = make_keys(MOD, 2, rng)
    cts = posted(MOD, [1, 2], x, pads)
    proof = prove_l2(MOD, cts, [1, 2], x, pads, policy, FsTranscript(b"session-a"), rng)
    ok, reason = verify_l2(MOD, cts, proof, policy, pads, FsTranscript(b"session-b"))
    assert not ok and reason == "tuple"


def test_l2_serialization():
    rng = random.Random(14)
    policy = BoundPolicy.l2(5)
    x, pads = make_keys(MOD, 2, rng)
    cts = posted(MOD, [3, 4], x, pads)
    proof = prove_l2(MOD, cts, [3, 4], x, pads, policy, FsTranscript(b"l2"), rng)
    data = proof.to_bytes(MOD)
    reader = Reader(data)
    assert L2RangeProof.read_from(MOD, reader, 2, policy.L) == proof
    reader.expect_end()
    # each slot's commitment C_j, one element: (ct_j.A, C_j) encrypts T_j under gamma
    assert data.startswith(b"".join(map(MOD.encode_element, proof.commitments)))
    assert proof.commitments == tuple(pedersen(MOD, t, xj) for t, xj in zip([3, 4], x))
    with pytest.raises(MalformedEncoding):
        L2RangeProof.read_from(MOD, Reader(data[:-3]), 2, policy.L)


# -- L1 bundle -----------------------------------------------------------------------


def test_l1_ballot_cases():
    rng = random.Random(15)
    policy = BoundPolicy.l1(3)
    x, pads = make_keys(MOD, 3, rng)
    cts = posted(MOD, [3, 0, 0], x, pads)
    ctx = FsTranscript(b"l1")
    proof = prove_l1(MOD, cts, [3, 0, 0], x, pads, policy, ctx, rng)
    assert verify_l1(MOD, cts, proof, policy, pads, ctx) == (True, None)
    with pytest.raises(BoundExceeded):
        prove_l1(MOD, cts, [2, 2, 0], x, pads, policy, ctx, rng)
    with pytest.raises(NegativeEntry):
        prove_l1(MOD, cts, [-1, 1, 0], x, pads, policy, ctx, rng)


def test_l1_forced_overflow_rejected():
    # sum = 2^L (one past the effective bound): force digits of sum mod 2^L
    rng = random.Random(16)
    policy = BoundPolicy.l1(3)  # L = 2, effective bound 3
    x, pads = make_keys(MOD, 2, rng)
    values = [3, 1]  # sum 4 = 2^L
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l1")
    digits = [bits_of(v, policy.L) for v in values]
    forced_sum = bits_of(4 % 4, policy.L)
    proof = _build_l1(MOD, cts, digits, forced_sum, x, pads, policy, ctx, rng)
    ok, reason = verify_l1(MOD, cts, proof, policy, pads, ctx)
    assert not ok and reason == "sum"


def test_l1_forced_negative_rejected():
    # element -1 has no 2-bit decomposition; force digits of (-1 mod 2^L)
    rng = random.Random(17)
    policy = BoundPolicy.l1(3)
    x, pads = make_keys(MOD, 2, rng)
    values = [-1, 2]
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l1")
    digits = [bits_of(v % 4, policy.L) for v in values]
    forced_sum = bits_of(sum(values) % 4, policy.L)
    proof = _build_l1(MOD, cts, digits, forced_sum, x, pads, policy, ctx, rng)
    # C_0 is what row 0 spells, 3, so the link of slot 0 fails
    assert verify_l1(MOD, cts, proof, policy, pads, ctx) == (False, "tuple")


def test_l1_reason_codes():
    rng = random.Random(18)
    policy = BoundPolicy.l1(3)
    x, pads = make_keys(MOD, 2, rng)
    values = [2, 1]
    cts = posted(MOD, values, x, pads)
    ctx = FsTranscript(b"l1")
    proof = prove_l1(MOD, cts, values, x, pads, policy, ctx, rng)

    # a row digit moved by gamma moves C_0 with it: the link fails first
    rows = [list(r) for r in proof.element_digit_proofs]
    rows[0][0] = dataclasses.replace(rows[0][0], y=rows[0][0].y * MOD.gamma)
    bad = dataclasses.replace(proof, element_digit_proofs=tuple(tuple(r) for r in rows))
    assert verify_l1(MOD, cts, bad, policy, pads, ctx) == (False, "tuple")

    # row 0 spells T_0 + 1 under randomness that still recomposes to x_0:
    # only log_gamma(g) could keep C_0, so the link fails
    row = _prove_digits(
        MOD, bits_of(3, policy.L), _digit_randomness(MOD, x[0], policy.L, rng),
        ctx.child(b"bit", 0), rng,
    )
    bad = dataclasses.replace(
        proof, element_digit_proofs=(row, *proof.element_digit_proofs[1:])
    )
    assert _recomposed(row) == _recomposed(proof.element_digit_proofs[0]) * MOD.g
    assert verify_l1(MOD, cts, bad, policy, pads, ctx) == (False, "tuple")

    cts_swapped = [encrypt_exp(MOD, 1, x[0], pads[0]), cts[1]]
    assert verify_l1(MOD, cts_swapped, proof, policy, pads, ctx) == (False, "tuple")

    sums = list(proof.sum_digit_proofs)
    sums[0] = dataclasses.replace(sums[0], y=sums[0].y * MOD.gamma)
    bad = dataclasses.replace(proof, sum_digit_proofs=tuple(sums))
    assert verify_l1(MOD, cts, bad, policy, pads, ctx) == (False, "sum")


def test_l1_serialization():
    rng = random.Random(19)
    policy = BoundPolicy.l1(3)
    x, pads = make_keys(MOD, 2, rng)
    cts = posted(MOD, [2, 1], x, pads)
    proof = prove_l1(MOD, cts, [2, 1], x, pads, policy, FsTranscript(b"l1"), rng)
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
    x, pads = make_keys(MOD, 2, rng)
    values = [1, 2]
    prove = prove_l1 if kind == "l1" else prove_l2
    cts = posted(MOD, values, x, pads)
    proof = prove(MOD, cts, values, x, pads, policy, FsTranscript(b"shape"), rng)
    return cts, proof, policy, pads


@pytest.mark.parametrize(
    "kind, field, row",
    [
        ("l1", "links", None),
        ("l1", "element_digit_proofs", None),
        ("l1", "element_digit_proofs", 0),
        ("l1", "element_digit_proofs", 1),
        ("l1", "sum_digit_proofs", None),
        ("l2", "commitments", None),
        ("l2", "links", None),
        ("l2", "digit_proofs", None),
        ("l2", "squares", None),
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


# -- exhaustive soundness over digit choices ------------------------------------
#
# Parameters are chosen so the digit range stays inside the exponent field
# (no modular wraparound): the verifier's algebra then decides over the
# integers and every forced out-of-bound bundle must be rejected.  The
# forced bundles are checked in the 41-bit group: in the 11-element one a
# proof of a false statement passes with probability 1/11.


def test_l2_toy_exhaustive_rejection():
    policy = BoundPolicy.l2(2)  # L = 3, provable range [0, 7] < q = 11
    rng = random.Random(20)
    ctx = FsTranscript(b"toy-l2")
    for values in [(3, 0), (2, 2), (3, 1), (1, 3)]:
        s = sum(v * v for v in values)
        assert s > policy.effective_bound
        with pytest.raises(BoundExceeded):
            x, pads = make_keys(TOY, 2, rng)
            cts = posted(TOY, values, x, pads)
            prove_l2(TOY, cts, list(values), x, pads, policy, ctx, rng)


def test_l1_forced_bundles_all_digit_choices():
    # m = 1 so element range == sum range; every possible digit vector for a
    # dishonest witness yields a bundle whose link fails: the row commits to
    # at most 3, the slot encrypts more
    policy = BoundPolicy.l1(3)  # L = 2
    ctx = FsTranscript(b"forced-l1")
    rng = random.Random(21)
    for value in (4, 5, 6, 7):  # > effective bound 3
        for digit_bits in range(4):
            for sum_bits in range(4):
                x, pads = make_keys(MOD, 1, rng)
                cts = posted(MOD, [value], x, pads)
                digits = [bits_of(digit_bits, 2)]
                sum_digits = bits_of(sum_bits, 2)
                proof = _build_l1(MOD, cts, digits, sum_digits, x, pads, policy, ctx, rng)
                verdict = verify_l1(MOD, cts, proof, policy, pads, ctx)
                assert verdict == (False, "tuple"), (value, digit_bits, sum_bits)


# -- zero-knowledge smoke check ---------------------------------------------------


def test_digit_commitments_show_no_bias():
    # same-norm vectors produce digit commitments with indistinguishable byte
    # statistics under fresh randomness
    rng = random.Random(22)
    policy = BoundPolicy.l1(3)
    ctx = FsTranscript(b"zk")

    def digit_bytes(values):
        chunks = []
        for _ in range(60):
            x, pads = make_keys(MOD, 2, rng)
            cts = posted(MOD, values, x, pads)
            proof = prove_l1(MOD, cts, values, x, pads, policy, ctx, rng)
            for row in proof.element_digit_proofs:
                for digit in row:
                    chunks.append(MOD.encode_element(digit.y))
        return b"".join(chunks)

    blob_a = digit_bytes([2, 1])
    blob_b = digit_bytes([1, 2])
    mean_a = sum(blob_a) / len(blob_a)
    mean_b = sum(blob_b) / len(blob_b)
    assert abs(mean_a - mean_b) < 0.05 * 255
