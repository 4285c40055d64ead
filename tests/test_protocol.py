import dataclasses
import itertools
import random

import pytest

from zorro import groups, rangeproof
from zorro.dlog import MAX_BABY_STEPS, DlogWindow, bsgs
from zorro.elgamal import encrypt_exp
from zorro.encoding import Share
from zorro.errors import (
    BoundExceeded,
    LedgerRejected,
    MalformedEncoding,
    MissingPost,
    NegativeEntry,
    NotInWindow,
)
from zorro.ledger import Ledger
from zorro.protocol import (
    Party,
    ProtocolConfig,
    Round1Post,
    Round2Post,
    derive_pads,
    round1_generate,
    round2_generate,
    tally,
    verify_contribution,
    verify_ledger,
    verify_round1,
)
from zorro.rangeproof import BoundPolicy, L1RangeProof, L2RangeProof
from zorro.sigma import verify_dlog

TOY = groups.toy_group()
MOD = groups.test_group()

SESSION = bytes(range(16))


def config(n=3, m=2, policy=None, group=MOD, session=SESSION):
    return ProtocolConfig(group, n, m, policy or BoundPolicy("none", 5), session)


def full_round1(cfg, seed=0):
    rng = random.Random(seed)
    secrets, posts = [], []
    for i in range(cfg.n):
        secret, post = round1_generate(cfg, i, rng)
        secrets.append(secret)
        posts.append(post)
    return secrets, posts


def test_config_validation():
    with pytest.raises(ValueError):
        config(n=1)
    with pytest.raises(ValueError):
        config(m=0)
    with pytest.raises(ValueError):
        ProtocolConfig(MOD, 2, 1, BoundPolicy("none", 5), b"short")


def test_round1_proofs_verify():
    cfg = config(m=3)
    _, posts = full_round1(cfg)
    for post in posts:
        assert verify_round1(cfg, post)
        assert verify_dlog(MOD, post.elements, post.proof, cfg.context(1, post.party))


def test_each_post_has_its_own_fiat_shamir_domain():
    cfg = config(n=3)
    tags = {cfg.context(r, i).domain_tag for r in (1, 2) for i in range(cfg.n)}
    assert len(tags) == 2 * cfg.n
    assert cfg.context(2, 1).domain_tag == (
        b"zorro.protocol.v1|mod41|\x00\x01\x02\x03\x04\x05\x06\x07\x08\t\n\x0b\x0c\r\x0e\x0f/r2/1"
    )


def test_round1_posts_distinct():
    cfg = config()
    _, posts = full_round1(cfg)
    seen = {e for post in posts for e in post.elements}
    assert len(seen) == cfg.n * cfg.m


def test_round1_proofs_bound_to_party():
    cfg = config()
    _, posts = full_round1(cfg)
    # party 1's whole post, elements and proof, under party 0's entry
    swapped = dataclasses.replace(posts[1], party=0)
    assert not verify_round1(cfg, swapped)
    with pytest.raises(LedgerRejected) as exc:
        derive_pads(cfg, [swapped] + posts[1:], 0)
    assert (exc.value.party, exc.value.check) == (0, "round1")


def test_pads_two_party_algebra():
    cfg = config(n=2, m=1)
    secrets, posts = full_round1(cfg)
    pads0 = derive_pads(cfg, posts, 0)
    pads1 = derive_pads(cfg, posts, 1)
    assert pads0[0] == posts[1].elements[0].inverse()
    assert pads1[0] == posts[0].elements[0]
    combined = pads0[0] ** secrets[0].x[0] * pads1[0] ** secrets[1].x[0]
    assert combined == MOD.identity


def test_pad_cancellation_three_party():
    cfg = config(n=3, m=4)
    secrets, posts = full_round1(cfg, seed=5)
    pads = [derive_pads(cfg, posts, i) for i in range(3)]
    for j in range(cfg.m):
        prod = MOD.identity
        for i in range(3):
            prod = prod * pads[i][j] ** secrets[i].x[j]
        assert prod == MOD.identity


def test_config_refuses_bounds_whose_sums_wrap_mod_q():
    session = bytes(16)
    # m = 3 entries of 2^39 - 1 can sum to q + 5, about twice the bound; a
    # bundle for [B, B, 22] with sum digits of 5 passed verify_contribution
    with pytest.raises(ValueError, match="sum of 3 l1 entries"):
        ProtocolConfig(MOD, 2, 3, BoundPolicy.l1(2**39 - 1), session)
    with pytest.raises(ValueError, match="tally window"):
        ProtocolConfig(MOD, 3, 1, BoundPolicy.l1(2**39 - 1), session)
    ProtocolConfig(MOD, 2, 1, BoundPolicy.l1(2**39 - 1), session)  # 2 (2^39 - 1) < q
    with pytest.raises(ValueError, match="tally window"):
        ProtocolConfig(MOD, 2, 1, BoundPolicy.l2(2**39), session)
    ProtocolConfig(MOD, 2, 1, BoundPolicy.l2(2**37), session)
    # policy none proves nothing, yet its header bound sets the same window
    with pytest.raises(ValueError, match="tally window"):
        ProtocolConfig(MOD, 2, 1, BoundPolicy("none", 2**39 + 8), session)
    ProtocolConfig(MOD, 2, 1, BoundPolicy("none", 2**39 + 7), session)  # 2 (2^39 + 7) + 1 = q


@pytest.mark.parametrize(
    "policy",
    [BoundPolicy.l1(2**63), BoundPolicy.l2(2**48), BoundPolicy("none", 2**63)],
    ids=["l1-2^63", "l2-2^48", "none-2^63"],
)
def test_config_refuses_a_window_too_wide_for_bsgs(policy):
    """The tally's baby-step table is bounded by MAX_BABY_STEPS before any is built."""
    curve = groups.prod_group()
    with pytest.raises(ValueError, match="baby steps"):
        ProtocolConfig(curve, 2, 1, policy, bytes(16))
    assert policy.tally_window(2).baby_steps > MAX_BABY_STEPS
    # l2 bound 10^9, the largest bound the demos use, stays well inside it
    wide = ProtocolConfig(curve, 2, 1, BoundPolicy.l2(10**9), bytes(16))
    assert wide.policy.tally_window(2).baby_steps == 65_536


def test_derive_pads_missing_post():
    cfg = config(n=3)
    _, posts = full_round1(cfg)
    with pytest.raises(MissingPost, match="^party 1 missing from round 1$") as err:
        derive_pads(cfg, posts[:1] + posts[2:], 0)
    assert (err.value.party, err.value.round) == (1, 1)


def test_round2_policy_none_tallies():
    cfg = config(n=2, m=1)
    secrets, posts = full_round1(cfg)
    rng = random.Random(1)
    r2 = []
    for i, values in enumerate([[5], [2]]):
        pads = derive_pads(cfg, posts, i)
        r2.append(round2_generate(cfg, values, secrets[i], pads, rng))
    # a single ciphertext alone does not decrypt to the plaintext: the pad
    # only cancels across the full set
    partial = r2[0].cts[0].B
    with pytest.raises(NotInWindow):
        bsgs(MOD, partial, DlogWindow(0, 10))
    result = tally(cfg, r2)
    assert result == (7,)


def make_session(cfg, vectors, seed=0):
    parties = [Party(cfg, i, random.Random(seed * 97 + i)) for i in range(cfg.n)]
    posts1 = [p.round1() for p in parties]
    for p in parties:
        p.receive_round1(posts1)
    posts2 = [parties[i].round2(vectors[i]) for i in range(cfg.n)]
    return parties, posts1, posts2


def test_l1_session_verifies_and_tallies():
    cfg = config(n=2, m=2, policy=BoundPolicy.l1(3))
    parties, posts1, posts2 = make_session(cfg, [[3, 0], [1, 2]])
    for post in posts2:
        assert verify_contribution(cfg, post, derive_pads(cfg, posts1, post.party)) == (True, None)
    assert tally(cfg, posts2) == (4, 2)


def test_secp256k1_l1_round2_raises_a_variable_base_eight_times(monkeypatch):
    """At m = 4, a party's l1 round 2 makes one multi_exp with a base other
    than g and gamma per posted slot (h_pad ** x_j) and per link (the
    DH-tuple commitment (h_pad / gamma) ** r): every other element is a
    Pedersen commitment g^u * gamma^v, and each slot's first component is
    the party's round-1 element, not lifted again."""
    cfg = config(n=3, m=4, policy=BoundPolicy.l1(4), group=groups.prod_group())
    parties = [Party(cfg, i, random.Random(i)) for i in range(cfg.n)]
    posts1 = [p.round1() for p in parties]
    parties[0].receive_round1(posts1)
    curve, multi_exp, calls = cfg.group, cfg.group.multi_exp, []

    def counting(pairs):
        pairs = list(pairs)
        if any(e % curve.q and base not in (curve.g, curve.gamma, curve.identity)
               for base, e in pairs):
            calls.append(len(pairs))
        return multi_exp(pairs)

    monkeypatch.setattr(curve, "multi_exp", counting)
    parties[0].round2([1, 0, 2, 0])
    assert len(calls) == 8


def _secp256k1_round2_lifts(policy, values, monkeypatch):
    """The pair count of each group.lift call, and the number of prove_bit
    calls, in party 0's round 2 on secp256k1 (n = 3, m = len(values))."""
    cfg = config(n=3, m=len(values), policy=policy, group=groups.prod_group())
    parties = [Party(cfg, i, random.Random(i)) for i in range(cfg.n)]
    posts1 = [p.round1() for p in parties]
    parties[0].receive_round1(posts1)
    curve, lift, prove_bit, lifts, bits = cfg.group, cfg.group.lift, rangeproof.prove_bit, [], []
    monkeypatch.setattr(curve, "lift", lambda pairs: lifts.append(len(pairs)) or lift(pairs))
    monkeypatch.setattr(rangeproof, "prove_bit", lambda *a: bits.append(a) or prove_bit(*a))
    post = parties[0].round2(values)
    assert verify_contribution(cfg, post, parties[0].pads) == (True, None)
    return lifts, len(bits)


def test_secp256k1_l1_round2_lifts_every_bit_proof_at_once(monkeypatch):
    # m = 4 rows and the sum, L = 3 digits each: 15 bit proofs, one call
    # each, whose y, a0 and a1 are lifted together in one batch
    lifts, bits = _secp256k1_round2_lifts(BoundPolicy.l1(4), [1, 0, 2, 0], monkeypatch)
    assert (lifts, bits) == ([45], 15)


def test_secp256k1_l2_round2_lifts_its_squares_then_its_digits(monkeypatch):
    # the links need each C_j, so the m squares (C, W, K1, K2 each) are
    # lifted first, and the L digits of sum_j T_j^2 after the links
    policy = BoundPolicy.l2(2)
    lifts, bits = _secp256k1_round2_lifts(policy, [1, 0, -1, 1], monkeypatch)
    assert policy.L == 3
    assert (lifts, bits) == ([4 * 4, 3 * 3], 3)


def test_l1_session_refuses_illegal_vector():
    cfg = config(n=2, m=2, policy=BoundPolicy.l1(3))
    parties = [Party(cfg, i, random.Random(i)) for i in range(2)]
    posts1 = [p.round1() for p in parties]
    for p in parties:
        p.receive_round1(posts1)
    with pytest.raises(BoundExceeded):
        parties[0].round2([4, 0])


def test_policy_none_session_refuses_illegal_vector():
    # no bundle, but the same input rule at the nominal B (config's default 5)
    cfg = config(n=2, m=2)
    parties = [Party(cfg, i, random.Random(i)) for i in range(2)]
    posts1 = [p.round1() for p in parties]
    for p in parties:
        p.receive_round1(posts1)
    assert parties[0].round2([5, 0]).bundle is None
    with pytest.raises(BoundExceeded, match="element sum 6 > 5"):
        parties[1].round2([6, 0])
    with pytest.raises(NegativeEntry):
        parties[1].round2([-1, 1])


def test_spec_tally_example():
    cfg = config(n=3, m=2)
    _, _, posts2 = make_session(cfg, [[1, 0], [2, 1], [0, 4]])
    assert tally(cfg, posts2) == (3, 5)


def test_tally_all_zero():
    cfg = config(n=3, m=3)
    _, _, posts2 = make_session(cfg, [[0] * 3] * 3)
    assert tally(cfg, posts2) == (0, 0, 0)


def test_tally_missing_post():
    cfg = config(n=3, m=1)
    _, _, posts2 = make_session(cfg, [[1], [2], [3]])
    with pytest.raises(MissingPost, match="^party 2 missing from round 2$") as err:
        tally(cfg, posts2[:2])
    assert (err.value.party, err.value.round) == (2, 2)


def test_dropout_leaves_pads_uncancelled():
    # party 2 completes round 1 but never posts round 2: remaining posts
    # cannot be tallied (the masked product is not a small power of g)
    cfg = config(n=3, m=1)
    _, _, posts2 = make_session(cfg, [[1], [2], [3]])
    fake = dataclasses.replace(posts2[1], party=2)
    with pytest.raises(NotInWindow):
        tally(cfg, [posts2[0], posts2[1], fake])


def unchecked_post(party, values):
    """The round-2 post of a policy-none party that skips BoundPolicy.check:
    its slots encrypted as round2_generate encrypts them, and no bundle."""
    group, x = party.cfg.group, party.secret.x
    cts = tuple(encrypt_exp(group, v, xj, h) for v, xj, h in zip(values, x, party.pads))
    return Round2Post(party.index, cts, None)


def test_tally_names_the_slot_out_of_window():
    cfg = config(n=2, m=2)
    parties, _, posts2 = make_session(cfg, [[1, 2], [3, 2]])
    posts2[1] = unchecked_post(parties[1], [3, 9])  # sum 12 > B = 5
    with pytest.raises(NotInWindow, match="slot 1"):
        tally(cfg, posts2)


def session_ledger(cfg, vectors, order=None, posts=None):
    """An in-memory ledger of an honest session, posted in `order`."""
    _, posts1, posts2 = posts or make_session(cfg, vectors)
    ledger = Ledger(cfg.header())
    for round, round_posts in ((1, posts1), (2, posts2)):
        for i in order or range(cfg.n):
            ledger.append(round, i, round_posts[i].to_bytes(cfg.group))
    return ledger, posts2


def test_verify_ledger_returns_round2_posts_in_party_order():
    cfg = config(n=3, m=2, policy=BoundPolicy.l1(3))
    ledger, posts2 = session_ledger(cfg, [[1, 0], [2, 1], [0, 3]], order=[2, 0, 1])
    assert verify_ledger(cfg, ledger) == posts2
    assert tally(cfg, verify_ledger(cfg, ledger)) == (3, 4)


def test_verify_ledger_rejects_foreign_header():
    cfg = config(n=2, m=1)
    ledger, _ = session_ledger(cfg, [[1], [2]])
    other = config(n=2, m=1, session=bytes(16))
    with pytest.raises(LedgerRejected) as err:
        verify_ledger(other, ledger)
    assert err.value.check == "header"


def test_verify_ledger_rejects_dimension_mismatch():
    # the header's m sizes the read: a two-slot post does not read as one slot
    cfg = config(n=2, m=1)
    parties, posts1, posts2 = make_session(cfg, [[1], [2]])
    _, wide = round1_generate(config(n=2, m=2), 1, random.Random(3))
    ledger, _ = session_ledger(cfg, None, posts=(parties, [posts1[0], wide], posts2))
    with pytest.raises(LedgerRejected, match="seq 1 of party 1 malformed") as err:
        verify_ledger(cfg, ledger)
    assert (err.value.party, err.value.check) == (1, "malformed")


def test_verify_ledger_missing_post_names_the_round():
    cfg = config(n=3, m=1)
    ledger, _ = session_ledger(cfg, [[1], [2], [3]], order=[0, 2])
    with pytest.raises(MissingPost, match="party 1 missing from round 1") as err:
        verify_ledger(cfg, ledger)
    assert (err.value.party, err.value.round) == (1, 1)


def test_verify_contribution_detects_ciphertext_swap():
    cfg = config(n=2, m=2, policy=BoundPolicy.l1(3))
    parties, posts1, posts2 = make_session(cfg, [[2, 0], [1, 1]])
    pads0 = derive_pads(cfg, posts1, 0)
    x0 = parties[0].secret.x
    swapped_cts = (encrypt_exp(MOD, 3, x0[0], pads0[0]), posts2[0].cts[1])
    bad = dataclasses.replace(posts2[0], cts=swapped_cts)
    ok, reason = verify_contribution(cfg, bad, pads0)
    assert not ok and reason == "tuple"


def test_verify_contribution_rejects_cross_session_replay():
    cfg_a = config(n=2, m=1, policy=BoundPolicy.l1(3), session=bytes(16))
    cfg_b = config(n=2, m=1, policy=BoundPolicy.l1(3), session=bytes(range(16)))
    parties = [Party(cfg_a, i, random.Random(i)) for i in range(2)]
    posts1 = [p.round1() for p in parties]
    for p in parties:
        p.receive_round1(posts1)
    post = parties[0].round2([1])
    assert verify_contribution(cfg_a, post, derive_pads(cfg_a, posts1, 0)) == (True, None)
    # round-1 proofs are session-bound too, so deriving pads under the other
    # session already fails
    with pytest.raises(LedgerRejected) as exc:
        derive_pads(cfg_b, posts1, 0)
    assert (exc.value.party, exc.value.check) == (0, "round1")


def test_policy_kind_must_match_bundle():
    # only a post built in memory can carry a bundle of another policy
    cfg_l1 = config(n=2, m=1, policy=BoundPolicy.l1(3))
    _, posts1, posts2 = make_session(cfg_l1, [[1], [2]])
    cfg_none = config(n=2, m=1, policy=BoundPolicy("none", 5))
    ok, reason = verify_contribution(cfg_none, posts2[0], derive_pads(cfg_none, posts1, 0))
    assert not ok and reason == "malformed"


def test_party_state_machine_order():
    cfg = config(n=2, m=1)
    party = Party(cfg, 0, random.Random(0))
    with pytest.raises(RuntimeError):
        party.round2([1])
    post = party.round1()
    with pytest.raises(RuntimeError):
        party.round1()
    other = Party(cfg, 1, random.Random(1))
    posts1 = [post, other.round1()]
    party.receive_round1(posts1)
    party.round2([1])


def test_round1_serialization_roundtrip():
    cfg = config(n=2, m=3)
    _, posts = full_round1(cfg)
    for post in posts:
        assert Round1Post.from_bytes(MOD, post.to_bytes(MOD), post.party, cfg.m) == post


def test_round2_serialization_roundtrip():
    # only each ciphertext's B is posted, first: A comes back from round 1
    for policy in (BoundPolicy("none", 5), BoundPolicy.l1(3), BoundPolicy.l2(4)):
        cfg = config(n=2, m=2, policy=policy)
        _, posts1, posts2 = make_session(cfg, [[1, 1], [2, 0]])
        for post in posts2:
            data = post.to_bytes(MOD)
            elements = posts1[post.party].elements
            assert Round2Post.from_bytes(MOD, data, post.party, policy, elements) == post
            assert [ct.A for ct in post.cts] == list(elements)
            assert data[: 2 * MOD.element_bytes] == (
                b"".join(MOD.encode_element(ct.B) for ct in post.cts)
            )
            if post.bundle is None:
                assert len(data) == 2 * MOD.element_bytes


def test_round2_decoding_refuses_a_slot_count_other_than_round_1s():
    cfg = config(n=2, m=2, policy=BoundPolicy("none", 5))
    _, posts1, posts2 = make_session(cfg, [[1, 1], [2, 0]])
    data = posts2[0].to_bytes(MOD)
    with pytest.raises(MalformedEncoding, match="trailing bytes"):
        Round2Post.from_bytes(MOD, data, 0, cfg.policy, posts1[0].elements[:1])
    with pytest.raises(MalformedEncoding, match="truncated"):
        Round2Post.from_bytes(MOD, data, 0, cfg.policy, posts1[0].elements * 2)


@pytest.mark.parametrize(
    "posted, read",
    [
        (BoundPolicy.l1(3), BoundPolicy.l2(4)),
        (BoundPolicy.l2(4), BoundPolicy.l1(3)),
        (BoundPolicy.l1(3), BoundPolicy("none", 5)),
        (BoundPolicy("none", 5), BoundPolicy.l1(3)),
        (BoundPolicy.l1(3), BoundPolicy.l1(4)),
        (BoundPolicy.l1(4), BoundPolicy.l1(3)),
    ],
    ids=["l1-read-as-l2", "l2-read-as-l1", "l1-read-as-none", "none-read-as-l1",
         "L-2-read-as-3", "L-3-read-as-2"],
)
def test_round2_decoding_rejects_a_post_read_under_another_policy(posted, read):
    # the header's policy picks the bundle type and its L: nothing posted does
    cfg = config(n=2, m=2, policy=posted)
    _, posts1, posts2 = make_session(cfg, [[1, 1], [2, 0]])
    with pytest.raises(MalformedEncoding):
        Round2Post.from_bytes(MOD, posts2[0].to_bytes(MOD), 0, read, posts1[0].elements)


def _item_widths(group, value, kind=None) -> list:
    """The byte width of every element, scalar and challenge share that put()
    lays out for `value`, in wire order: records and bundles field by field,
    a field of declared kind Share at the share width."""
    if value is None:
        return []
    if kind is Share:
        return [Share.width(group)]
    if isinstance(value, int):
        return [group.scalar_bytes]
    if isinstance(value, tuple):
        return [w for item in value for w in _item_widths(group, item)]
    if dataclasses.is_dataclass(value):
        return [
            w for f in dataclasses.fields(value)
            for w in _item_widths(group, getattr(value, f.name), f.type)
        ]
    return [group.element_bytes]


def _variants(group, data: bytes, widths) -> list:
    """`data` whole, cut at every item boundary, and one element longer."""
    ends = list(itertools.accumulate(widths, initial=0))
    assert ends[-1] == len(data)
    return [data[:end] for end in ends] + [data + group.encode_element(group.g)]


@pytest.mark.parametrize(
    "group, policy",
    [
        (MOD, BoundPolicy("none", 5)),
        (MOD, BoundPolicy.l1(3)),
        (MOD, BoundPolicy.l2(4)),
        (groups.prod_group(), BoundPolicy.l1(3)),
    ],
    ids=["mod41-none", "mod41-l1", "mod41-l2", "secp256k1-l1"],
)
def test_decoding_fixes_every_posts_shape(group, policy):
    """A payload cut at any item boundary, or one element too long, fails to
    decode; whatever decodes has m slots and the header policy's bundle
    runs(m, L), the shape the ledger fold takes as given."""
    cfg = config(n=2, m=2, policy=policy, group=group)
    _, posts1, posts2 = make_session(cfg, [[1, 1], [2, 0]])
    post1, post2 = posts1[0], posts2[0]
    bundle_type = {"none": type(None), "l1": L1RangeProof, "l2": L2RangeProof}[policy.kind]
    decoded = 0
    widths = _item_widths(group, (post1.elements, post1.proof))
    for data in _variants(group, post1.to_bytes(group), widths):
        try:
            post = Round1Post.from_bytes(group, data, 0, cfg.m)
        except MalformedEncoding:
            continue
        decoded += 1
        assert len(post.elements) == cfg.m
    widths = _item_widths(group, (tuple(ct.B for ct in post2.cts), post2.bundle))
    for data in _variants(group, post2.to_bytes(group), widths):
        try:
            post = Round2Post.from_bytes(group, data, 0, policy, post1.elements)
        except MalformedEncoding:
            continue
        decoded += 1
        assert len(post.cts) == cfg.m and type(post.bundle) is bundle_type
        assert post.bundle is None or post.bundle.fits(cfg.m, policy.L)
    assert decoded == 2  # the honest payloads


# -- privacy ---------------------------------------------------------------------


def test_full_collusion_recovers_contribution():
    # n-1 colluding parties can reconstruct the last party's pad factors and
    # strip them; this is the protocol's stated privacy limit
    cfg = config(n=4, m=2)
    parties, posts1, posts2 = make_session(cfg, [[3, 1], [2, 2], [0, 5], [4, 0]])
    victim = 2
    colluders = [p for p in parties if p.index != victim]
    for j in range(cfg.m):
        A_vj = posts1[victim].elements[j]
        mask = MOD.identity
        for p in colluders:
            factor = A_vj ** p.secret.x[j]
            if p.index < victim:
                mask = mask * factor
            else:
                mask = mask / factor
        point = posts2[victim].cts[j].B / mask
        recovered = bsgs(MOD, point, DlogWindow(0, 10))
        assert recovered == [[3, 1], [2, 2], [0, 5], [4, 0]][victim][j]


def test_partial_collusion_leaves_ambiguity():
    # with two honest parties left, any candidate plaintext is consistent
    # with some in-group pad value, so the ciphertext alone pins nothing
    cfg = config(n=4, m=1, policy=BoundPolicy("none", 2), group=TOY)  # toy23: 4 * 2 < q = 11
    while True:
        try:
            parties, posts1, posts2 = make_session(cfg, [[2], [2], [0], [1]], seed=11)
            break
        except ValueError:
            continue
    victim_ct = posts2[0].cts[0]
    consistent = []
    for candidate in range(10):
        pad_value = victim_ct.B / TOY.g ** candidate
        if TOY.contains(pad_value):
            consistent.append(candidate)
    assert len(consistent) >= 2
