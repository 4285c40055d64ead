import dataclasses
import random

import pytest

from zorro import groups
from zorro.dlog import DlogWindow, bsgs
from zorro.elgamal import encrypt_exp
from zorro.errors import (
    BoundExceeded,
    LedgerRejected,
    MalformedEncoding,
    MissingPost,
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
from zorro.rangeproof import BoundPolicy
from zorro.sigma import verify_dlog

TOY = groups.toy_group()
MOD = groups.test_group()

SESSION = bytes(range(16))


def config(n=3, m=2, policy=None, group=MOD, session=SESSION):
    return ProtocolConfig(group, n, m, policy or BoundPolicy.none(), session)


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
        ProtocolConfig(MOD, 2, 1, BoundPolicy.none(), b"short")


def test_round1_proofs_verify():
    cfg = config(m=1)
    _, posts = full_round1(cfg)
    base = cfg.base_context()
    for post in posts:
        assert verify_round1(cfg, post)
        assert verify_dlog(MOD, post.elements[0], post.proofs[0], base.child(b"r1", post.party, 0))


def test_round1_posts_distinct():
    cfg = config()
    _, posts = full_round1(cfg)
    seen = {e for post in posts for e in post.elements}
    assert len(seen) == cfg.n * cfg.m


def test_round1_proofs_bound_to_party():
    cfg = config()
    _, posts = full_round1(cfg)
    swapped = dataclasses.replace(posts[0], proofs=posts[1].proofs)
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
        party_kp_rng = random.Random(10 + i)
        from zorro.elgamal import Keypair

        r2.append(round2_generate(cfg, i, values, secrets[i], pads, Keypair.generate(MOD, party_kp_rng), rng))
    # a single ciphertext alone does not decrypt to the plaintext: the pad
    # only cancels across the full set
    partial = r2[0].cts[0].B
    with pytest.raises(NotInWindow):
        bsgs(MOD, partial, DlogWindow(0, 10))
    result = tally(cfg, r2, window=DlogWindow(0, 10))
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


def test_l1_session_refuses_illegal_vector():
    cfg = config(n=2, m=2, policy=BoundPolicy.l1(3))
    parties = [Party(cfg, i, random.Random(i)) for i in range(2)]
    posts1 = [p.round1() for p in parties]
    for p in parties:
        p.receive_round1(posts1)
    with pytest.raises(BoundExceeded):
        parties[0].round2([4, 0])


def test_spec_tally_example():
    cfg = config(n=3, m=2)
    _, _, posts2 = make_session(cfg, [[1, 0], [2, 1], [0, 4]])
    assert tally(cfg, posts2, window=DlogWindow(0, 20)) == (3, 5)


def test_tally_all_zero():
    cfg = config(n=3, m=3)
    _, _, posts2 = make_session(cfg, [[0] * 3] * 3)
    assert tally(cfg, posts2, window=DlogWindow(0, 5)) == (0, 0, 0)


def test_tally_requires_window_without_policy():
    cfg = config(n=2, m=1)
    _, _, posts2 = make_session(cfg, [[1], [2]])
    with pytest.raises(ValueError):
        tally(cfg, posts2)


def test_tally_missing_post():
    cfg = config(n=3, m=1)
    _, _, posts2 = make_session(cfg, [[1], [2], [3]])
    with pytest.raises(MissingPost, match="^party 2 missing from round 2$") as err:
        tally(cfg, posts2[:2], window=DlogWindow(0, 10))
    assert (err.value.party, err.value.round) == (2, 2)


def test_dropout_leaves_pads_uncancelled():
    # party 2 completes round 1 but never posts round 2: remaining posts
    # cannot be tallied (the masked product is not a small power of g)
    cfg = config(n=3, m=1)
    _, _, posts2 = make_session(cfg, [[1], [2], [3]])
    fake = dataclasses.replace(posts2[1], party=2)
    with pytest.raises(NotInWindow):
        tally(cfg, [posts2[0], posts2[1], fake], window=DlogWindow(0, 10))


def test_tally_names_the_slot_out_of_window():
    cfg = config(n=2, m=2)
    _, _, posts2 = make_session(cfg, [[1, 2], [3, 9]])
    with pytest.raises(NotInWindow, match="slot 1"):
        tally(cfg, posts2, window=DlogWindow(0, 10))


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
    cfg = config(n=2, m=1)
    parties, posts1, posts2 = make_session(cfg, [[1], [2]])
    _, wide = round1_generate(config(n=2, m=2), 1, random.Random(3))
    ledger, _ = session_ledger(cfg, None, posts=(parties, [posts1[0], wide], posts2))
    with pytest.raises(LedgerRejected, match="party 1: 2 slots, expected 1") as err:
        verify_ledger(cfg, ledger)
    assert (err.value.party, err.value.check) == (1, "dimension")


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
    cfg_l1 = config(n=2, m=1, policy=BoundPolicy.l1(3))
    _, posts1, posts2 = make_session(cfg_l1, [[1], [2]])
    cfg_none = config(n=2, m=1, policy=BoundPolicy.none())
    ok, reason = verify_contribution(cfg_none, posts2[0], derive_pads(cfg_none, posts1, 0))
    assert not ok and reason == "policy"


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
        assert Round1Post.from_bytes(MOD, post.to_bytes(MOD)) == post


def test_round2_serialization_roundtrip():
    for policy in (BoundPolicy.none(), BoundPolicy.l1(3), BoundPolicy.l2(4)):
        cfg = config(n=2, m=2, policy=policy)
        _, _, posts2 = make_session(cfg, [[1, 1], [2, 0]])
        for post in posts2:
            assert Round2Post.from_bytes(MOD, post.to_bytes(MOD)) == post


# offsets in a round-2 post with m=2 on MOD: its bundle kind byte follows the
# tag, party, slot count and two ciphertexts; the bundle's own slot count
# follows the kind byte, the bundle tag and the 9-byte policy
_KIND_AT = 1 + 4 + 4 + 2 * 2 * MOD.element_bytes
_BUNDLE_M_AT = _KIND_AT + 1 + 1 + 9


@pytest.mark.parametrize(
    "policy, at, patch",
    [
        (BoundPolicy.l1(3), _KIND_AT, b"\x02"),
        (BoundPolicy.l2(4), _KIND_AT, b"\x01"),
        (BoundPolicy.l1(3), _KIND_AT, b"\x03"),
        (BoundPolicy.l1(3), 5, (1 << 20).to_bytes(4, "big")),
        (BoundPolicy.l2(4), _BUNDLE_M_AT, (1 << 20).to_bytes(4, "big")),
    ],
    ids=["l1-read-as-l2", "l2-read-as-l1", "kind-3", "slot-count-overrun", "bundle-count-overrun"],
)
def test_round2_decoding_rejects_inconsistent_layouts(policy, at, patch):
    cfg = config(n=2, m=2, policy=policy)
    _, _, posts2 = make_session(cfg, [[1, 1], [2, 0]])
    data = bytearray(posts2[0].to_bytes(MOD))
    data[at : at + len(patch)] = patch
    with pytest.raises(MalformedEncoding):
        Round2Post.from_bytes(MOD, bytes(data))


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
    cfg = config(n=4, m=1, group=TOY)
    while True:
        try:
            parties, posts1, posts2 = make_session(cfg, [[3], [2], [0], [4]], seed=11)
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
