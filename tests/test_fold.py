"""The check tables and their fold on secp256k1: each post's group equations
checked as one weighted multi_exp, with the checks one by one as the fallback
that gives the verdict.

Every dishonest variant below must fail the fold, and the verifiers must then
report exactly what they report with the fold turned off.  On mod41 and
secp256k1 alike, every check of a table must hold exactly when each of its
equations holds alone.
"""

import dataclasses
import functools
import hashlib
import random
import re

import pytest

from zorro import groups, protocol, rangeproof, sigma
from zorro.elgamal import encrypt_exp
from zorro.encoding import pack_u32
from zorro.errors import LedgerRejected, MissingPost
from zorro.groups import CurvePoint
from zorro.ledger import Ledger
from zorro.protocol import Party, ProtocolConfig, Round2Post, verify_ledger
from zorro.rangeproof import (
    BoundPolicy,
    L1RangeProof,
    L2RangeProof,
    _build_l1,
    _digit_randomness,
    _prove_digits,
    bits_of,
    prove_l1,
    prove_l2,
    verify_l1,
    verify_l2,
)
from zorro.sigma import (
    BitProof,
    DlogProof,
    FsTranscript,
    fold_holds,
    lift_proofs,
    prove_bit,
    prove_square,
    recorded,
    verify_dlog,
)

CURVE = groups.prod_group()
MOD = groups.test_group()


def _keys(group, m, rng):
    x = [group.random_scalar(rng) for _ in range(m)]
    pads = [group.g ** group.random_scalar(rng) for _ in range(m)]
    return x, pads


def _posted(values, x, pads, group=CURVE):
    return [encrypt_exp(group, t, xj, h) for t, xj, h in zip(values, x, pads)]


def _check(posted, proof, pads, ctx, expected, monkeypatch):
    """The fold holds exactly for an honest bundle, and verify_* returns the
    verdict of the sequential checks, which name `expected` (None: honest)."""
    verify = verify_l1 if isinstance(proof, L1RangeProof) else verify_l2
    verdict = (expected is None, expected)
    with monkeypatch.context() as patch:
        folded = _fold_spy(patch, sigma)
        assert verify(CURVE, posted, proof, _policy(proof), pads, ctx) == verdict
    assert folded == [expected is None]
    with monkeypatch.context() as patch:
        _sequentially(patch)
        assert verify(CURVE, posted, proof, _policy(proof), pads, ctx) == verdict


def _replace_bit(proofs, l, **changes):
    proofs = list(proofs)
    proofs[l] = dataclasses.replace(proofs[l], **changes)
    return tuple(proofs)


def _bit_plus_one(proofs, l, q):
    return _replace_bit(proofs, l, r1=(proofs[l].r1 + 1) % q)


def _pedersen(group, v, rho):
    return group.multi_exp(((group.g, v), (group.gamma, rho)))


def _wrong_pad_key(case):
    return case.posted, case.proof, [case.pads[0], case.pads[1] * case.group.g]


def test_folding_groups():
    assert sigma.folds(CURVE)
    assert not sigma.folds(MOD) and not sigma.folds(groups.toy_group())


@dataclasses.dataclass(frozen=True)
class Case:
    """One honest bundle and what it was proved from."""

    group: object
    values: list
    x: list
    pads: list
    ctx: FsTranscript
    proof: object
    rng: random.Random

    @property
    def posted(self):
        return _posted(self.values, self.x, self.pads, self.group)


# the honest bundles: prover, policy, values, rng seed and context tag
HONEST = {
    "l1": (prove_l1, BoundPolicy.l1(3), [2, 1], 111, b"fold-l1"),
    "l2": (prove_l2, BoundPolicy.l2(2), [1, -1], 222, b"fold-l2"),
}


def _policy(proof):
    """The policy of a bundle of this module: every l1 or l2 bundle here is
    proved under HONEST's policy of its kind."""
    return HONEST["l1" if isinstance(proof, L1RangeProof) else "l2"][1]


@functools.cache
def _case(group, kind):
    prove, policy, values, seed, tag = HONEST[kind]
    rng = random.Random(seed)
    x, pads = _keys(group, len(values), rng)
    ctx = FsTranscript(tag)
    proof = prove(group, _posted(values, x, pads, group), values, x, pads, policy, ctx, rng)
    return Case(group, values, x, pads, ctx, proof, rng)


@pytest.fixture(scope="module")
def l1_case():
    return _case(CURVE, "l1")


@pytest.fixture(scope="module")
def l2_case():
    return _case(CURVE, "l2")


def _forced_l1(case, digits, sum_digits, policy=None):
    c = case
    proof = _build_l1(
        c.group, c.posted, digits, sum_digits, c.x, c.pads, policy or _policy(c.proof), c.ctx,
        c.rng,
    )
    return c.posted, proof, c.pads


def _l1_row_bit(case):
    rows = list(case.proof.element_digit_proofs)
    rows[1] = _bit_plus_one(rows[1], 1, case.group.q)
    return case.posted, dataclasses.replace(case.proof, element_digit_proofs=tuple(rows)), case.pads


def _l1_sum_bit(case):
    sums = _bit_plus_one(case.proof.sum_digit_proofs, 0, case.group.q)
    return case.posted, dataclasses.replace(case.proof, sum_digit_proofs=sums), case.pads


def _l2_consistency(case):
    squares = list(case.proof.squares)
    squares[0] = _pedersen(case.group, 1, 5)
    return case.posted, dataclasses.replace(case.proof, squares=tuple(squares)), case.pads


def _l2_bit(case):
    bits = _bit_plus_one(case.proof.digit_proofs, 1, case.group.q)
    return case.posted, dataclasses.replace(case.proof, digit_proofs=bits), case.pads


def _l2_square(case):
    squares = list(case.proof.square_proofs)
    squares[1] = dataclasses.replace(squares[1], z3=(squares[1].z3 + 1) % case.group.q)
    return case.posted, dataclasses.replace(case.proof, square_proofs=tuple(squares)), case.pads


# One dishonest variant per label of each bundle's check table: the honest
# case -> (posted ciphertexts, bundle, pad keys).
L1_DISHONEST = {
    "tuple": _wrong_pad_key,
    "bit": _l1_row_bit,
    "sum": lambda c: _forced_l1(c, [[0, 1], [1, 0]], [0, 0]),  # the sum spells 0, not 3
    "sum_bit": _l1_sum_bit,
}
L2_DISHONEST = {
    "tuple": _wrong_pad_key,
    "consistency": _l2_consistency,
    "bit": _l2_bit,
    "square": _l2_square,
}
DISHONEST = {"l1": L1_DISHONEST, "l2": L2_DISHONEST}
# the (slot, digit) of the first entry each dishonest variant fails, which its
# rejection names
FAILS_AT = {
    "l1": {
        "tuple": (1, None), "bit": (1, 1), "sum": (None, None), "sum_bit": (None, 0),
    },
    "l2": {"tuple": (1, None), "consistency": (None, None), "bit": (None, 1), "square": (1, None)},
}


@pytest.mark.parametrize("kind, verify", [("l1", verify_l1), ("l2", verify_l2)], ids=["l1", "l2"])
def test_every_sequential_reason_has_a_dishonest_variant(kind, verify):
    """The reasons verify_* documents are the checks its table's entries
    name, and each has a dishonest variant here.  No two entries share a
    label, so a rejection names exactly one entry."""
    case = _case(CURVE, kind)
    documented = set(re.findall(r'"(\w+)"', verify.__doc__)) - {"malformed"}
    labels = [label for label, _, _ in case.proof.checks(case.posted, case.pads, case.ctx)]
    assert len(labels) == len(set(labels))
    assert {check for check, _, _ in labels} == documented == set(DISHONEST[kind])


def _holds_alone(group, verify, args) -> bool:
    """Whether the equations verify(group, *args) records all hold, each as its
    own multi_exp."""
    equations = recorded(group, verify, args)
    return equations is not None and all(
        group.multi_exp(terms) == group.identity for terms in equations
    )


def _failing_labels(group, table) -> list:
    """The labels of a check table's failing entries, in table order, after
    asserting that each entry's verify agrees with the equations it records."""
    failing = []
    for label, verify, args in table:
        ok = verify(group, *args)
        assert ok == _holds_alone(group, verify, args), (label, verify.__name__)
        if not ok:
            failing.append(label)
    return failing


@pytest.mark.parametrize("group", [MOD, CURVE], ids=lambda g: g.group_id)
@pytest.mark.parametrize(
    "kind, reason",
    [(kind, reason) for kind in ("l1", "l2") for reason in (None, *DISHONEST[kind])],
)
def test_each_bundle_check_is_its_equations(group, kind, reason):
    case = _case(group, kind)
    if reason is None:
        posted, proof, pads = case.posted, case.proof, case.pads
    else:
        posted, proof, pads = DISHONEST[kind][reason](case)
    failing = _failing_labels(group, proof.checks(posted, pads, case.ctx))
    assert failing[:1] == ([] if reason is None else [(reason, *FAILS_AT[kind][reason])])
    verify = verify_l1 if kind == "l1" else verify_l2
    assert verify(group, posted, proof, _policy(proof), pads, case.ctx) == (reason is None, reason)


@pytest.mark.parametrize("group", [MOD, CURVE], ids=lambda g: g.group_id)
@pytest.mark.parametrize("kind", ["l1", "l2"])
def test_every_response_is_in_the_equations(group, kind):
    """Each scalar of each proof in an honest bundle's table, shifted by one,
    fails the check both as verify and as its recorded equations: an
    equation the recording missed would let its responses go unchecked."""
    case = _case(group, kind)
    shifted = 0
    for label, verify, args in case.proof.checks(case.posted, case.pads, case.ctx):
        for k, proof in enumerate(args):
            if not dataclasses.is_dataclass(proof):
                continue
            for field in dataclasses.fields(proof):
                value = getattr(proof, field.name)
                if not isinstance(value, int):
                    continue
                forged = dataclasses.replace(proof, **{field.name: (value + 1) % group.q})
                forged_args = (*args[:k], forged, *args[k + 1:])
                assert not verify(group, *forged_args), (label, field.name)
                assert not _holds_alone(group, verify, forged_args), (label, field.name)
                shifted += 1
    assert shifted > 0


def _shifted_response(post, shift, group):
    """`post` with its round-1 response s moved by `shift`."""
    return dataclasses.replace(post, proof=DlogProof(post.proof.K, (post.proof.s + shift) % group.q))


@pytest.mark.parametrize("group", [MOD, CURVE], ids=lambda g: g.group_id)
@pytest.mark.parametrize("forged", [False, True], ids=["honest", "response-plus-one"])
def test_each_round1_check_is_its_equations(group, forged):
    cfg = ProtocolConfig(group, 2, 3, BoundPolicy.l1(3), bytes(16))
    _, post = protocol.round1_generate(cfg, 1, random.Random(55))
    if forged:
        post = _shifted_response(post, 1, group)
    table = protocol._round1_checks(cfg, [post])
    assert len(table) == 1
    assert _failing_labels(group, table) == ([(1, None)] if forged else [])
    assert sigma.first_failure(group, table) == ((1, None) if forged else None)


def test_honest_l1_bundle_passes_the_fold(l1_case, monkeypatch):
    _check(l1_case.posted, l1_case.proof, l1_case.pads, l1_case.ctx, None, monkeypatch)


@pytest.mark.parametrize("reason", L1_DISHONEST)
def test_dishonest_l1_bundle_fails_the_fold(l1_case, reason, monkeypatch):
    _check(*L1_DISHONEST[reason](l1_case), l1_case.ctx, reason, monkeypatch)


def test_honest_l2_bundle_passes_the_fold(l2_case, monkeypatch):
    _check(l2_case.posted, l2_case.proof, l2_case.pads, l2_case.ctx, None, monkeypatch)


@pytest.mark.parametrize("reason", L2_DISHONEST)
def test_dishonest_l2_bundle_fails_the_fold(l2_case, reason, monkeypatch):
    _check(*L2_DISHONEST[reason](l2_case), l2_case.ctx, reason, monkeypatch)


# -- round 1 and the ledger ---------------------------------------------------------


@pytest.fixture(scope="module")
def session():
    """An honest secp256k1 session: n = 2, m = 3, l1 bound 3."""
    cfg = ProtocolConfig(CURVE, 2, 3, BoundPolicy.l1(3), bytes(range(16)))
    parties = [Party(cfg, i, random.Random(330 + i)) for i in range(cfg.n)]
    posts1 = [p.round1() for p in parties]
    for p in parties:
        p.receive_round1(posts1)
    posts2 = [p.round2([1, 0, 2]) for p in parties]
    return cfg, parties, posts1, posts2


def _ledger(cfg, posts1, posts2):
    ledger = Ledger(cfg.header())
    for round, posts in ((1, posts1), (2, posts2)):
        for post in posts:
            ledger.append(round, post.party, post.to_bytes(cfg.group))
    return ledger


def _rejection(cfg, ledger):
    with pytest.raises(LedgerRejected) as err:
        verify_ledger(cfg, ledger)
    return err.value.party, err.value.check, str(err.value)


def _sequentially(monkeypatch):
    """Turn the fold off, leaving only the checks one by one."""
    for module in (sigma, protocol):
        monkeypatch.setattr(module, "folds", lambda group: False)


def _fold_spy(monkeypatch, module):
    results = []

    def spy(*args):
        results.append(fold_holds(*args))
        return results[-1]

    monkeypatch.setattr(module, "fold_holds", spy)
    return results


def test_honest_round1_posts_and_ledger_pass_the_fold(session, monkeypatch):
    cfg, _, posts1, posts2 = session
    folded = _fold_spy(monkeypatch, sigma)
    assert all(protocol.verify_round1(cfg, post) for post in posts1)
    assert folded == [True] * cfg.n
    assert verify_ledger(cfg, _ledger(cfg, posts1, posts2)) == posts2


def test_round1_response_plus_one_names_the_party(session, monkeypatch):
    cfg, _, posts1, posts2 = session
    forged = _shifted_response(posts1[1], 1, CURVE)
    ctx = cfg.context(1, forged.party)
    assert not verify_dlog(CURVE, forged.elements, forged.proof, ctx)
    folded = _fold_spy(monkeypatch, sigma)
    assert sigma.first_failure(CURVE, protocol._round1_checks(cfg, [forged])) == (1, None)
    assert folded == [False]

    ledger = _ledger(cfg, [posts1[0], forged], posts2)
    verdict = _rejection(cfg, ledger)
    assert verdict == (1, "round1", "round-1 proof of party 1 rejected (round1)")
    _sequentially(monkeypatch)
    assert _rejection(cfg, ledger) == verdict


def _forged_bit(group, y, ctx, rng):
    """A bit proof of digit y with both branches simulated, each from a share
    in the challenge space [0, N): no split of the hash challenge answers
    both, so it fails unless y commits to a bit and log_gamma(g) is known."""
    d0, d1 = group.random_share(rng), group.random_share(rng)
    r0, r1 = group.random_scalar(rng), group.random_scalar(rng)
    a0, a1 = sigma._bit_branch(group, y, 0, d0, r0), sigma._bit_branch(group, y, 1, d1, r1)
    return BitProof(y, a0, a1, d0, r0, r1)


def _row_of(case, j, digits):
    """Bit proofs of row j spelling `digits`, under randomness that recomposes
    to x_j: each digit l is g^d * gamma^rho_l, a non-bit one with _forged_bit."""
    c = case
    row_ctx = c.ctx.child(b"bit", j)
    rand = _digit_randomness(c.group, c.x[j], len(digits), c.rng)
    return tuple(
        lift_proofs(c.group, [prove_bit(c.group, d, rho, row_ctx.child(l), c.rng)])[0]
        if d in (0, 1)
        else _forged_bit(c.group, _pedersen(c.group, d, rho), row_ctx.child(l), c.rng)
        for l, (d, rho) in enumerate(zip(digits, rand))
    )


def _with_row(case, j, digits):
    rows = list(case.proof.element_digit_proofs)
    rows[j] = _row_of(case, j, digits)
    return dataclasses.replace(case.proof, element_digit_proofs=tuple(rows))


@pytest.mark.parametrize("check, named", [
    ("tuple", ": slot 2"), ("bit", ": slot 2, digit 0"),
])
def test_dishonest_contribution_on_the_ledger_names_the_party(session, check, named, monkeypatch):
    """Slot 2 of party 1 holds 2.  Its row spelling 1, under randomness that
    recomposes to x_2, commits to 1, so the link of slot 2 fails; its row
    spelling 2 as the digits (2, 0) keeps the link, and the bit proof of its
    digit 0 fails."""
    cfg, parties, posts1, posts2 = session
    party = parties[1]
    values = [1, 0, 2]
    ctx = cfg.context(2, party.index)
    cts = tuple(_posted(values, party.secret.x, party.pads))
    if check == "tuple":
        digits = [bits_of(1, 2), bits_of(0, 2), bits_of(1, 2)]
        bundle = _build_l1(
            CURVE, cts, digits, bits_of(3, 2), party.secret.x, party.pads, cfg.policy, ctx,
            random.Random(9),
        )
    else:
        case = Case(CURVE, values, list(party.secret.x), list(party.pads), ctx,
                    posts2[1].bundle, random.Random(9))
        bundle = _with_row(case, 2, [2, 0])
    forged = Round2Post(party.index, cts, bundle)
    _check(cts, bundle, party.pads, ctx, check, monkeypatch)

    ledger = _ledger(cfg, posts1, [posts2[0], forged])
    verdict = _rejection(cfg, ledger)
    assert verdict[:2] == (1, check) and verdict[2].endswith(named)
    _sequentially(monkeypatch)
    assert _rejection(cfg, ledger) == verdict


def _recording_weights(monkeypatch) -> list:
    """Every fold_weights result, in call order."""
    drawn, weights = [], sigma.fold_weights

    def recording(group, equations):
        drawn.append(weights(group, equations))
        return drawn[-1]

    monkeypatch.setattr(sigma, "fold_weights", recording)
    return drawn


def _fold_under(monkeypatch, weights, parts) -> bool:
    """fold_holds(CURVE, parts) with `weights` in place of fold_weights."""
    with monkeypatch.context() as patch:
        patch.setattr(sigma, "fold_weights", lambda group, equations: weights)
        return fold_holds(CURVE, parts)


def test_fold_weights_bind_the_responses(session, monkeypatch):
    """The responses of both round-1 posts shifted so that the shifts cancel
    under the honest posts' weights: a fold whose weights skipped the
    responses would accept them."""
    cfg, _, posts1, _ = session
    drawn = _recording_weights(monkeypatch)
    assert sigma.first_failure(CURVE, protocol._round1_checks(cfg, posts1)) is None
    honest_weights = w = drawn[-1]

    delta = 0x5EED
    forged = [
        _shifted_response(post, shift, CURVE)
        for post, shift in zip(posts1, (delta * w[1], -delta * w[0]))
    ]
    parts = sigma.fold_parts(CURVE, protocol._round1_checks(cfg, forged))
    # the shifts cancel under these weights
    assert _fold_under(monkeypatch, honest_weights, parts)

    assert sigma.first_failure(CURVE, protocol._round1_checks(cfg, forged)) == (0, None)
    assert drawn[-1] != honest_weights
    assert not fold_holds(CURVE, parts)


def _changed_terms(equations, rng, samples):
    """(kind, the changed equations) for `samples` terms of `equations` drawn
    by rng, each changed in its base, in its exponent, and by q."""
    q = CURVE.q
    for _ in range(samples):
        k = rng.randrange(len(equations))
        t = rng.randrange(len(equations[k]))
        base, e = equations[k][t]
        for kind, term in (
            ("base", (base * CURVE.g, e)),
            ("exponent", (base, (e + 1) % q)),
            ("same exponent mod q", (base, e + q)),
        ):
            terms = list(equations[k])
            terms[t] = term
            yield kind, [*equations[:k], terms, *equations[k + 1:]]


@pytest.mark.parametrize("table", ["round1", "l1"])
def test_changing_any_term_changes_the_weights(session, l1_case, table):
    """On secp256k1, a changed base or exponent mod q of any one term of an
    honest table changes fold_weights; an exponent changed by q does not."""
    if table == "round1":
        cfg, _, posts1, _ = session
        checks = protocol._round1_checks(cfg, posts1)
    else:
        checks = l1_case.proof.checks(l1_case.posted, l1_case.pads, l1_case.ctx)
    equations = [eq for part in sigma.fold_parts(CURVE, checks) for eq in part]
    honest = sigma.fold_weights(CURVE, equations)
    assert len(set(honest)) == len(equations)
    kinds = set()
    for kind, changed in _changed_terms(equations, random.Random(table), 12):
        assert (sigma.fold_weights(CURVE, changed) == honest) == (kind == "same exponent mod q")
        kinds.add(kind)
    assert len(kinds) == 3


@pytest.fixture(scope="module")
def round1_of_three():
    """Honest secp256k1 round-1 posts of n = 3 parties, m = 2."""
    cfg = ProtocolConfig(CURVE, 3, 2, BoundPolicy.l1(3), bytes(range(3, 19)))
    rng = random.Random(303)
    return cfg, [protocol.round1_generate(cfg, i, rng)[1] for i in range(cfg.n)]


def _bad_proof(post):
    return _shifted_response(post, 1, CURVE)


def _one_slot_short(post):
    return dataclasses.replace(post, elements=post.elements[:1])


ROUND1_FORGERIES = {
    # which posts change (party -> forgery), and the party named
    "bad proof in party 2": ({2: _bad_proof}, 2),
    "bad proof, then wrong dimension": ({1: _bad_proof, 2: _one_slot_short}, 1),
    "wrong dimension, then bad proof": ({1: _one_slot_short, 2: _bad_proof}, 1),
}


@pytest.mark.parametrize("forgery", ROUND1_FORGERIES)
def test_round1_is_one_table_and_names_the_first_failing_post(
    round1_of_three, forgery, monkeypatch
):
    """_check_round1 folds all n posts once and, whether or not it folds,
    names the party of the first failing post in the given order, and no
    slot."""
    cfg, posts1 = round1_of_three
    forged_at, party = ROUND1_FORGERIES[forgery]
    posts = [forged_at.get(i, lambda p: p)(post) for i, post in enumerate(posts1)]

    def verdict():
        with pytest.raises(LedgerRejected) as err:
            protocol._check_round1(cfg, posts)
        return err.value.party, err.value.check, str(err.value)

    with monkeypatch.context() as patch:
        folded = _fold_spy(patch, sigma)
        protocol._check_round1(cfg, posts1)
        assert folded == [True]
        folded.clear()
        with_fold = verdict()
        assert folded == [False]
    assert with_fold == (party, "round1", f"round-1 proof of party {party} rejected (round1)")
    with monkeypatch.context() as patch:
        _sequentially(patch)
        assert verdict() == with_fold


def test_modular_groups_never_fold(monkeypatch):
    rng = random.Random(444)
    policy = BoundPolicy.l1(3)
    x = [MOD.random_scalar(rng) for _ in range(2)]
    pads = [MOD.g ** MOD.random_scalar(rng) for _ in range(2)]
    ctx = FsTranscript(b"no-fold")
    cts = [encrypt_exp(MOD, t, xj, h) for t, xj, h in zip([1, 2], x, pads)]
    proof = prove_l1(MOD, cts, [1, 2], x, pads, policy, ctx, rng)
    folded = _fold_spy(monkeypatch, sigma)
    assert verify_l1(MOD, cts, proof, policy, pads, ctx) == (True, None)
    assert folded == []


# -- one fold per ledger ------------------------------------------------------------


def _session_ledger(policy, vectors, seed):
    """An honest secp256k1 session of `vectors` under `policy`: its config,
    parties, posts and the values of party 1."""
    session = bytes(range(seed, seed + 16))
    cfg = ProtocolConfig(CURVE, len(vectors), len(vectors[0]), policy, session)
    parties = [Party(cfg, i, random.Random(seed + i)) for i in range(cfg.n)]
    posts1 = [p.round1() for p in parties]
    for p in parties:
        p.receive_round1(posts1)
    posts2 = [p.round2(values) for p, values in zip(parties, vectors)]
    return cfg, parties, posts1, posts2, vectors[1]


# party 1 posts the values of l1_case / l2_case, so every dishonest variant fits it
@pytest.fixture(scope="module")
def l1_ledger():
    return _session_ledger(BoundPolicy.l1(3), [[1, 1], [2, 1]], 50)


@pytest.fixture(scope="module")
def l2_ledger():
    return _session_ledger(BoundPolicy.l2(2), [[0, 1], [1, -1]], 70)


def _party_case(ledger):
    """The Case of party 1's honest contribution to a _session_ledger."""
    cfg, parties, _, posts2, values = ledger
    party = parties[1]
    ctx = cfg.context(2, party.index)
    return Case(
        CURVE, values, list(party.secret.x), list(party.pads), ctx, posts2[1].bundle,
        random.Random(party.index),
    )


def _ledger_wrong_pad_key(case):
    """The ledger form of _wrong_pad_key: on a ledger the verifier takes the
    pad keys from round 1, so the bundle is proved under a wrong one."""
    prove = prove_l1 if isinstance(case.proof, L1RangeProof) else prove_l2
    pads = [case.pads[0], case.pads[1] * CURVE.g]
    c = case
    proof = prove(CURVE, c.posted, c.values, c.x, pads, _policy(c.proof), c.ctx, c.rng)
    return case.posted, proof, case.pads


def _ledger_variant(ledger, variants, reason):
    """The ledger with party 1's contribution replaced by variants[reason]."""
    cfg, _, posts1, posts2, _ = ledger
    case = _party_case(ledger)
    variant = _ledger_wrong_pad_key if reason == "tuple" else variants[reason]
    posted, bundle, pads = variant(case)
    assert pads == case.pads
    return cfg, _ledger(cfg, posts1, [posts2[0], Round2Post(1, tuple(posted), bundle)])


def _verdict(cfg, ledger):
    """What verify_ledger says: ("ok",) or the exception's type, party, check
    and message, and for a LedgerRejected its (slot, digit)."""
    try:
        verify_ledger(cfg, ledger)
    except LedgerRejected as exc:
        return "LedgerRejected", exc.party, exc.check, str(exc), (exc.slot, exc.digit)
    except MissingPost as exc:
        return "MissingPost", exc.party, None, str(exc)
    return ("ok",)


def _agrees(cfg, ledger, monkeypatch):
    """The verdict with the ledger fold, which must equal the verdict without
    it, and the results of the ledger folds it ran: none when a check before
    the fold decided, else one that held exactly when the ledger passed."""
    with monkeypatch.context() as patch:
        results = _fold_spy(patch, protocol)
        folded = _verdict(cfg, ledger)
    assert results in ([], [folded == ("ok",)])
    with monkeypatch.context() as patch:
        _sequentially(patch)
        assert _verdict(cfg, ledger) == folded
    return folded, results


def test_honest_ledger_is_one_fold(l1_ledger, monkeypatch):
    cfg, _, posts1, posts2, _ = l1_ledger
    ledger = _ledger(cfg, posts1, posts2)
    folded = _fold_spy(monkeypatch, protocol)
    calls = []
    for name in ("derive_pads", "verify_dlog"):

        def spy(*args, _name=name, _real=getattr(protocol, name)):
            calls.append((_name, args[0] is CURVE))
            return _real(*args)

        monkeypatch.setattr(protocol, name, spy)
    assert verify_ledger(cfg, ledger) == posts2
    # each party's round-1 proof is recorded for the fold once, and never
    # checked on the group
    assert folded == [True] and calls == [("verify_dlog", False)] * cfg.n


@pytest.mark.parametrize("reason", L1_DISHONEST)
def test_dishonest_l1_contribution_reads_the_same_with_the_ledger_fold(
    l1_ledger, reason, monkeypatch
):
    cfg, ledger = _ledger_variant(l1_ledger, L1_DISHONEST, reason)
    verdict, folds = _agrees(cfg, ledger, monkeypatch)
    assert verdict[1:3] == (1, reason) and folds == [False]
    assert verdict[4] == FAILS_AT["l1"][reason]


@pytest.mark.parametrize("reason", L2_DISHONEST)
def test_dishonest_l2_contribution_reads_the_same_with_the_ledger_fold(
    l2_ledger, reason, monkeypatch
):
    cfg, ledger = _ledger_variant(l2_ledger, L2_DISHONEST, reason)
    verdict, folds = _agrees(cfg, ledger, monkeypatch)
    assert verdict[1:3] == (1, reason) and folds == [False]
    assert verdict[4] == FAILS_AT["l2"][reason]


@pytest.mark.parametrize("delta", [1, -1], ids=["d0+1", "d0-1"])
@pytest.mark.parametrize("where, check, named", [
    ("row", "bit", "slot 1, digit 0"), ("sum", "sum_bit", "digit 1"),
])
def test_bit_d0_off_by_one_reads_the_same_with_the_ledger_fold(
    l1_ledger, delta, where, check, named, monkeypatch
):
    """d1 is not posted: the verifier takes c - d0, so a d0 off by one moves
    both branch challenges and fails the bit proof it sits in."""
    cfg, _, posts1, posts2, _ = l1_ledger
    bundle, N = posts2[1].bundle, CURVE.challenge_space
    if where == "row":
        rows = list(bundle.element_digit_proofs)
        rows[1] = _replace_bit(rows[1], 0, d0=(rows[1][0].d0 + delta) % N)
        forged = dataclasses.replace(bundle, element_digit_proofs=tuple(rows))
    else:
        sums = bundle.sum_digit_proofs
        forged = dataclasses.replace(
            bundle, sum_digit_proofs=_replace_bit(sums, 1, d0=(sums[1].d0 + delta) % N)
        )
    post = dataclasses.replace(posts2[1], bundle=forged)
    verdict, folds = _agrees(cfg, _ledger(cfg, posts1, [posts2[0], post]), monkeypatch)
    assert verdict[1:3] == (1, check) and verdict[3].endswith(f"({check}): {named}")
    assert folds == [False]


# -- binding: a commitment opens to one value unless log_gamma(g) is known ----------


@pytest.fixture(scope="module")
def binding_l1_ledger():
    """An honest secp256k1 l1 session, bound 4 (L = 3): party 1 posts [2, 1],
    so its digits can spell its sum plus one and its slot 0 as (2, 0, 0)."""
    return _session_ledger(BoundPolicy.l1(4), [[1, 1], [2, 1]], 110)


def _row_spells_one_more(case, policy):
    """Row 1 spells T_1 + 1 = 2 under randomness that still recomposes to x_1."""
    return _with_row(case, 1, bits_of(case.values[1] + 1, policy.L))


def _sum_spells_one_more(case, policy):
    """The sum's digits spell S + 1 under randomness recomposing to sum_j x_j."""
    c = case
    rand = _digit_randomness(c.group, sum(c.x) % c.group.q, policy.L, c.rng)
    sums = _prove_digits(
        c.group, bits_of(sum(c.values) + 1, policy.L), rand, c.ctx.child(b"sumbit"), c.rng
    )
    return dataclasses.replace(c.proof, sum_digit_proofs=tuple(lift_proofs(c.group, sums)))


def _digit_of_two(case, policy):
    """Row 0 spells T_0 = 2 as the digits (2, 0, 0): digit 0 is g^2 * gamma^rho."""
    return _with_row(case, 0, [2] + [0] * (policy.L - 1))


def _square_of_one_more(case, policy):
    """An L2 bundle whose W_1 holds T_1^2 + 1, with digits spelling the sum of
    the squares plus one, so that only the square proof of slot 1 fails."""
    c, group = case, case.group
    s_w = [group.random_scalar(c.rng) for _ in c.values]
    Cs, Ws, proofs = zip(*lift_proofs(group, [
        prove_square(group, t, xj, sj, c.ctx.child(b"square", j), c.rng)
        for j, (t, xj, sj) in enumerate(zip(c.values, c.x, s_w))
    ]))
    Ws = (Ws[0], Ws[1] * group.g)
    links = rangeproof._link_proofs(group, c.posted, Cs, c.x, c.pads, c.ctx, c.rng)
    rand = _digit_randomness(group, sum(s_w) % group.q, policy.L, c.rng)
    total = sum(t * t for t in c.values) + 1
    digits = _prove_digits(group, bits_of(total, policy.L), rand, c.ctx.child(b"bit"), c.rng)
    return L2RangeProof(Cs, links, tuple(lift_proofs(group, digits)), Ws, proofs)


BINDING = {
    # forgery: (bundle kind, forger, the (check, slot, digit) its rejection names)
    "row spells T_j + 1": ("l1", _row_spells_one_more, ("tuple", 1, None)),
    "sum spells S + 1": ("l1", _sum_spells_one_more, ("sum", None, None)),
    "digit g^2 gamma^rho": ("l1", _digit_of_two, ("bit", 0, 0)),
    "square T_j^2 + 1": ("l2", _square_of_one_more, ("square", 1, None)),
}


@pytest.mark.parametrize("forgery", BINDING)
def test_a_commitment_to_another_value_is_rejected_naming_where(
    binding_l1_ledger, l2_ledger, forgery, monkeypatch
):
    """Each forgery commits to a value other than the honest one where only
    log_gamma(g) would let the commitment keep its old value.  The bundle
    fails the check that opens it, and the ledger names party 1, that check
    and its slot or digit, with and without the fold."""
    kind, forge, (check, slot, digit) = BINDING[forgery]
    ledger = binding_l1_ledger if kind == "l1" else l2_ledger
    cfg, _, posts1, posts2, _ = ledger
    case = _party_case(ledger)
    bundle = forge(case, cfg.policy)
    verify = verify_l1 if kind == "l1" else verify_l2
    assert verify(CURVE, case.posted, bundle, cfg.policy, case.pads, case.ctx) == (False, check)
    forged = Round2Post(1, tuple(case.posted), bundle)
    verdict, folds = _agrees(cfg, _ledger(cfg, posts1, [posts2[0], forged]), monkeypatch)
    assert verdict[1:3] == (1, check) and verdict[4] == (slot, digit) and folds == [False]


@pytest.mark.parametrize("bundle", ["other kind", "other bound"])
def test_wrong_policy_bundle_reads_the_same_with_the_ledger_fold(
    l1_ledger, l2_ledger, bundle, monkeypatch
):
    """The header's policy picks how a bundle is read, so a bundle of another
    kind or digit count does not decode: no fold runs."""
    cfg, _, posts1, posts2, _ = l1_ledger
    if bundle == "other kind":
        forged = l2_ledger[3][1].bundle
    else:
        case = _party_case(l1_ledger)
        forged = prove_l1(CURVE, case.posted, case.values, case.x, case.pads,
                          BoundPolicy.l1(7), case.ctx, case.rng)
    ledger = _ledger(cfg, posts1, [posts2[0], dataclasses.replace(posts2[1], bundle=forged)])
    verdict, folds = _agrees(cfg, ledger, monkeypatch)
    assert verdict[1:3] == (1, "malformed") and folds == []


def test_round1_response_plus_one_reads_the_same_with_the_ledger_fold(session, monkeypatch):
    cfg, _, posts1, posts2 = session
    forged = _shifted_response(posts1[1], 1, CURVE)
    verdict, folds = _agrees(cfg, _ledger(cfg, [posts1[0], forged], posts2), monkeypatch)
    assert verdict[1:4] == (1, "round1", "round-1 proof of party 1 rejected (round1)")
    assert verdict[4] == (None, None) and folds == [False]


def test_flipped_round2_bytes_read_the_same_with_the_ledger_fold(l1_ledger, monkeypatch):
    """A derandomized slice of the ledger fuzzer on secp256k1: one bit of a
    round-2 payload flipped, the ledger re-chained."""
    cfg, _, posts1, posts2, _ = l1_ledger
    honest = _ledger(cfg, posts1, posts2)
    rng = random.Random(2024)
    checks, folded = set(), 0
    for _ in range(30):
        target = rng.choice([e.seq for e in honest.entries if e.round == 2])
        bit = rng.randrange(8 * len(honest.entries[target].payload))
        ledger = Ledger(cfg.header())
        for entry in honest.entries:
            payload = bytearray(entry.payload)
            if entry.seq == target:
                payload[bit // 8] ^= 1 << bit % 8
            ledger.append(entry.round, entry.party, bytes(payload))
        verdict, folds = _agrees(cfg, ledger, monkeypatch)
        checks.add(verdict[2])
        folded += len(folds)
    # some flips fail to decode, others reach the fold and fail it
    assert "malformed" in checks and folded > 0


def test_ledger_fold_weights_cover_every_post(session, monkeypatch):
    """Round-1 responses of parties 0 and 1 shifted so that the shifts cancel
    under the honest ledger's weights: weights drawn from each post alone, or
    from fewer than all posts, could accept them."""
    cfg, _, posts1, posts2 = session
    drawn = _recording_weights(monkeypatch)
    assert verify_ledger(cfg, _ledger(cfg, posts1, posts2)) == posts2
    (honest_weights,) = drawn
    # the ledger's equations start with party 0's round-1 proof, then party 1's
    w, delta = honest_weights, 0x5EED
    shifted = [
        _shifted_response(post, shift, CURVE)
        for post, shift in zip(posts1, (delta * w[1], -delta * w[0]))
    ]
    parts = sigma.fold_parts(CURVE, protocol._ledger_checks(cfg, shifted, posts2))
    assert _fold_under(monkeypatch, honest_weights, parts)

    verdict = _rejection(cfg, _ledger(cfg, shifted, posts2))
    assert verdict == (0, "round1", "round-1 proof of party 0 rejected (round1)")


# per pinned ledger: its ledger-fold equation count and the SHA-256 of, equation
# by equation, u32(term count) then each term as fold_weights encodes it.  A bit
# or square proof is two equations, and a row adds none: C_j is that row's
# recomposition, and the sum check is one equation over the row digits.
LEDGER_FOLD_DIGESTS = {
    "l1": (36, "ae2c4431b0aebe5aa43436beaf5264982e23b5dfd45a48698037f12c066efef0"),
    "l2": (32, "1e8532fddd93fa3c822b854f776cce45feaffa933ec6da392819537acb225417"),
}


@pytest.mark.parametrize("kind", sorted(LEDGER_FOLD_DIGESTS))
def test_ledger_fold_equations_are_pinned(l1_ledger, l2_ledger, kind):
    """Every term of every ledger-fold equation, in order, is pinned: a
    verifier that records a term differently changes the fold's weights."""
    cfg, _, posts1, posts2, _ = l1_ledger if kind == "l1" else l2_ledger
    parts = sigma.fold_parts(CURVE, protocol._ledger_checks(cfg, posts1, posts2))
    equations = [eq for part in parts for eq in part]
    h = hashlib.sha256()
    for terms in equations:
        h.update(pack_u32(len(terms)))
        for base, e in terms:
            h.update(CURVE.encode_element(base) + CURVE.encode_scalar(e))
    assert (len(equations), h.hexdigest()) == LEDGER_FOLD_DIGESTS[kind]


@pytest.fixture(scope="module")
def vote_ledger():
    """An honest secp256k1 session shaped like a vote: n = 3, m = 4, l1 bound 4."""
    return _session_ledger(BoundPolicy.l1(4), [[1, 0, 2, 0], [0, 1, 1, 1], [3, 0, 0, 1]], 90)


def test_vote_ledger_fold_has_198_variable_bases(vote_ledger):
    """Per party: m round-1 elements and the one commitment of their dlog
    proof, m pad bases h_pad / gamma, m quotients ct_j.B / C_j, 2m link
    commitments and 15 digits of one point and two commitments each; every
    bit branch and the sum check are stated over the digits, g and gamma,
    which the fold already holds.  So g, gamma and 3 * 66 = 198 variable
    bases.  The fold, several batches of bucket windows, holds."""
    cfg, _, posts1, posts2, _ = vote_ledger
    parts = sigma.fold_parts(CURVE, protocol._ledger_checks(cfg, posts1, posts2))
    bases = {base for part in parts for terms in part for base, _ in terms}
    assert {CURVE.g, CURVE.gamma} <= bases and len(bases) - 2 == 198
    assert fold_holds(CURVE, parts)


def test_tampered_vote_ledger_fails_the_bucket_fold(vote_ledger, monkeypatch):
    """One bit-1 response off by one on a ledger folded through buckets: the
    fold fails, and the rejection names the party and check of the
    sequential path."""
    cfg, _, posts1, posts2, _ = vote_ledger
    bundle = posts2[2].bundle
    rows = list(bundle.element_digit_proofs)
    rows[3] = _replace_bit(rows[3], 0, r1=(rows[3][0].r1 + 1) % CURVE.q)
    forged = dataclasses.replace(bundle, element_digit_proofs=tuple(rows))
    ledger = _ledger(cfg, posts1, [*posts2[:2], dataclasses.replace(posts2[2], bundle=forged)])
    sizes, buckets = [], CURVE._buckets
    monkeypatch.setattr(CURVE, "_buckets", lambda bases, scalars: sizes.append(len(bases))
                        or buckets(bases, scalars))
    verdict, folds = _agrees(cfg, ledger, monkeypatch)
    assert verdict[1:3] == (2, "bit") and folds == [False]
    assert max(sizes) == 198  # the ledger fold's variable bases


def _honest_dh_tuple():
    """A DH-tuple statement with base g and g^5, its proof and its context."""
    h, w, ctx = CURVE.g ** 5, 7, FsTranscript(b"dh")
    statement = (CURVE.g, h, CURVE.g ** w, h ** w)
    return statement, sigma.prove_dh_tuple(CURVE, w, statement, ctx, random.Random(5)), ctx


def _checks(table, label):
    """The (verify, args) of every entry of a check table labelled `label`."""
    return [(verify, args) for name, verify, args in table if name == label]


def test_each_verifier_records_its_equations(session, l1_case, l2_case):
    """On honest input each verifier records exactly its group equations."""
    cfg, _, posts1, _ = session
    tables = [protocol._round1_checks(cfg, posts1)] + [
        case.proof.checks(case.posted, case.pads, case.ctx) for case in (l1_case, l2_case)
    ]
    counts = {}
    for table in tables:
        for _, verify, args in table:
            counts.setdefault(verify.__name__, set()).add(len(recorded(CURVE, verify, args)))
    statement, proof, ctx = _honest_dh_tuple()
    counts["verify_dh_tuple"] = {len(recorded(CURVE, sigma.verify_dh_tuple, (statement, proof, ctx)))}
    assert counts == {
        "verify_dlog": {1}, "verify_dh_tuple": {2}, "verify_bit": {2}, "verify_square": {2},
        "verify_reencryption_link": {2}, "_recomposes": {1},
    }


def test_a_failed_guard_is_a_none_part(session, l1_case):
    """A guard outside the group equations runs on real values: when it fails,
    the check is False and its fold part None.  A failed equation is not a
    guard: it is recorded like a true one, as a bit proof's d0 off by one is."""
    cfg, _, posts1, _ = session
    table = l1_case.proof.checks(l1_case.posted, l1_case.pads, l1_case.ctx)
    [(_, (As, dlog, dlog_ctx))] = _checks(protocol._round1_checks(cfg, posts1), (0, None))
    statement, dh, dh_ctx = _honest_dh_tuple()
    [(_, (bit, bit_ctx))] = _checks(table, ("bit", 0, 0))
    q = CURVE.q
    guarded = {
        "dlog element off the curve": (
            verify_dlog, ((*As[:-1], CurvePoint(CURVE, 1, 1)), dlog, dlog_ctx)
        ),
        "DH tuple g1 identity": (
            sigma.verify_dh_tuple, ((CURVE.identity, *statement[1:]), dh, dh_ctx)
        ),
        "DH tuple h1 identity": (
            sigma.verify_dh_tuple, ((statement[0], CURVE.identity, *statement[2:]), dh, dh_ctx)
        ),
        "round-1 post of the wrong dimension": (protocol._refused, ()),
    }
    for what, (verify, args) in guarded.items():
        assert not verify(CURVE, *args), what
        assert recorded(CURVE, verify, args) is None, what
    forged = DlogProof(dlog.K, (dlog.s + 1) % q)
    assert not verify_dlog(CURVE, As, forged, dlog_ctx)
    assert len(recorded(CURVE, verify_dlog, (As, forged, dlog_ctx))) == 1
    shifted = (dataclasses.replace(bit, d0=(bit.d0 + 1) % CURVE.challenge_space), bit_ctx)
    assert not sigma.verify_bit(CURVE, *shifted)
    assert len(recorded(CURVE, sigma.verify_bit, shifted)) == 2


def test_a_share_outside_the_challenge_space_is_a_none_part(session, monkeypatch):
    """Party 1's bit proof of slot 2, digit 0 built in memory with d0 + N,
    which no decoder returns: the share's range guard fails on the real
    value, so its ledger-fold part is None and the fold fails; each path,
    with the fold and without, names party 1 and ("bit", 2, 0)."""
    cfg, _, posts1, posts2 = session
    bundle = posts2[1].bundle
    rows = list(bundle.element_digit_proofs)
    rows[2] = _replace_bit(rows[2], 0, d0=rows[2][0].d0 + CURVE.challenge_space)
    forged = dataclasses.replace(
        posts2[1], bundle=dataclasses.replace(bundle, element_digit_proofs=tuple(rows))
    )
    posts2 = [posts2[0], forged]
    table = protocol._ledger_checks(cfg, posts1, posts2)
    parts = sigma.fold_parts(CURVE, table)
    assert [label for (label, _, _), part in zip(table, parts) if part is None] == [("bit", 2, 0)]
    assert not fold_holds(CURVE, parts)

    def verdicts():
        """(party, verify_contribution, first failing label) of each post."""
        out = []
        for post, pads in zip(posts2, protocol._all_pads(cfg, posts1)):
            table = post.bundle.checks(post.cts, pads, cfg.context(2, post.party))
            verdict = protocol.verify_contribution(cfg, post, pads)
            out.append((post.party, verdict, sigma.first_failure(CURVE, table)))
        return out

    folded = verdicts()
    assert folded == [(0, (True, None), None), (1, (False, "bit"), ("bit", 2, 0))]
    _sequentially(monkeypatch)
    assert verdicts() == folded


@pytest.mark.parametrize("group", [groups.toy_group(), MOD, CURVE], ids=lambda g: g.group_id)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_all_pads_are_derive_pads(group, n):
    cfg = ProtocolConfig(group, n, 2, BoundPolicy("none", 2), bytes(16))  # toy23: 5 * 2 < q = 11
    rng = random.Random(n)
    secrets, posts1 = zip(*(protocol.round1_generate(cfg, i, rng) for i in range(n)))
    pads = protocol._all_pads(cfg, posts1)
    assert pads == [protocol.derive_pads(cfg, posts1, k) for k in range(n)]
    for j in range(cfg.m):
        assert group.multi_exp((pads[k][j], secrets[k].x[j]) for k in range(n)) == group.identity
