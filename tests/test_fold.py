"""The fold on secp256k1: each post's group equations checked as one weighted
multi_exp, with the checks one by one as the fallback that gives the verdict.

Every dishonest variant below must fail the fold, and the verifiers must then
report exactly what the sequential checks report when called directly.
"""

import dataclasses
import inspect
import random
import re

import pytest

from zorro import groups, protocol, rangeproof, sigma
from zorro.elgamal import Keypair, encrypt_exp
from zorro.errors import LedgerRejected
from zorro.ledger import Ledger
from zorro.protocol import Party, ProtocolConfig, Round2Post, verify_ledger
from zorro.rangeproof import (
    BoundPolicy,
    L1RangeProof,
    _build_l1,
    bits_of,
    prove_l1,
    prove_l2,
    verify_l1,
    verify_l2,
)
from zorro.sigma import DlogProof, FsTranscript, dlog_equations, fold_holds, verify_dlog

CURVE = groups.prod_group()
MOD = groups.test_group()


def _keys(m, rng):
    x = [CURVE.random_scalar(rng) for _ in range(m)]
    kp = Keypair.generate(CURVE, rng)
    pads = [CURVE.g ** CURVE.random_scalar(rng) for _ in range(m)]
    return x, pads, kp


def _posted(values, x, pads):
    return [encrypt_exp(CURVE, t, xj, h) for t, xj, h in zip(values, x, pads)]


def _check(posted, proof, pads, ctx, expected):
    """The fold holds exactly for an honest bundle, and verify_* returns the
    verdict of the sequential checks, which name `expected` (None: honest)."""
    l1 = isinstance(proof, L1RangeProof)
    equations = rangeproof._l1_equations if l1 else rangeproof._l2_equations
    failure = rangeproof._l1_failure if l1 else rangeproof._l2_failure
    verify = verify_l1 if l1 else verify_l2
    args = (CURVE, posted, proof, pads, ctx)
    assert fold_holds(CURVE, rangeproof._fold_seed(*args), equations(*args)) == (expected is None)
    assert failure(*args) == expected
    assert verify(CURVE, posted, proof, proof.policy, pads, ctx) == (expected is None, expected)


def _replace_bit(proofs, l, **changes):
    proofs = list(proofs)
    proofs[l] = dataclasses.replace(proofs[l], **changes)
    return tuple(proofs)


def _bit_plus_one(proofs, l):
    return _replace_bit(proofs, l, r1=(proofs[l].r1 + 1) % CURVE.q)


def _wrong_pad_key(case):
    return case.posted, case.proof, [case.pads[0], case.pads[1] * CURVE.g]


def test_folding_groups():
    assert sigma.folds(CURVE)
    assert not sigma.folds(MOD) and not sigma.folds(groups.toy_group())


@dataclasses.dataclass(frozen=True)
class Case:
    """One honest bundle on secp256k1 and what it was proved from."""

    values: list
    x: list
    pads: list
    kp: Keypair
    ctx: FsTranscript
    proof: object
    rng: random.Random

    @property
    def posted(self):
        return _posted(self.values, self.x, self.pads)


def _case(prove, policy, values, seed, tag):
    rng = random.Random(seed)
    x, pads, kp = _keys(len(values), rng)
    ctx = FsTranscript(tag)
    proof = prove(CURVE, values, x, pads, kp.pk, policy, ctx, rng)
    return Case(values, x, pads, kp, ctx, proof, rng)


@pytest.fixture(scope="module")
def l1_case():
    return _case(prove_l1, BoundPolicy.l1(3), [2, 1], 111, b"fold-l1")


@pytest.fixture(scope="module")
def l2_case():
    return _case(prove_l2, BoundPolicy.l2(2), [1, -1], 222, b"fold-l2")


def _forced_l1(case, digits, sum_digits):
    c = case
    proof = _build_l1(
        CURVE, c.values, digits, sum_digits, c.x, c.pads, c.kp.pk, c.proof.policy, c.ctx, c.rng
    )
    return c.posted, proof, c.pads


def _l1_row_bit(case):
    rows = list(case.proof.element_digit_proofs)
    rows[1] = _bit_plus_one(rows[1], 1)
    return case.posted, dataclasses.replace(case.proof, element_digit_proofs=tuple(rows)), case.pads


def _l1_sum_bit(case):
    sums = _bit_plus_one(case.proof.sum_digit_proofs, 0)
    return case.posted, dataclasses.replace(case.proof, sum_digit_proofs=sums), case.pads


def _l2_consistency(case):
    squares = list(case.proof.square_cts)
    squares[0] = encrypt_exp(CURVE, 1, 5, case.kp.pk)
    return case.posted, dataclasses.replace(case.proof, square_cts=tuple(squares)), case.pads


def _l2_bit(case):
    bits = _bit_plus_one(case.proof.digit_proofs, 1)
    return case.posted, dataclasses.replace(case.proof, digit_proofs=bits), case.pads


def _l2_square(case):
    squares = list(case.proof.square_proofs)
    squares[2] = dataclasses.replace(squares[2], z_b=(squares[2].z_b + 1) % CURVE.q)
    return case.posted, dataclasses.replace(case.proof, square_proofs=tuple(squares)), case.pads


# One dishonest variant per reason of each bundle's sequential checks: the
# honest case -> (posted ciphertexts, bundle, pad keys).
L1_DISHONEST = {
    "tuple": _wrong_pad_key,
    "element": lambda c: _forced_l1(c, [[0, 0], [1, 0]], [1, 1]),  # slot 0 spells 0, not 2
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


@pytest.mark.parametrize(
    "verify, failure, variants",
    [(verify_l1, rangeproof._l1_failure, L1_DISHONEST),
     (verify_l2, rangeproof._l2_failure, L2_DISHONEST)],
    ids=["l1", "l2"],
)
def test_every_sequential_reason_has_a_dishonest_variant(verify, failure, variants):
    """A check added to *_failure under a new reason needs a variant here,
    which fails unless *_equations gained the same group equations."""
    documented = set(re.findall(r'"(\w+)"', verify.__doc__)) - {"policy", "malformed"}
    returned = set(re.findall(r'return "(\w+)"', inspect.getsource(failure)))
    assert returned == documented == set(variants)


def test_honest_l1_bundle_passes_the_fold(l1_case):
    _check(l1_case.posted, l1_case.proof, l1_case.pads, l1_case.ctx, None)


@pytest.mark.parametrize("reason", L1_DISHONEST)
def test_dishonest_l1_bundle_fails_the_fold(l1_case, reason):
    _check(*L1_DISHONEST[reason](l1_case), l1_case.ctx, reason)


def test_honest_l2_bundle_passes_the_fold(l2_case):
    _check(l2_case.posted, l2_case.proof, l2_case.pads, l2_case.ctx, None)


@pytest.mark.parametrize("reason", L2_DISHONEST)
def test_dishonest_l2_bundle_fails_the_fold(l2_case, reason):
    _check(*L2_DISHONEST[reason](l2_case), l2_case.ctx, reason)


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
    for module in (rangeproof, protocol):
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
    folded = _fold_spy(monkeypatch, protocol)
    assert all(protocol._round1_failure(cfg, post) is None for post in posts1)
    assert folded == [True] * cfg.n
    assert verify_ledger(cfg, _ledger(cfg, posts1, posts2)) == posts2


def test_round1_response_plus_one_names_the_slot(session, monkeypatch):
    cfg, _, posts1, posts2 = session
    post = posts1[1]
    proofs = list(post.proofs)
    proofs[2] = DlogProof(proofs[2].K, (proofs[2].s + 1) % CURVE.q)
    forged = dataclasses.replace(post, proofs=tuple(proofs))

    base = cfg.base_context()
    sequential = [
        verify_dlog(CURVE, A, p, base.child(b"r1", forged.party, j))
        for j, (A, p) in enumerate(zip(forged.elements, forged.proofs))
    ]
    assert sequential == [True, True, False]
    folded = _fold_spy(monkeypatch, protocol)
    assert protocol._round1_failure(cfg, forged) == 2
    assert folded == [False]

    ledger = _ledger(cfg, [posts1[0], forged], posts2)
    verdict = _rejection(cfg, ledger)
    assert verdict[:2] == (1, "round1") and verdict[2].endswith("slot 2")
    _sequentially(monkeypatch)
    assert _rejection(cfg, ledger) == verdict


def test_dishonest_contribution_on_the_ledger_names_the_party(session, monkeypatch):
    cfg, parties, posts1, posts2 = session
    party = parties[1]
    values = [1, 0, 2]
    digits = [bits_of(1, 2), bits_of(0, 2), bits_of(1, 2)]  # slot 2 spells 1, not 2
    ctx = cfg.base_context().child(b"r2", party.index)
    bundle = _build_l1(
        CURVE, values, digits, bits_of(3, 2), party.secret.x, party.pads, party.keypair.pk,
        cfg.policy, ctx, random.Random(9),
    )
    cts = tuple(_posted(values, party.secret.x, party.pads))
    forged = Round2Post(party.index, cts, bundle)
    args = (CURVE, cts, bundle, party.pads, ctx)
    assert not fold_holds(CURVE, rangeproof._fold_seed(*args), rangeproof._l1_equations(*args))
    assert rangeproof._l1_failure(*args) == "element"

    ledger = _ledger(cfg, posts1, [posts2[0], forged])
    verdict = _rejection(cfg, ledger)
    assert verdict[:2] == (1, "element")
    _sequentially(monkeypatch)
    assert _rejection(cfg, ledger) == verdict


def test_fold_weights_bind_the_responses(session, monkeypatch):
    """Two responses shifted so that the shifts cancel under the honest post's
    weights: a fold whose weights skipped the responses would accept them."""
    cfg, _, posts1, _ = session
    post = posts1[0]
    seeds = []
    weights = sigma.fold_weights

    def recording(seed, count):
        seeds.append(seed)
        return weights(seed, count)

    monkeypatch.setattr(sigma, "fold_weights", recording)
    assert protocol._round1_failure(cfg, post) is None
    honest_seed = seeds[-1]
    w = weights(honest_seed, cfg.m)

    q, delta = CURVE.q, 0x5EED
    p0, p1 = post.proofs[:2]
    proofs = (
        DlogProof(p0.K, (p0.s + delta * w[1]) % q),
        DlogProof(p1.K, (p1.s - delta * w[0]) % q),
        *post.proofs[2:],
    )
    forged = dataclasses.replace(post, proofs=proofs)
    base = cfg.base_context()
    parts = [
        dlog_equations(CURVE, A, p, base.child(b"r1", forged.party, j))
        for j, (A, p) in enumerate(zip(forged.elements, forged.proofs))
    ]
    assert fold_holds(CURVE, honest_seed, parts)  # the shifts cancel under these weights

    assert protocol._round1_failure(cfg, forged) == 0
    assert seeds[-1] != honest_seed
    assert not fold_holds(CURVE, seeds[-1], parts)


def test_modular_groups_never_fold(monkeypatch):
    rng = random.Random(444)
    policy = BoundPolicy.l1(3)
    x = [MOD.random_scalar(rng) for _ in range(2)]
    kp = Keypair.generate(MOD, rng)
    pads = [MOD.g ** MOD.random_scalar(rng) for _ in range(2)]
    ctx = FsTranscript(b"no-fold")
    proof = prove_l1(MOD, [1, 2], x, pads, kp.pk, policy, ctx, rng)
    folded = _fold_spy(monkeypatch, rangeproof)
    cts = [encrypt_exp(MOD, t, xj, h) for t, xj, h in zip([1, 2], x, pads)]
    assert verify_l1(MOD, cts, proof, policy, pads, ctx) == (True, None)
    assert folded == []
