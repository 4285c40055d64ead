"""The paper's validity claim on mod41, two parties and up to three slots:
`verify_ledger` accepts a session's ledger exactly when every party's vector
passes `BoundPolicy.check` at the header's B, an accepted ledger tallies to
the column sums, and verifying raises nothing but LedgerRejected or
MissingPost.

Each ledger is built by the real provers through round1_generate,
derive_pads and round2_generate.  A vector its prover refuses never reaches
the ledger, so the claim then asks only that the policy refuses it too.

The provers admit a vector up to `effective_bound` = 2^L - 1, not up to B
(or B * B under l2), and the verifier checks the same digit range, so two
classes of illegal vector verify today: l1 sums in (B, 2^L - 1] and l2
squared norms in (B * B, 2^L - 1].  Each is pinned below as a strict xfail.
The third known class, l2 squares that wrap mod q, needs a prover without
its input rule and is pinned by the two strict xfails of
tests/test_cli.py::test_verify_rejects_an_l2_contribution_whose_squares_wrap_mod_q.
"""

import random

import pytest

from zorro import groups
from zorro.errors import BoundExceeded, LedgerRejected, MissingPost, NegativeEntry
from zorro.ledger import Ledger
from zorro.protocol import (
    ProtocolConfig,
    derive_pads,
    round1_generate,
    round2_generate,
    tally,
    verify_ledger,
)
from zorro.rangeproof import BoundPolicy

MOD = groups.test_group()


def _case(kind, B, vectors, gap=False):
    """A case of the claim; a gap case is one the proofs wrongly accept."""
    marks = pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the proofs enforce 2^L - 1, not the header's bound",
    )
    ident = f"{kind}-B{B}-" + "-".join(",".join(map(str, v)) for v in vectors)
    return pytest.param(kind, B, vectors, marks=marks if gap else (), id=ident)


# (kind, B, the two parties' vectors): legal vectors at and under the bound,
# illegal ones the provers refuse, and the two gap classes
CASES = [
    _case("l1", 3, [[3, 0, 0], [1, 1, 1]]),
    _case("l1", 3, [[0, 0], [2, 1]]),
    _case("l1", 3, [[2, 2, 0], [0, 0, 0]]),
    _case("l1", 3, [[4], [0]]),
    _case("l1", 3, [[1, -1], [0, 0]]),
    _case("l1", 4, [[4, 0, 0], [2, 1, 1]]),
    _case("l1", 4, [[0, 0, 0], [1, 3, 0]]),
    _case("l1", 4, [[8, 0, 0], [0, 0, 0]]),
    _case("l1", 4, [[5, 3], [0, 0]]),
    _case("l1", 4, [[-1, 2, 0], [0, 0, 0]]),
    _case("l1", 4, [[3, 3, 1], [1, 0, 0]], gap=True),
    _case("l1", 4, [[0, 0], [5, 0]], gap=True),
    _case("l2", 2, [[2, 0, 0], [1, -1, 1]]),
    _case("l2", 2, [[-2, 0], [0, 0]]),
    _case("l2", 2, [[2, 2, 0], [0, 0, 0]]),
    _case("l2", 2, [[3], [0]]),
    _case("l2", 2, [[2, 1, 1], [1, 0, 0]], gap=True),
    _case("l2", 2, [[1, 0], [-2, 1]], gap=True),
    _case("l2", 3, [[3, 0, 0], [2, 2, 1]]),
    _case("l2", 3, [[-3], [0]]),
    _case("l2", 3, [[4, 0, 0], [0, 0, 0]]),
    _case("l2", 3, [[0, 0, 0], [3, 2, 2]]),
    _case("l2", 3, [[3, 1, 0], [0, 0, 0]], gap=True),
    _case("l2", 3, [[2, 2, 2], [1, 0, 0]], gap=True),
]


def _ledger(cfg, vectors):
    """The ledger of a session in which party i draws from Random(i), or
    None when a prover refuses its vector."""
    ledger = Ledger(cfg.header())
    rngs = [random.Random(i) for i in range(cfg.n)]
    secrets, posts1 = zip(*(round1_generate(cfg, i, rng) for i, rng in enumerate(rngs)))
    for post in posts1:
        ledger.append(1, post.party, post.to_bytes(MOD))
    for secret, values, rng in zip(secrets, vectors, rngs):
        pads = derive_pads(cfg, posts1, secret.party)
        try:
            post = round2_generate(cfg, values, secret, pads, rng)
        except (BoundExceeded, NegativeEntry):
            return None
        ledger.append(2, post.party, post.to_bytes(MOD))
    return ledger


def _legal(policy, values) -> bool:
    try:
        policy.check(values)
    except (BoundExceeded, NegativeEntry):
        return False
    return True


@pytest.mark.parametrize("kind, B, vectors", CASES)
def test_verify_accepts_exactly_the_vectors_the_policy_allows(kind, B, vectors):
    policy = BoundPolicy(kind, B)
    cfg = ProtocolConfig(MOD, len(vectors), len(vectors[0]), policy, bytes(range(16)))
    legal = all(_legal(policy, values) for values in vectors)
    ledger = _ledger(cfg, vectors)
    if ledger is None:
        assert not legal, "a prover refused a legal vector"
        return
    try:
        posts2 = verify_ledger(cfg, ledger)
    except (LedgerRejected, MissingPost):
        assert not legal, "verify_ledger rejected an honest legal ledger"
        return
    assert legal, "verify_ledger accepted a vector outside the policy"
    assert tally(cfg, posts2) == tuple(map(sum, zip(*vectors)))
