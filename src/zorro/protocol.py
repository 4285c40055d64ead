"""Two-round self-tallying aggregation.

Round 1: every party posts g^(x_ij) for fresh scalars x_ij plus one proof
of knowledge of all m exponents (sigma.DlogProof).  From everyone's posts,
party i derives its pad keys

    h_ij = prod_{k<i} g^(x_kj)  /  prod_{k>i} g^(x_kj)

which satisfy prod_i h_ij^(x_ij) = 1 for every slot j.

Round 2: party i posts E[T_ij] = (g^(x_ij), g^(T_ij) h_ij^(x_ij)) - the same
x_ij - plus the validity bundle its policy demands, whose bit and square
proofs are over Pedersen commitments under g and gamma (rangeproof), so a
party holds no long-term key.  Only the second component goes on the wire:
the first is the party's round-1 element, which the party keeps with its
round-1 secret and a reader takes from round 1 (Round2Post.from_bytes), so
a contribution cannot carry an exponent other than its round-1 one.  The
slot-wise product of all posted second components collapses to
g^(sum T_ij), and a baby-step/giant-step search over the policy window
recovers the sum.  No
decryption key exists: the "key" cancels only when all n posts multiply.

A post carries no tag, party id, slot count or bundle kind: the ledger
entry gives the party, and the header gives m and the policy, which pick
how the payload is read.  Each statement stays bound to its party because
every Fiat-Shamir context hashes the session and the party index (r1/i
for round 1, r2/i for round 2; ProtocolConfig.context states it once), so
a proof copied under another party's entry fails; see Bernhard, Pereira
and Warinschi, "How not to prove yourself" (Asiacrypt 2012).  _by_party
states the other rule every reader shares: one post per party, in party
order, or MissingPost.

A party that completes round 1 but never posts round 2 leaves the pads
uncancellable; tally() then fails naming the culprit, and the session must
abort (re-keying is out of scope).

verify_ledger is what every participant runs on the public ledger.  Each
post's checks are a check table, folded or run one by one as the sigma
module describes; on a folding group verify_ledger first folds every table
at once, with all n pad vectors from one prefix/suffix pass (_all_pads).
"""

from dataclasses import dataclass

from . import rangeproof
from .dlog import bsgs
from .elgamal import Ciphertext
from .encoding import Reader, put, read_many
from .errors import (
    LedgerRejected,
    MissingPost,
    NotInWindow,
    ZorroError,
)
from .groups import Group, get_group
from .ledger import LedgerHeader
from .rangeproof import BoundPolicy, L1RangeProof, L2RangeProof
from .sigma import (
    DlogProof,
    FsTranscript,
    first_failure,
    fold_holds,
    fold_parts,
    folds,
    prove_dlog,
    verify_dlog,
)

SESSION_BYTES = 16


@dataclass(frozen=True)
class ProtocolConfig:
    group: Group
    n: int
    m: int
    policy: BoundPolicy
    session: bytes

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two parties")
        if self.m < 1:
            raise ValueError("vector dimension must be at least 1")
        if len(self.session) != SESSION_BYTES:
            raise ValueError(f"session id must be {SESSION_BYTES} bytes")
        # proofs and the tally hold mod q, so no legal sum may reach q
        q, window = self.group.q, self.policy.tally_window(self.n)
        if window.size > q:
            raise ValueError(f"tally window of {window.size} values exceeds the group order {q}")
        window.check_width()
        if self.policy.kind == rangeproof.L1 and self.m * self.policy.effective_bound >= q:
            raise ValueError(f"a sum of {self.m} l1 entries can reach the group order {q}")

    def header(self) -> LedgerHeader:
        """The header of this session's ledger."""
        return LedgerHeader(
            self.group.group_id, self.session, self.n, self.m, self.policy.kind, self.policy.B
        )

    @classmethod
    def from_header(cls, header: LedgerHeader) -> "ProtocolConfig":
        """The config a ledger header describes; KeyError or ValueError if none can."""
        policy = BoundPolicy(header.policy_kind, header.policy_bound)
        return cls(get_group(header.group_id), header.n, header.m, policy, header.session)

    def context(self, round: int, party: int) -> FsTranscript:
        """The Fiat-Shamir domain of `party`'s post in round 1 or 2."""
        session = b"zorro.protocol.v1|" + self.group.group_id.encode() + b"|" + self.session
        return FsTranscript(session).child(b"r%d" % round, party)


@dataclass(frozen=True)
class Round1Secret:
    """A party's round-1 exponents x_j and the elements g^(x_j) it posted."""

    party: int
    x: tuple
    elements: tuple


@dataclass(frozen=True)
class Round1Post:
    """m round-1 elements and the one proof of their exponents; the party
    is its entry's."""

    party: int
    elements: tuple
    proof: DlogProof

    def to_bytes(self, group) -> bytes:
        return put(group, self.elements, self.proof)

    @classmethod
    def from_bytes(cls, group, data: bytes, party: int, m: int) -> "Round1Post":
        """Decode the post of `party` in a session of m slots."""
        r = Reader(data)
        elements = read_many(group, r, m, object)
        proof = DlogProof.read_from(group, r)
        r.expect_end()
        return cls(party, elements, proof)


# policy kind -> the type of its round-2 bundle; policy none posts no bundle
_BUNDLES = {rangeproof.NONE: type(None), rangeproof.L1: L1RangeProof, rangeproof.L2: L2RangeProof}


@dataclass(frozen=True)
class Round2Post:
    """A contribution: whole ciphertexts in memory, only each B on the wire."""

    party: int
    cts: tuple
    bundle: object  # L1RangeProof | L2RangeProof | None

    def to_bytes(self, group) -> bytes:
        bundle = b"" if self.bundle is None else self.bundle.to_bytes(group)
        return put(group, tuple(ct.B for ct in self.cts), bundle)

    @classmethod
    def from_bytes(cls, group, data: bytes, party: int, policy, elements) -> "Round2Post":
        """Decode the post of `party` under `policy`, whose party posted
        `elements` in round 1: element j is the first component of
        ciphertext j, and there are as many slots as elements."""
        r = Reader(data)
        cts = tuple(map(Ciphertext, elements, read_many(group, r, len(elements), object)))
        bundle = None
        if policy.kind != rangeproof.NONE:
            bundle = _BUNDLES[policy.kind].read_from(group, r, len(cts), policy.L)
        r.expect_end()
        return cls(party, cts, bundle)


def _by_party(cfg, posts, round: int) -> list:
    """The posts of a round in party order, the last one given per party.
    The one check that all n parties posted: MissingPost names the first
    party without a post."""
    table = {post.party: post for post in posts}
    for i in range(cfg.n):
        if i not in table:
            raise MissingPost(i, round)
    return [table[i] for i in range(cfg.n)]


def round1_generate(cfg: ProtocolConfig, party: int, rng):
    """Draw the m round-1 secrets and build the post carrying their proof."""
    if not 0 <= party < cfg.n:
        raise ValueError(f"party index {party} out of range")
    group = cfg.group
    x = tuple(group.random_scalar(rng) for _ in range(cfg.m))
    elements = tuple(group.g ** xj for xj in x)
    proof = prove_dlog(group, x, elements, cfg.context(1, party), rng)
    return Round1Secret(party, x, elements), Round1Post(party, elements, proof)


def _refused(group):
    """The check of a wrong-dimension round-1 post: it fails, and so does its fold part."""
    return False


def _round1_checks(cfg: ProtocolConfig, posts) -> list:
    """The check table (sigma.first_failure) of round-1 posts, in the given
    order: one entry per post, labelled (i, None) for party i, that checks
    its proof or, for a post of the wrong dimension, fails."""
    table = []
    for post in posts:
        if len(post.elements) != cfg.m:
            table.append(((post.party, None), _refused, ()))
        else:
            ctx = cfg.context(1, post.party)
            table.append(((post.party, None), verify_dlog, (post.elements, post.proof, ctx)))
    return table


def verify_round1(cfg: ProtocolConfig, post: Round1Post) -> bool:
    return first_failure(cfg.group, _round1_checks(cfg, [post])) is None


def _rejected(what: str, party: int, check: str, slot=None, digit=None) -> LedgerRejected:
    return LedgerRejected(party, check, f"{what} of party {party} rejected ({check})", slot, digit)


def _check_round1(cfg: ProtocolConfig, posts):
    """Raise LedgerRejected (check "round1") naming the party of the first
    post, in the given order, whose proof fails: one table for all posts."""
    failure = first_failure(cfg.group, _round1_checks(cfg, posts))
    if failure is not None:
        party, _ = failure
        raise _rejected("round-1 proof", party, "round1")


def derive_pads(cfg: ProtocolConfig, round1_posts, party: int):
    """Pad keys h_ij for `party` from everyone's round-1 posts.

    All n posts must be present (else MissingPost) and every discrete-log
    proof must check out (else LedgerRejected with check "round1", naming
    the party, as verify_ledger reports it) before any pad is trusted.
    """
    posts = _by_party(cfg, round1_posts, 1)
    _check_round1(cfg, posts)
    pads = []
    for j in range(cfg.m):
        h = cfg.group.identity
        for k in range(party):
            h = h * posts[k].elements[j]
        for k in range(party + 1, cfg.n):
            h = h / posts[k].elements[j]
        pads.append(h)
    return tuple(pads)


def _all_pads(cfg: ProtocolConfig, round1_posts) -> list:
    """Every party's pad keys, derive_pads(cfg, round1_posts, i) for i in
    [0, n), from the n round-1 posts in party order, in one O(nm) pass.

    h_ij is the prefix product prod_{k<i} g^(x_kj) over the suffix product
    prod_{k>i} g^(x_kj) (the cancellation of Hao, Ryan and Zielinski's Open
    Vote Network).  The round-1 proofs are not checked here.
    """
    identity, columns = cfg.group.identity, []
    for j in range(cfg.m):
        elements = [post.elements[j] for post in round1_posts]
        prefix, suffix = [identity], [identity]
        for A in elements[:-1]:
            prefix.append(prefix[-1] * A)
        for A in reversed(elements[1:]):
            suffix.append(suffix[-1] * A)
        columns.append([p / s for p, s in zip(prefix, reversed(suffix))])
    return list(zip(*columns))


def round2_generate(cfg: ProtocolConfig, values, secret: Round1Secret, pads, rng) -> Round2Post:
    """Encrypt the contribution of secret.party under its pad keys and attach
    the policy bundle that proves those ciphertexts, under that party's
    round-2 context (ProtocolConfig.context).  A vector that breaks the
    policy's input rule is refused: by its prover, or under policy none,
    which proves nothing, by BoundPolicy.check at the nominal B.

    Encryption randomness is the round-1 secret x_ij, and each slot's first
    component the round-1 element g^(x_ij) itself; the pads only cancel
    because the exact same exponents reappear here.
    """
    if len(values) != cfg.m:
        raise ValueError(f"expected {cfg.m} entries, got {len(values)}")
    group = cfg.group
    cts = tuple(
        Ciphertext(A, group.multi_exp(((group.g, t), (h, xj))))
        for A, t, xj, h in zip(secret.elements, values, secret.x, pads)
    )
    bundle = None
    if cfg.policy.kind == rangeproof.NONE:
        cfg.policy.check(values)
    else:
        prove = getattr(rangeproof, f"prove_{cfg.policy.kind}")
        ctx = cfg.context(2, secret.party)
        bundle = prove(group, cts, values, secret.x, pads, cfg.policy, ctx, rng)
    return Round2Post(secret.party, cts, bundle)


def verify_contribution(cfg: ProtocolConfig, post: Round2Post, pads):
    """Check one round-2 post against its party's pad keys.

    `pads` is derive_pads(cfg, round1_posts, post.party).  Returns
    (ok, reason).  Each ciphertext's first component must be the party's
    round-1 element; a post read from a ledger has it so by construction
    (Round2Post.from_bytes), and the pads alone do not carry those elements.
    A wrong dimension, or a bundle of the wrong type for the policy, which
    only a post built in memory can have, is "malformed".
    """
    if len(post.cts) != cfg.m or type(post.bundle) is not _BUNDLES[cfg.policy.kind]:
        return False, "malformed"
    if post.bundle is None:
        return True, None
    verify = getattr(rangeproof, f"verify_{cfg.policy.kind}")
    return verify(cfg.group, post.cts, post.bundle, cfg.policy, pads, cfg.context(2, post.party))


def tally(cfg: ProtocolConfig, round2_posts) -> tuple:
    """Self-tally: multiply everyone's second components and take small dlogs.

    Returns the m slot totals, each searched in the policy's tally window.
    A NotInWindow failure here means a contribution outside its policy
    slipped past verification, as any may under policy none.
    """
    table = _by_party(cfg, round2_posts, 2)
    window = cfg.policy.tally_window(cfg.n)
    group = cfg.group
    totals = []
    for j in range(cfg.m):
        point = table[0].cts[j].B
        for i in range(1, cfg.n):
            point = point * table[i].cts[j].B
        try:
            totals.append(bsgs(group, point, window))
        except NotInWindow as exc:
            raise NotInWindow(f"slot {j}: {exc}") from exc
    return tuple(totals)


def _ledger_round(cfg: ProtocolConfig, ledger, round: int, decode) -> list:
    """Decode one round of the ledger into one post per party, in party order.

    Every entry must sit under a party id in [0, n), be that party's only
    entry of the round and decode (decode(party, payload) raises a
    ZorroError if not), which reads m slots and, in round 2, the header's
    policy.
    """
    posts = {}
    for entry in ledger.read_round(round):
        party = entry.party
        where = f"round-{round} entry seq {entry.seq} of party {party}"
        if not 0 <= party < cfg.n:
            raise LedgerRejected(party, "party", f"{where}: party id outside [0, {cfg.n})")
        if party in posts:
            raise LedgerRejected(party, "duplicate", f"{where}: second entry in round {round}")
        try:
            post = decode(party, entry.payload)
        except ZorroError as exc:
            raise LedgerRejected(party, "malformed", f"{where} malformed: {exc}") from exc
        posts[party] = post
    return _by_party(cfg, posts.values(), round)


def _ledger_checks(cfg: ProtocolConfig, posts1, posts2) -> list:
    """The check table of a decoded ledger: the round-1 table, then each
    contribution's bundle table under its _all_pads keys, in party order.
    Decoding fixes every post's shape, so the bundles' tables are read as
    they are."""
    table = _round1_checks(cfg, posts1)
    for post, pads in zip(posts2, _all_pads(cfg, posts1)):
        if post.bundle is not None:
            table += post.bundle.checks(post.cts, pads, cfg.context(2, post.party))
    return table


def verify_ledger(cfg: ProtocolConfig, ledger) -> list:
    """Publicly verify every post of a session ledger; anyone can run this.

    Checks that the header matches cfg, that each of the n parties posted
    exactly once per round under its own id, that every round-1 proof holds
    and that every contribution proves valid under its derive_pads keys.
    Each round-2 ciphertext takes its first component from its party's
    round-1 element g^(x_ij) as it is decoded, so it reuses that exponent by
    construction.  Returns the round-2 posts in party order, ready for
    tally().  The hash chain is the caller's to check
    (Ledger.verify_chain).  A failed check raises LedgerRejected naming the
    party, the check and, where there is one, the slot or digit (its slot
    and digit fields, from the label of the first failing entry of the
    post's table); an absent post raises MissingPost.  Malformed bytes
    never raise anything else.

    After the header and decode checks, a folding group checks the rest
    as one fold (sigma.fold_holds) of one check table of the decoded posts
    (_ledger_checks), whose shape the decoder fixes; a check outside the
    group equations that fails while it is recorded fails the fold.  A
    failed fold, and every ledger on the modular groups, goes through
    _check_round1 and then verify_contribution party by party, so a
    rejection reads the same with or without the fold.
    """
    if ledger.header != cfg.header():
        raise LedgerRejected(None, "header", "ledger header does not match the session")
    group = cfg.group
    posts1 = _ledger_round(
        cfg, ledger, 1, lambda party, data: Round1Post.from_bytes(group, data, party, cfg.m)
    )
    posts2 = _ledger_round(
        cfg, ledger, 2,
        lambda party, data: Round2Post.from_bytes(
            group, data, party, cfg.policy, posts1[party].elements
        ),
    )
    if folds(group) and fold_holds(group, fold_parts(group, _ledger_checks(cfg, posts1, posts2))):
        return posts2
    _check_round1(cfg, posts1)
    for post in posts2:
        pads = derive_pads(cfg, posts1, post.party)
        ok, reason = verify_contribution(cfg, post, pads)
        if not ok:
            # decoding rules out "malformed", so the table that failed has a first failure
            table = post.bundle.checks(post.cts, pads, cfg.context(2, post.party))
            _, slot, digit = first_failure(group, table)
            raise _rejected("contribution", post.party, reason, slot, digit)
    return posts2


class Party:
    """One participant as an explicit state machine.

    States advance new -> round1 -> pads -> round2; calling out of order
    raises.  The only inputs are public posts, mirroring the no-private-
    channels model.
    """

    def __init__(self, cfg: ProtocolConfig, index: int, rng):
        self.cfg = cfg
        self.index = index
        self.rng = rng
        self._secret = None
        self._pads = None
        self._state = "new"

    @property
    def secret(self) -> Round1Secret:
        """This party's own round-1 secret (harness and test access)."""
        return self._secret

    @property
    def pads(self):
        return self._pads

    def round1(self) -> Round1Post:
        if self._state != "new":
            raise RuntimeError(f"round1 called in state {self._state}")
        self._secret, post = round1_generate(self.cfg, self.index, self.rng)
        self._state = "round1"
        return post

    def receive_round1(self, posts):
        if self._state != "round1":
            raise RuntimeError(f"receive_round1 called in state {self._state}")
        self._pads = derive_pads(self.cfg, posts, self.index)
        self._state = "pads"

    def round2(self, values) -> Round2Post:
        if self._state != "pads":
            raise RuntimeError(f"round2 called in state {self._state}")
        post = round2_generate(self.cfg, values, self._secret, self._pads, self.rng)
        self._state = "round2"
        return post
