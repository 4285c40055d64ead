"""Two-round self-tallying aggregation.

Round 1: every party posts g^(x_ij) for fresh scalars x_ij plus a proof of
knowledge of each exponent.  From everyone's posts, party i derives its pad
keys

    h_ij = prod_{k<i} g^(x_kj)  /  prod_{k>i} g^(x_kj)

which satisfy prod_i h_ij^(x_ij) = 1 for every slot j.

Round 2: party i posts E[T_ij] = (g^(x_ij), g^(T_ij) h_ij^(x_ij)) - the same
x_ij, which verify_ledger checks - plus the validity bundle its policy
demands.  The slot-wise product of all posted second components collapses to
g^(sum T_ij), and a baby-step/giant-step search over the policy window
recovers the sum.  No decryption key exists: the "key" cancels only when all
n posts multiply.

A party that completes round 1 but never posts round 2 leaves the pads
uncancellable; tally() then fails naming the culprit, and the session must
abort (re-keying is out of scope).
"""

from dataclasses import dataclass

from . import rangeproof
from .dlog import DlogWindow, bsgs
from .elgamal import Ciphertext, Keypair, encrypt_exp
from .encoding import Reader, pack_u8, pack_u32, put, read_many
from .errors import (
    LedgerRejected,
    MalformedEncoding,
    MissingPost,
    NotInWindow,
    ZorroError,
)
from .groups import Group, get_group
from .ledger import LedgerHeader
from .rangeproof import BoundPolicy, L1RangeProof, L2RangeProof
from .sigma import DlogProof, FsTranscript, prove_dlog, verify_dlog

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
        if window is not None and window.size > q:
            raise ValueError(f"tally window of {window.size} values exceeds the group order {q}")
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

    def base_context(self) -> FsTranscript:
        return FsTranscript(
            b"zorro.protocol.v1|" + self.group.group_id.encode() + b"|" + self.session
        )


@dataclass(frozen=True)
class Round1Secret:
    party: int
    x: tuple


def _read_post_head(reader: Reader, tag: int, what: str):
    """Tag, party id and slot count that open every post."""
    reader.expect_tag(tag, what)
    party, m = reader.u32(), reader.u32()
    if not 1 <= m <= 1 << 20:
        raise MalformedEncoding("implausible dimension")
    return party, m


@dataclass(frozen=True)
class Round1Post:
    party: int
    elements: tuple
    proofs: tuple

    def to_bytes(self, group) -> bytes:
        return put(
            group, b"\x11", pack_u32(self.party), pack_u32(len(self.elements)),
            self.elements, self.proofs,
        )

    @classmethod
    def from_bytes(cls, group, data: bytes) -> "Round1Post":
        r = Reader(data)
        party, m = _read_post_head(r, 0x11, "round-1 post")
        elements = read_many(group, r, m, object)
        proofs = read_many(group, r, m, DlogProof)
        r.expect_end()
        return cls(party, elements, proofs)


# round-2 bundle kind byte (the policy code) -> bundle type; policy none posts no bundle
_BUNDLE_KINDS = (type(None), L1RangeProof, L2RangeProof)


@dataclass(frozen=True)
class Round2Post:
    party: int
    cts: tuple
    bundle: object  # L1RangeProof | L2RangeProof | None

    def to_bytes(self, group) -> bytes:
        kind = _BUNDLE_KINDS.index(type(self.bundle))
        return put(
            group, b"\x12", pack_u32(self.party), pack_u32(len(self.cts)), self.cts,
            pack_u8(kind), self.bundle.to_bytes(group) if kind else b"",
        )

    @classmethod
    def from_bytes(cls, group, data: bytes) -> "Round2Post":
        r = Reader(data)
        party, m = _read_post_head(r, 0x12, "round-2 post")
        cts = read_many(group, r, m, Ciphertext)
        kind = r.u8()
        if kind >= len(_BUNDLE_KINDS):
            raise MalformedEncoding(f"unknown bundle kind {kind}")
        bundle = _BUNDLE_KINDS[kind].read_from(group, r) if kind else None
        r.expect_end()
        return cls(party, cts, bundle)


def _by_party(cfg, posts, round: int) -> dict:
    table = {}
    for post in posts:
        table[post.party] = post
    for i in range(cfg.n):
        if i not in table:
            raise MissingPost(i, round)
    return table


def round1_generate(cfg: ProtocolConfig, party: int, rng):
    """Draw the m round-1 secrets and build the post carrying their proofs."""
    if not 0 <= party < cfg.n:
        raise ValueError(f"party index {party} out of range")
    group = cfg.group
    base = cfg.base_context()
    x, elements, proofs = [], [], []
    for j in range(cfg.m):
        xj = group.random_scalar(rng)
        Aj = group.g ** xj
        x.append(xj)
        elements.append(Aj)
        proofs.append(prove_dlog(group, xj, Aj, base.child(b"r1", party, j), rng))
    return Round1Secret(party, tuple(x)), Round1Post(party, tuple(elements), tuple(proofs))


def _round1_failure(cfg: ProtocolConfig, post: Round1Post):
    """First slot whose proof fails (0 for a wrong dimension), or None if all hold."""
    if len(post.elements) != cfg.m or len(post.proofs) != cfg.m:
        return 0
    base = cfg.base_context()
    for j in range(cfg.m):
        ctx = base.child(b"r1", post.party, j)
        if not verify_dlog(cfg.group, post.elements[j], post.proofs[j], ctx):
            return j
    return None


def verify_round1(cfg: ProtocolConfig, post: Round1Post) -> bool:
    return _round1_failure(cfg, post) is None


def _rejected(what: str, party: int, check: str, detail=None) -> LedgerRejected:
    message = f"{what} of party {party} rejected ({check})"
    return LedgerRejected(party, check, message + (f": {detail}" if detail else ""))


def _check_round1(cfg: ProtocolConfig, posts):
    """Raise LedgerRejected (check "round1") naming the first post, in the
    given order, whose proof fails and its slot."""
    for post in posts:
        slot = _round1_failure(cfg, post)
        if slot is not None:
            raise _rejected("round-1 proof", post.party, "round1", f"slot {slot}")


def derive_pads(cfg: ProtocolConfig, round1_posts, party: int):
    """Pad keys h_ij for `party` from everyone's round-1 posts.

    All n posts must be present (else MissingPost) and every discrete-log
    proof must check out (else LedgerRejected with check "round1", naming
    the party and slot, as verify_ledger reports it) before any pad is
    trusted.
    """
    table = _by_party(cfg, round1_posts, 1)
    _check_round1(cfg, [table[k] for k in range(cfg.n)])
    pads = []
    for j in range(cfg.m):
        h = cfg.group.identity
        for k in range(party):
            h = h * table[k].elements[j]
        for k in range(party + 1, cfg.n):
            h = h / table[k].elements[j]
        pads.append(h)
    return tuple(pads)


def round2_generate(
    cfg: ProtocolConfig, party: int, values, secret: Round1Secret, pads, keypair: Keypair, rng
) -> Round2Post:
    """Encrypt the contribution under the pad keys and attach the policy bundle.

    Encryption randomness is the round-1 secret x_ij; the pads only cancel
    because the exact same exponents reappear here.
    """
    if secret.party != party:
        raise ValueError("round-1 secret belongs to a different party")
    if len(values) != cfg.m:
        raise ValueError(f"expected {cfg.m} entries, got {len(values)}")
    group = cfg.group
    cts = tuple(
        encrypt_exp(group, values[j], secret.x[j], pads[j]) for j in range(cfg.m)
    )
    bundle = None
    if cfg.policy.kind != rangeproof.NONE:
        prove = getattr(rangeproof, f"prove_{cfg.policy.kind}")
        ctx = cfg.base_context().child(b"r2", party)
        bundle = prove(group, values, secret.x, pads, keypair.pk, cfg.policy, ctx, rng)
    return Round2Post(party, cts, bundle)


def verify_contribution(cfg: ProtocolConfig, post: Round2Post, pads):
    """Check one round-2 post against its party's pad keys.

    `pads` is derive_pads(cfg, round1_posts, post.party).  Returns
    (ok, reason).  That each ciphertext reuses the party's round-1 element
    is verify_ledger's check: the pads alone do not carry those elements.
    """
    if len(post.cts) != cfg.m:
        return False, "malformed"
    if type(post.bundle) is not _BUNDLE_KINDS[cfg.policy.code]:
        return False, "policy"
    if post.bundle is None:
        return True, None
    verify = getattr(rangeproof, f"verify_{cfg.policy.kind}")
    ctx = cfg.base_context().child(b"r2", post.party)
    return verify(cfg.group, post.cts, post.bundle, cfg.policy, pads, ctx)


def tally(cfg: ProtocolConfig, round2_posts, window: DlogWindow | None = None) -> tuple:
    """Self-tally: multiply everyone's second components and take small dlogs.

    Returns the m slot totals.  The window defaults to what the policy
    implies; sessions without a policy must supply one.  A NotInWindow
    failure here means a corrupt contribution slipped past verification.
    """
    table = _by_party(cfg, round2_posts, 2)
    if window is None:
        window = cfg.policy.tally_window(cfg.n)
    if window is None:
        raise ValueError("policy none implies no window; pass one explicitly")
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


def _ledger_round(cfg: ProtocolConfig, ledger, round: int) -> list:
    """Decode one round of the ledger into one post per party, in party order.

    Every entry must sit under a party id in [0, n), be that party's only
    entry of the round, decode, claim the party it is filed under and carry
    m slots.
    """
    cls = Round1Post if round == 1 else Round2Post
    posts = {}
    for entry in ledger.read_round(round):
        party = entry.party
        where = f"round-{round} entry seq {entry.seq} of party {party}"
        if not 0 <= party < cfg.n:
            raise LedgerRejected(party, "party", f"{where}: party id outside [0, {cfg.n})")
        if party in posts:
            raise LedgerRejected(party, "duplicate", f"{where}: second entry in round {round}")
        try:
            post = cls.from_bytes(cfg.group, entry.payload)
        except ZorroError as exc:
            raise LedgerRejected(party, "malformed", f"{where} malformed: {exc}") from exc
        if post.party != party:
            raise LedgerRejected(party, "binding", f"{where}: payload claims party {post.party}")
        dim = len(post.elements if round == 1 else post.cts)
        if dim != cfg.m:
            raise LedgerRejected(party, "dimension", f"{where}: {dim} slots, expected {cfg.m}")
        posts[party] = post
    for i in range(cfg.n):
        if i not in posts:
            raise MissingPost(i, round)
    return [posts[i] for i in range(cfg.n)]


def verify_ledger(cfg: ProtocolConfig, ledger) -> list:
    """Publicly verify every post of a session ledger; anyone can run this.

    Checks that the header matches cfg, that each of the n parties posted
    exactly once per round under its own id, that each ciphertext reuses its
    round-1 element g^(x_ij) ("binding"; else the pads need not cancel),
    that every round-1 proof holds and that every contribution proves valid
    under its derive_pads keys.  Returns the round-2 posts in party order,
    ready for tally().  The hash chain is the caller's to check
    (Ledger.verify_chain).  A failed check raises LedgerRejected naming the
    party, the check and, where there is one, the slot; an absent post
    raises MissingPost.  Malformed bytes never raise anything else.
    """
    if ledger.header != cfg.header():
        raise LedgerRejected(None, "header", "ledger header does not match the session")
    posts1 = _ledger_round(cfg, ledger, 1)
    posts2 = _ledger_round(cfg, ledger, 2)
    for post1, post2 in zip(posts1, posts2):
        for j in range(cfg.m):
            if post2.cts[j].A != post1.elements[j]:
                detail = f"slot {j} does not reuse its round-1 element"
                raise _rejected("contribution", post2.party, "binding", detail)
    _check_round1(cfg, posts1)
    for post in posts2:
        ok, reason = verify_contribution(cfg, post, derive_pads(cfg, posts1, post.party))
        if not ok:
            raise _rejected("contribution", post.party, reason)
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
        self.keypair = Keypair.generate(cfg.group, rng)
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
        post = round2_generate(
            self.cfg, self.index, values, self._secret, self._pads, self.keypair, self.rng
        )
        self._state = "round2"
        return post
