"""The four base sigma protocols, made non-interactive via Fiat-Shamir.

  DlogProof     knowledge of every x_j with A_j = g^(x_j), one proof for all
  DhTupleProof  (g, h, u, v) is a DH 4-tuple: u = g^w and v = h^w
  BitProof      a Pedersen commitment y = g^b * gamma^rho holds a bit b
  SquareProof   a Pedersen commitment W holds the square of what C holds

Bit and square proofs are over Pedersen commitments g^v * gamma^rho
(Pedersen, CRYPTO 1991), gamma = group.gamma a generator hashed to the
group, whose log to base g nobody knows: one element binds v, and a proof
about it needs one commitment per equation.

Challenges are SHA-256 over the length-prefixed domain tag, group id and
encoded elements, reduced mod N, N = Group.challenge_space = min(q, 2^128):
the whole of Z_q on the modular groups, 128 bits on secp256k1, so that a
cheating prover who fixes its commitments meets the one challenge it can
answer with probability 1/N, 2^-128 there.  Element order is pinned:
statement elements in transcript order, then commitment elements.

Each relation states its verification equations once, as a function of
(responses, challenge) returning the commitments they answer: the verifier
compares its value at the posted responses and hashed challenge with the
posted commitments, and the prover takes it at its nonces with challenge 0.

Provers of bit and square proofs know every log involved, to base g and to
base gamma (the committed values, the randomness, the nonces), and run in
two phases.  First, prove_bit and prove_square draw their nonces and
evaluate the same functions on _Logs(group), where each element is the pair
of its logs (u, v) for g^u * gamma^v, instead of making one variable-base
power per use of a commitment.  Each returns a Pending proof: the _Log
values of what it proves and of its commitments, and the function that
turns their elements into the proof (hash the challenge, compute the
responses).  Then lift_proofs lifts the logs of a whole list of pending
proofs with one group.lift call, which on the curve walks the g and gamma
tables for all of them in lockstep, and finishes each.  The nonces are
drawn in proof order, before any lift, so a bundle's bytes do not depend on
how its proofs are batched.  Where no party knows the logs (the DH-tuple
statement of a re-encryption link, whose base holds a pad key) provers
evaluate on elements.

A verifier states each check once, as verify(group, *args) -> bool: a
relation verifier here, or rangeproof's link and recomposition checks.  Its
guards outside the group equations (a membership or identity-base guard, a
challenge share's range, a shared first component) run on real values, and
each group equation is a multi_exp compared with what it must equal, the
computed side on the left.  Passed _Recording(group) in place of the group,
the same verifier records its equations instead of evaluating them: there
multi_exp returns an unevaluated _Product, and comparing one with the posted
element or _Product it must equal appends that equation, as terms whose
product must be the identity, and reads True.  recorded() returns the
equations, or None when a guard fails.

A verifier states the checks of one post as a check table: a flat ordered
list of (label, verify, args) entries, each labelled where it is built with
what a rejection names: a bundle's (check, slot, digit), a round-1 proof's
(party, None).  first_failure reads a table.  On a group with q > 2^128
(secp256k1, see folds) it folds every recorded equation into one multi_exp
(fold_holds), the small-exponent batch test of Bellare, Garay and Rabin
(EUROCRYPT 1998): equation k is raised to its own 128-bit weight and terms
that share a base merge.  The weights hash every term of every equation
folded (fold_weights), so changing any base or exponent the fold checks (a
response, commitment, challenge or pad) draws fresh weights, and a false
equation passes with probability about 2^-128 a draw.  When the fold fails,
and always on the modular groups, the entries run one by one on the group
and the label of the first failing one is returned, so a rejection reads
the same with or without the fold.
protocol.verify_ledger folds one table of every decoded post (fold_parts) at once.
"""

import hashlib
from dataclasses import dataclass
from itertools import islice
from typing import Callable, NamedTuple

from .encoding import Record, Share, pack_u32
from .groups import SECURITY_BITS


class FsTranscript:
    """A Fiat-Shamir domain: the tag every challenge of one sub-proof hashes.

    Contexts are forked with child() so every sub-proof of a bundle gets its
    own domain and nothing can be replayed across slots, parties or sessions.
    """

    __slots__ = ("domain_tag",)

    def __init__(self, domain_tag: bytes):
        self.domain_tag = bytes(domain_tag)

    def child(self, *labels) -> "FsTranscript":
        tag = self.domain_tag
        for label in labels:
            part = label if isinstance(label, bytes) else str(label).encode()
            tag += b"/" + part
        return FsTranscript(tag)

    def challenge(self, group, *elements) -> int:
        """SHA-256 of u32(len m) || m for m in [tag, group id, enc(e)...], mod N."""
        h = hashlib.sha256()
        for msg in (self.domain_tag, group.group_id.encode(), *map(group.encode_element, elements)):
            h.update(pack_u32(len(msg)))
            h.update(msg)
        return int.from_bytes(h.digest(), "big") % group.challenge_space


# -- equations as data, and their fold ----------------------------------------


class _Product:
    """An unevaluated multi_exp of a _Recording: its (base, exponent) terms."""

    __slots__ = ("_view", "terms")

    def __init__(self, view, terms):
        self._view, self.terms = view, terms

    def __eq__(self, other):
        """Record self / other, other the posted element or _Product it must
        equal, as one equation whose product must be the identity; read True."""
        q = self._view.q
        rhs = other.terms if isinstance(other, _Product) else ((other, 1),)
        self._view.equations.append((*self.terms, *((base, -e % q) for base, e in rhs)))
        return True


class _Recording:
    """`group` with a multi_exp that returns a _Product: passed to a verifier
    that compares each product with what it must equal (product on the
    left), it records every group equation of the check in `equations`."""

    __slots__ = ("_group", "equations")

    def __init__(self, group):
        self._group = group
        self.equations = []

    def __getattr__(self, name):
        return getattr(self._group, name)

    def multi_exp(self, pairs):
        return _Product(self, tuple(pairs))


@dataclass(frozen=True)
class _Log:
    """A group element g^u * gamma^v held as its discrete logs (u, v) mod q."""

    u: int
    v: int


class _Logs:
    """`group` seen through discrete logs to bases g and gamma, the mirror of
    _Recording.

    Its elements are _Log pairs, made by at(u, v), and multi_exp returns the
    pair of sums of log * e mod q.  Passed to a commitment function by a
    prover that knows every log, it gives each commitment's logs, which
    lift_proofs turns into elements.
    """

    __slots__ = ("q", "g", "gamma")

    def __init__(self, group):
        self.q = group.q
        self.g = self.at(1)
        self.gamma = self.at(0, 1)

    def at(self, u: int, v: int = 0) -> _Log:
        """The element g^u * gamma^v."""
        return _Log(u % self.q, v % self.q)

    def multi_exp(self, pairs) -> _Log:
        pairs = tuple(pairs)
        return self.at(sum(P.u * e for P, e in pairs), sum(P.v * e for P, e in pairs))


class Pending(NamedTuple):
    """A proof whose nonces are drawn and whose elements are still logs:
    finish(*elements) is the proof, given the element g^u * gamma^v of each
    _Log of `logs`, in order."""

    logs: tuple
    finish: Callable


def lift_proofs(group, pending) -> list:
    """Every pending proof finished, in order, after one group.lift call
    for the logs of all of them."""
    pending = list(pending)
    elements = iter(group.lift([(P.u, P.v) for proof in pending for P in proof.logs]))
    return [proof.finish(*islice(elements, len(proof.logs))) for proof in pending]


def folds(group) -> bool:
    """Whether verifiers fold each post: only where q > 2^128 (secp256k1), so
    that 128-bit weights are distinct mod q and still short exponents."""
    return group.q >> SECURITY_BITS > 0


def fold_weights(group, equations) -> list[int]:
    """Weight k, for equation k, is the first 16 bytes of SHA-256(d || u32(k)),
    d the SHA-256 of a tag, the group id and, equation by equation, u32(its
    term count) then each term as encode_element(base) || encode_scalar(e),
    e taken mod q."""
    group_id = group.group_id.encode()
    h = hashlib.sha256(b"zorro.fold.v2" + pack_u32(len(group_id)) + group_id)
    for terms in equations:
        h.update(pack_u32(len(terms)))
        for base, e in terms:
            h.update(group.encode_element(base) + group.encode_scalar(e))
    digest, size = h.digest(), SECURITY_BITS // 8
    return [
        int.from_bytes(hashlib.sha256(digest + pack_u32(k)).digest()[:size], "big")
        for k in range(len(equations))
    ]


def fold_holds(group, parts) -> bool:
    """Whether every equation of `parts` holds, as one multi_exp.

    `parts` lists the recorded checks of one table or of a whole ledger
    (fold_parts); a None among them fails the fold.  Equation k is raised to
    weight k of fold_weights, terms that share a base are merged, and the
    product of all must be the identity.
    """
    if any(part is None for part in parts):
        return False
    equations = [eq for part in parts for eq in part]
    merged = {}
    for weight, terms in zip(fold_weights(group, equations), equations):
        for base, e in terms:
            merged[base] = merged.get(base, 0) + weight * e
    return group.multi_exp(merged.items()) == group.identity


def recorded(group, verify, args):
    """The equations verify(group, *args) compares, in order, recorded on
    _Recording(group); None when it returns False, which only a failed guard
    outside the equations can make it do."""
    view = _Recording(group)
    return view.equations if verify(view, *args) else None


def fold_parts(group, table) -> list:
    """The recorded equations of every entry of a check table, in table
    order: the table's fold_holds parts."""
    return [recorded(group, verify, args) for _, verify, args in table]


def first_failure(group, table):
    """The label of the first entry of a check table that fails, or None.

    On a folding group the table is folded first; when that fails, and on
    every other group, the entries run one by one.
    """
    if folds(group) and fold_holds(group, fold_parts(group, table)):
        return None
    return next((label for label, verify, args in table if not verify(group, *args)), None)


# -- knowledge of discrete log ------------------------------------------------


@dataclass(frozen=True)
class DlogProof(Record):
    """Knowledge of every x_j with A_j = g^(x_j), j = 1..m, in one proof.

    K = g^k and s = k + sum_j c^j * x_j, c the hash challenge: the batched
    Schnorr proof of Gennaro, Leigh, Sundaram and Yerazunis (ASIACRYPT
    2004).  m + 1 accepting transcripts with one K and distinct c solve a
    Vandermonde system for k and every x_j; the powers start at c^1 so that
    k stays apart from x_1.  Challenges are drawn from [0, N), so the
    knowledge error is m/N, and at m = 1 this is the Schnorr proof.
    """

    K: object
    s: int


def _powers(c: int, count: int, q: int) -> list[int]:
    """c^1, ..., c^count mod q."""
    powers, power = [], 1
    for _ in range(count):
        power = power * c % q
        powers.append(power)
    return powers


def _dlog_commitment(group, As, s: int, c: int):
    """g^s * prod_j A_j^(-c^j): the K that response s answers under challenge c."""
    q = group.q
    powers = _powers(c, len(As), q)
    return group.multi_exp(((group.g, s), *((A, -e % q) for A, e in zip(As, powers))))


def prove_dlog(group, xs, As, ctx: FsTranscript, rng) -> DlogProof:
    """Prove knowledge of each xs[j] with As[j] = g^(xs[j])."""
    k = group.random_scalar(rng)
    K = _dlog_commitment(group, As, k, 0)
    c, q = ctx.challenge(group, *As, K), group.q
    return DlogProof(K, (k + sum(e * x for e, x in zip(_powers(c, len(xs), q), xs))) % q)


def verify_dlog(group, As, proof: DlogProof, ctx: FsTranscript) -> bool:
    if not all(map(group.contains, As)):
        return False
    c = ctx.challenge(group, *As, proof.K)
    return _dlog_commitment(group, As, proof.s, c) == proof.K


# -- Diffie-Hellman 4-tuple ---------------------------------------------------


@dataclass(frozen=True)
class DhTupleProof(Record):
    a: object
    b: object
    z: int


def _dh_commitments(group, statement, z: int, e: int):
    """(g1^z * u^-e, h1^z * v^-e): the (a, b) that response z answers under e."""
    g1, h1, u, v = statement
    minus_e = group.q - e
    return group.multi_exp(((g1, z), (u, minus_e))), group.multi_exp(((h1, z), (v, minus_e)))


def prove_dh_tuple(group, w: int, statement, ctx: FsTranscript, rng) -> DhTupleProof:
    """statement = (g1, h1, u, v) with u = g1^w, v = h1^w."""
    g1, h1, u, v = statement
    if g1 == group.identity or h1 == group.identity:
        raise ValueError("degenerate DH-tuple statement: identity base")
    r = group.random_scalar(rng)
    a, b = _dh_commitments(group, statement, r, 0)
    e = ctx.challenge(group, g1, h1, u, v, a, b)
    return DhTupleProof(a, b, (r + e * w) % group.q)


def verify_dh_tuple(group, statement, proof: DhTupleProof, ctx: FsTranscript) -> bool:
    g1, h1, u, v = statement
    if g1 == group.identity or h1 == group.identity:
        return False
    e = ctx.challenge(group, g1, h1, u, v, proof.a, proof.b)
    return _dh_commitments(group, statement, proof.z, e) == (proof.a, proof.b)


# -- a committed bit ---------------------------------------------------------


@dataclass(frozen=True)
class BitProof(Record):
    """The digit y = g^b * gamma^rho and a proof that b is 0 or 1.

    Branch 0 claims y = gamma^rho, branch 1 claims y / g = gamma^rho, each a
    Schnorr proof of a log to base gamma: one commitment a_b a branch.  The
    branch challenges split the hash challenge c mod N, so only d0 is posted,
    as a challenge share in [0, N): the verifier takes d1 = c - d0 mod N, the
    OR-proof form of Cramer, Damgard and Schoenmakers (CRYPTO 1994), which
    holds over any challenge group.
    """

    y: object
    a0: object
    a1: object
    d0: Share
    r0: int
    r1: int


def _bit_branch(group, y, bit: int, d: int, r: int):
    """gamma^r * (y / g^bit)^d: the commitment of the branch claiming `bit`
    that response r answers under branch challenge d.  For bit 1 it is
    stated as gamma^r * y^d * g^-d, so a fold merges its bases into the y
    and g it already holds, and no quotient y / g is computed."""
    terms = ((group.gamma, r), (y, d))
    return group.multi_exp((*terms, (group.g, -d % group.q)) if bit else terms)


def prove_bit(group, b: int, rho: int, ctx: FsTranscript, rng) -> Pending:
    """Commit to bit b with randomness rho, y = g^b * gamma^rho, and prove it
    holds 0 or 1 without revealing which.  y and both branches are
    evaluated on discrete logs; lift_proofs finishes the BitProof."""
    if b not in (0, 1):
        raise ValueError(f"bit witness must be 0 or 1, got {b}")
    logs, q, N = _Logs(group), group.q, group.challenge_space
    y = logs.at(b, rho)
    # the branch claiming b is real; the other is simulated from (d_sim, r_sim)
    w = group.random_scalar(rng)
    d_sim, r_sim = group.random_share(rng), group.random_scalar(rng)
    real = _bit_branch(logs, y, 0, 0, w)  # at d = 0 the claimed bit does not enter
    sim = _bit_branch(logs, y, 1 - b, d_sim, r_sim)

    def finish(y, a0, a1) -> BitProof:
        c = ctx.challenge(group, y, a0, a1)
        d_real = (c - d_sim) % N
        r_real = (w - rho * d_real) % q
        if b == 0:
            return BitProof(y, a0, a1, d_real, r_real, r_sim)
        return BitProof(y, a0, a1, d_sim, r_sim, r_real)

    return Pending((y, *((real, sim) if b == 0 else (sim, real))), finish)


def verify_bit(group, proof: BitProof, ctx: FsTranscript) -> bool:
    N, y = group.challenge_space, proof.y
    if not 0 <= proof.d0 < N:
        return False
    c = ctx.challenge(group, y, proof.a0, proof.a1)
    d1 = (c - proof.d0) % N
    return (
        _bit_branch(group, y, 0, proof.d0, proof.r0) == proof.a0
        and _bit_branch(group, y, 1, d1, proof.r1) == proof.a1
    )


# -- square relation ----------------------------------------------------------


@dataclass(frozen=True)
class SquareProof(Record):
    """W = g^(a^2) * gamma^s_b holds the square of what C = g^a * gamma^s_a
    holds: C opens to (a, s_a), and W = C^a * gamma^(s_b - a * s_a)."""

    K1: object
    K2: object
    z1: int
    z2: int
    z3: int


def _square_commitments(group, C, W, z1: int, z2: int, z3: int, c: int):
    """The (K1, K2) that responses (z1, z2, z3) answer under challenge c:

        K1 = g^z1 * gamma^z2 / C^c
        K2 = C^z1 * gamma^z3 / W^c
    """
    g, gamma, minus_c = group.g, group.gamma, group.q - c
    return (
        group.multi_exp(((g, z1), (gamma, z2), (C, minus_c))),
        group.multi_exp(((C, z1), (gamma, z3), (W, minus_c))),
    )


def prove_square(group, a: int, s_a: int, s_b: int, ctx: FsTranscript, rng) -> Pending:
    """Commit to a with randomness s_a and to a^2 with s_b, and prove the
    second holds the square of the first.  The commitments are evaluated on
    discrete logs; lift_proofs finishes (C, W, proof)."""
    logs, q = _Logs(group), group.q
    C, W = logs.at(a, s_a), logs.at(a * a, s_b)
    k1, k2, k3 = (group.random_scalar(rng) for _ in range(3))
    K = _square_commitments(logs, C, W, k1, k2, k3, 0)

    def finish(C, W, K1, K2) -> tuple:
        c = ctx.challenge(group, C, W, K1, K2)
        return C, W, SquareProof(
            K1, K2, (k1 + c * a) % q, (k2 + c * s_a) % q, (k3 + c * (s_b - a * s_a)) % q
        )

    return Pending((C, W, *K), finish)


def verify_square(group, C, W, proof: SquareProof, ctx: FsTranscript) -> bool:
    c = ctx.challenge(group, C, W, proof.K1, proof.K2)
    K = _square_commitments(group, C, W, proof.z1, proof.z2, proof.z3, c)
    return K == (proof.K1, proof.K2)
