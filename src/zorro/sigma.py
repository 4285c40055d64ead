"""The four base sigma protocols, made non-interactive via Fiat-Shamir.

  DlogProof     knowledge of a with A = g^a
  DhTupleProof  (g, h, u, v) is a DH 4-tuple: u = g^w and v = h^w
  BitProof      disjunctive proof that a ciphertext encrypts 0 or 1
  SquareProof   plaintext of one ciphertext is the square of the other's

Challenges are SHA-256 over domain_tag || length-prefixed messages, reduced
mod q.  Message order is pinned: group id, then statement elements in
transcript order, then commitment elements.  Each prover is split into
commit/respond halves so tests can replay the interactive form with chosen
challenges (special-soundness checks); the public API is the NIZK.
"""

import hashlib
from dataclasses import dataclass

from .elgamal import Ciphertext, encrypt_exp
from .encoding import Record, pack_u32
from .errors import KeyMismatch


class FsTranscript:
    """Ordered hash input: a domain tag plus protocol messages.

    The challenge is a pure function of (domain_tag, messages).  Contexts
    are forked with child() so every sub-proof of a bundle gets its own
    domain and nothing can be replayed across slots, parties or sessions.
    """

    __slots__ = ("domain_tag", "messages")

    def __init__(self, domain_tag: bytes, messages=()):
        self.domain_tag = bytes(domain_tag)
        self.messages = list(messages)

    def copy(self) -> "FsTranscript":
        return FsTranscript(self.domain_tag, self.messages)

    def child(self, *labels) -> "FsTranscript":
        tag = self.domain_tag
        for label in labels:
            part = label if isinstance(label, bytes) else str(label).encode()
            tag += b"/" + part
        return FsTranscript(tag, self.messages)

    def append(self, *chunks: bytes):
        self.messages.extend(chunks)

    def challenge(self, group) -> int:
        h = hashlib.sha256()
        h.update(pack_u32(len(self.domain_tag)))
        h.update(self.domain_tag)
        for msg in self.messages:
            h.update(pack_u32(len(msg)))
            h.update(msg)
        return int.from_bytes(h.digest(), "big") % group.q


def _chal(group, ctx: FsTranscript, *elements) -> int:
    t = ctx.copy()
    t.append(group.group_id.encode())
    t.append(*(group.encode_element(e) for e in elements))
    return t.challenge(group)


# -- knowledge of discrete log ------------------------------------------------


@dataclass(frozen=True)
class DlogProof(Record):
    TAG = 0x01

    K: object
    s: int


def _dlog_commit(group, rng):
    k = group.random_scalar(rng)
    return k, group.g ** k


def _dlog_respond(group, a: int, k: int, c: int) -> int:
    return (k + c * a) % group.q


def prove_dlog(group, a: int, A, ctx: FsTranscript, rng) -> DlogProof:
    k, K = _dlog_commit(group, rng)
    c = _chal(group, ctx, A, K)
    return DlogProof(K, _dlog_respond(group, a, k, c))


def verify_dlog(group, A, proof: DlogProof, ctx: FsTranscript) -> bool:
    if not group.contains(A):
        return False
    c = _chal(group, ctx, A, proof.K)
    return group.g ** proof.s == proof.K * A ** c


# -- Diffie-Hellman 4-tuple ---------------------------------------------------


@dataclass(frozen=True)
class DhTupleProof(Record):
    TAG = 0x02

    a: object
    b: object
    z: int


def _dh_commit(group, g1, h1, rng):
    r = group.random_scalar(rng)
    return r, (g1 ** r, h1 ** r)


def _dh_respond(group, w: int, r: int, e: int) -> int:
    return (r + e * w) % group.q


def prove_dh_tuple(group, w: int, statement, ctx: FsTranscript, rng) -> DhTupleProof:
    """statement = (g1, h1, u, v) with u = g1^w, v = h1^w."""
    g1, h1, u, v = statement
    if g1 == group.identity or h1 == group.identity:
        raise ValueError("degenerate DH-tuple statement: identity base")
    r, (a, b) = _dh_commit(group, g1, h1, rng)
    e = _chal(group, ctx, g1, h1, u, v, a, b)
    return DhTupleProof(a, b, _dh_respond(group, w, r, e))


def verify_dh_tuple(group, statement, proof: DhTupleProof, ctx: FsTranscript) -> bool:
    g1, h1, u, v = statement
    if g1 == group.identity or h1 == group.identity:
        return False
    e = _chal(group, ctx, g1, h1, u, v, proof.a, proof.b)
    return g1 ** proof.z == proof.a * u ** e and h1 ** proof.z == proof.b * v ** e


# -- encryption of a bit ------------------------------------------------------


@dataclass(frozen=True)
class BitProof(Record):
    """Disjunctive Chaum-Pedersen: (x, y) encrypts 0 or encrypts 1.

    Branch 1 plays against (x, y) (the m=0 claim), branch 2 against
    (x, y/g) (the m=1 claim); d1 + d2 must equal the hash challenge.
    """

    TAG = 0x03

    a1: object
    b1: object
    a2: object
    b2: object
    d1: int
    d2: int
    r1: int
    r2: int


def prove_bit(group, m: int, r: int, ct: Ciphertext, pk, ctx: FsTranscript, rng) -> BitProof:
    """Prove ct = (g^r, pk^r) or (g^r, pk^r * g) without revealing which."""
    if m not in (0, 1):
        raise ValueError(f"bit witness must be 0 or 1, got {m}")
    if ct != encrypt_exp(group, m, r, pk):
        raise KeyMismatch("ciphertext does not match witness under this key")
    x, y = ct.A, ct.B
    q = group.q
    w = group.random_scalar(rng)
    if m == 0:
        # real branch 1, simulated branch 2
        d2, r2 = group.random_scalar(rng), group.random_scalar(rng)
        a1, b1 = group.g ** w, pk ** w
        a2 = group.g ** r2 * x ** d2
        b2 = pk ** r2 * (y / group.g) ** d2
        c = _chal(group, ctx, pk, x, y, a1, b1, a2, b2)
        d1 = (c - d2) % q
        r1 = (w - r * d1) % q
    else:
        # simulated branch 1, real branch 2
        d1, r1 = group.random_scalar(rng), group.random_scalar(rng)
        a1 = group.g ** r1 * x ** d1
        b1 = pk ** r1 * y ** d1
        a2, b2 = group.g ** w, pk ** w
        c = _chal(group, ctx, pk, x, y, a1, b1, a2, b2)
        d2 = (c - d1) % q
        r2 = (w - r * d2) % q
    return BitProof(a1, b1, a2, b2, d1, d2, r1, r2)


def verify_bit(group, ct: Ciphertext, pk, proof: BitProof, ctx: FsTranscript) -> bool:
    x, y = ct.A, ct.B
    c = _chal(group, ctx, pk, x, y, proof.a1, proof.b1, proof.a2, proof.b2)
    if (proof.d1 + proof.d2) % group.q != c:
        return False
    if proof.a1 != group.g ** proof.r1 * x ** proof.d1:
        return False
    if proof.b1 != pk ** proof.r1 * y ** proof.d1:
        return False
    if proof.a2 != group.g ** proof.r2 * x ** proof.d2:
        return False
    return proof.b2 == pk ** proof.r2 * (y / group.g) ** proof.d2


# -- square relation ----------------------------------------------------------


@dataclass(frozen=True)
class SquareProof(Record):
    """Plaintext of ct_b is the square of the plaintext of ct_a.

    Verification equations (base is the message generator of both
    ciphertexts, pk their shared key):

        (g^z_a, base^v * pk^z_a)  =  ct_a^c * C_a
        ct_a^v * (g^z_b, pk^z_b)  =  ct_b^c * C_b
    """

    TAG = 0x04

    C_a: Ciphertext
    C_b: Ciphertext
    v: int
    z_a: int
    z_b: int


def _square_commit(group, ct_a: Ciphertext, pk, base, rng):
    x = group.random_scalar(rng)
    r_a = group.random_scalar(rng)
    r_b = group.random_scalar(rng)
    C_a = Ciphertext(group.g ** r_a, base ** x * pk ** r_a)
    C_b = Ciphertext(ct_a.A ** x * group.g ** r_b, ct_a.B ** x * pk ** r_b)
    return (x, r_a, r_b), (C_a, C_b)


def _square_respond(group, a, s_a, s_b, state, c):
    x, r_a, r_b = state
    q = group.q
    v = (c * a + x) % q
    z_a = (c * s_a + r_a) % q
    z_b = (c * (s_b - a * s_a) + r_b) % q
    return v, z_a, z_b


def prove_square(
    group, a: int, s_a: int, s_b: int, ct_a: Ciphertext, ct_b: Ciphertext, pk,
    ctx: FsTranscript, rng, base=None,
) -> SquareProof:
    """Prove ct_b encrypts a^2 given ct_a encrypts a (same key, same base).

    s_a and s_b are the encryption randomness of ct_a and ct_b.
    """
    if base is None:
        base = group.g
    if ct_a != encrypt_exp(group, a, s_a, pk, base=base):
        raise KeyMismatch("ct_a does not match witness under this key/base")
    if ct_b != encrypt_exp(group, a * a, s_b, pk, base=base):
        raise KeyMismatch("ct_b does not encrypt the square under this key/base")
    state, (C_a, C_b) = _square_commit(group, ct_a, pk, base, rng)
    c = _chal(
        group, ctx, pk, base, ct_a.A, ct_a.B, ct_b.A, ct_b.B,
        C_a.A, C_a.B, C_b.A, C_b.B,
    )
    v, z_a, z_b = _square_respond(group, a, s_a, s_b, state, c)
    return SquareProof(C_a, C_b, v, z_a, z_b)


def verify_square(
    group, ct_a: Ciphertext, ct_b: Ciphertext, pk, proof: SquareProof,
    ctx: FsTranscript, base=None,
) -> bool:
    if base is None:
        base = group.g
    C_a, C_b = proof.C_a, proof.C_b
    c = _chal(
        group, ctx, pk, base, ct_a.A, ct_a.B, ct_b.A, ct_b.B,
        C_a.A, C_a.B, C_b.A, C_b.B,
    )
    if group.g ** proof.z_a != ct_a.A ** c * C_a.A:
        return False
    if base ** proof.v * pk ** proof.z_a != ct_a.B ** c * C_a.B:
        return False
    if ct_a.A ** proof.v * group.g ** proof.z_b != ct_b.A ** c * C_b.A:
        return False
    return ct_a.B ** proof.v * pk ** proof.z_b == ct_b.B ** c * C_b.B
