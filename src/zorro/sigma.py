"""The four base sigma protocols, made non-interactive via Fiat-Shamir.

  DlogProof     knowledge of a with A = g^a
  DhTupleProof  (g, h, u, v) is a DH 4-tuple: u = g^w and v = h^w
  BitProof      disjunctive proof that a ciphertext encrypts 0 or 1
  SquareProof   plaintext of one ciphertext is the square of the other's

Challenges are SHA-256 over the length-prefixed domain tag, group id and
encoded elements, reduced mod q.  Element order is pinned: statement
elements in transcript order, then commitment elements.

Each relation states its verification equations once, as a function of
(responses, challenge) returning the commitments they answer: the verifier
compares its value at the posted responses and hashed challenge with the
posted commitments, and the prover takes it at its nonces with challenge 0.

Provers of bit and square proofs work under their own key pk = g^sk and know
every discrete log involved (sk, the plaintexts, the randomness, the nonces).
They evaluate the same functions on _Logs(group), where each element is its
log to base g, and turn each resulting commitment into an element with one
fixed-base g ** log (_Logs.lift), instead of one variable-base power per use
of pk or of the ciphertext.  They encrypt the ciphertexts they prove the same
way, in the same lift, and return them with the proof.  Where no party knows
the logs (the DH-tuple statement of a re-encryption link, whose base holds a
pad key) provers evaluate on elements.

A verifier states each check once, as verify(group, *args) -> bool: a
relation verifier here, or rangeproof's link and recomposition checks.  Its
guards outside the group equations (a membership or identity-base guard, a
shared first component) run on real values, and each group equation is a
multi_exp compared with what it must equal, the computed side on the left.  Passed _Recording(group) in place of the group,
the same verifier records its equations instead of evaluating them: there
multi_exp returns an unevaluated _Product, and comparing one with the posted
element or _Product it must equal appends that equation, as terms whose
product must be the identity, and reads True.  recorded() returns the
equations, or None when a guard fails.

A verifier states the checks of one post as a check table: a flat ordered
list of (label, verify, args) entries, each labelled where it is built with
what a rejection names: a bundle's (check, slot, digit), a round-1 proof's
(party, slot).  first_failure reads a table.  On a group with q > 2^128
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

from .elgamal import Ciphertext, Keypair, encrypt_exp
from .encoding import Record, pack_u32


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
        """SHA-256 of u32(len m) || m for m in [tag, group id, enc(e)...], mod q."""
        h = hashlib.sha256()
        for msg in (self.domain_tag, group.group_id.encode(), *map(group.encode_element, elements)):
            h.update(pack_u32(len(msg)))
            h.update(msg)
        return int.from_bytes(h.digest(), "big") % group.q


# -- equations as data, and their fold ----------------------------------------

FOLD_WEIGHT_BITS = 128


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
    """A group element held as its discrete log to base g, mod q."""

    log: int
    q: int

    def __pow__(self, e: int):
        return _Log(self.log * e % self.q, self.q)


class _Logs:
    """`group` seen through discrete logs to base g, the mirror of _Recording.

    Its elements are _Log scalars: ** scales, and multi_exp returns
    sum(log * e) mod q.  Passed to a commitment function by a prover that
    knows every log, it gives each commitment's log; lift turns those into
    elements with one fixed-base g ** log each.
    """

    __slots__ = ("_group", "q", "g")

    def __init__(self, group):
        self._group = group
        self.q = group.q
        self.g = self.at(1)

    def at(self, log: int) -> _Log:
        """The element g^log."""
        return _Log(log % self.q, self.q)

    def multi_exp(self, pairs) -> _Log:
        return self.at(sum(P.log * e for P, e in pairs))

    def lift(self, value):
        """`value` (a _Log, a Ciphertext of them, or a tuple of either) with
        every _Log replaced by its group element g ** log."""
        if isinstance(value, _Log):
            return self._group.g ** value.log
        if isinstance(value, Ciphertext):
            return Ciphertext(self.lift(value.A), self.lift(value.B))
        return tuple(map(self.lift, value))


def folds(group) -> bool:
    """Whether verifiers fold each post: only where q > 2^128 (secp256k1), so
    that 128-bit weights are distinct mod q and still short exponents."""
    return group.q >> FOLD_WEIGHT_BITS > 0


def fold_weights(group, equations) -> list[int]:
    """Weight k, for equation k, is the first 16 bytes of SHA-256(d || u32(k)),
    d the SHA-256 of a tag, the group id and, equation by equation, u32(its
    term count) then each term as put(group, base, e), e taken mod q."""
    group_id = group.group_id.encode()
    h = hashlib.sha256(b"zorro.fold.v2" + pack_u32(len(group_id)) + group_id)
    for terms in equations:
        h.update(pack_u32(len(terms)))
        for base, e in terms:
            h.update(group.encode_element(base) + group.encode_scalar(e))
    digest, size = h.digest(), FOLD_WEIGHT_BITS // 8
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
    K: object
    s: int


def _dlog_commitment(group, A, s: int, c: int):
    """g^s * A^-c: the K that response s answers under challenge c."""
    return group.multi_exp(((group.g, s), (A, group.q - c)))


def prove_dlog(group, a: int, A, ctx: FsTranscript, rng) -> DlogProof:
    k = group.random_scalar(rng)
    K = _dlog_commitment(group, A, k, 0)
    c = ctx.challenge(group, A, K)
    return DlogProof(K, (k + c * a) % group.q)


def verify_dlog(group, A, proof: DlogProof, ctx: FsTranscript) -> bool:
    if not group.contains(A):
        return False
    c = ctx.challenge(group, A, proof.K)
    return _dlog_commitment(group, A, proof.s, c) == proof.K


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


# -- encryption of a bit ------------------------------------------------------


@dataclass(frozen=True)
class BitProof(Record):
    """Disjunctive Chaum-Pedersen: (x, y) encrypts 0 or encrypts 1.

    Branch 1 plays against (x, y) (the m=0 claim), branch 2 against
    (x, y/g) (the m=1 claim).  The branch challenges split the hash
    challenge c, so only d1 is posted: the verifier takes d2 = c - d1 mod q,
    the OR-proof form of Cramer, Damgard and Schoenmakers (CRYPTO 1994).
    """

    a1: object
    b1: object
    a2: object
    b2: object
    d1: int
    r1: int
    r2: int


def _bit_branch(group, x, y, pk, bit: int, d: int, r: int):
    """(g^r * x^d, pk^r * (y / g^bit)^d): the commitments of the branch claiming
    `bit` that response r answers under branch challenge d.  For bit 1 the
    second is stated as pk^r * y^d * g^-d, so a fold merges its bases into the
    y and g it already holds, and no quotient y / g is computed."""
    b_terms = ((pk, r), (y, d), (group.g, -d % group.q)) if bit else ((pk, r), (y, d))
    return group.multi_exp(((group.g, r), (x, d))), group.multi_exp(b_terms)


def prove_bit(
    group, m: int, r: int, keypair: Keypair, ctx: FsTranscript, rng
) -> tuple[Ciphertext, BitProof]:
    """Encrypt bit m with randomness r under pk = keypair.pk, ct = (g^r, pk^r * g^m),
    and prove it encrypts 0 or 1 without revealing which; returns (ct, proof).
    The ciphertext and both branches are evaluated on discrete logs."""
    if m not in (0, 1):
        raise ValueError(f"bit witness must be 0 or 1, got {m}")
    logs = _Logs(group)
    pk = logs.at(keypair.sk)
    own = encrypt_exp(logs, m, r, pk)
    x, y = own.A, own.B
    # the branch claiming m is real; the other is simulated from (d_sim, r_sim)
    w = group.random_scalar(rng)
    d_sim, r_sim = group.random_scalar(rng), group.random_scalar(rng)
    real = _bit_branch(logs, x, y, pk, 0, 0, w)  # at d = 0 the claimed bit does not enter
    sim = _bit_branch(logs, x, y, pk, 1 - m, d_sim, r_sim)
    first, second = (real, sim) if m == 0 else (sim, real)
    ct, (a1, b1), (a2, b2) = logs.lift((own, first, second))
    c = ctx.challenge(group, keypair.pk, ct.A, ct.B, a1, b1, a2, b2)
    d_real = (c - d_sim) % group.q
    r_real = (w - r * d_real) % group.q
    if m == 0:
        return ct, BitProof(a1, b1, a2, b2, d_real, r_real, r_sim)
    return ct, BitProof(a1, b1, a2, b2, d_sim, r_sim, r_real)


def verify_bit(group, ct: Ciphertext, pk, proof: BitProof, ctx: FsTranscript) -> bool:
    x, y = ct.A, ct.B
    c = ctx.challenge(group, pk, x, y, proof.a1, proof.b1, proof.a2, proof.b2)
    d2 = (c - proof.d1) % group.q
    return (
        _bit_branch(group, x, y, pk, 0, proof.d1, proof.r1) == (proof.a1, proof.b1)
        and _bit_branch(group, x, y, pk, 1, d2, proof.r2) == (proof.a2, proof.b2)
    )


# -- square relation ----------------------------------------------------------


@dataclass(frozen=True)
class SquareProof(Record):
    """Plaintext of ct_b is the square of the plaintext of ct_a.

    Both ciphertexts encrypt in the exponent of g under one key pk (the
    challenge also hashes g, in the statement slot after pk).
    """

    C_a: Ciphertext
    C_b: Ciphertext
    v: int
    z_a: int
    z_b: int


def _square_commitments(group, ct_a, ct_b, pk, v: int, z_a: int, z_b: int, c: int):
    """The (C_a, C_b) that responses (v, z_a, z_b) answer under challenge c:

        C_a = (g^z_a, g^v * pk^z_a) / ct_a^c
        C_b = ct_a^v * (g^z_b, pk^z_b) / ct_b^c
    """
    g, exp, minus_c = group.g, group.multi_exp, group.q - c
    C_a = Ciphertext(
        exp(((g, z_a), (ct_a.A, minus_c))), exp(((g, v), (pk, z_a), (ct_a.B, minus_c)))
    )
    C_b = Ciphertext(
        exp(((ct_a.A, v), (g, z_b), (ct_b.A, minus_c))),
        exp(((ct_a.B, v), (pk, z_b), (ct_b.B, minus_c))),
    )
    return C_a, C_b


def _square_challenge(group, ctx: FsTranscript, pk, ct_a, ct_b, C_a, C_b) -> int:
    """The hash of pk, g, ct_a, ct_b, C_a, C_b, one element at a time."""
    return ctx.challenge(
        group, pk, group.g, ct_a.A, ct_a.B, ct_b.A, ct_b.B, C_a.A, C_a.B, C_b.A, C_b.B
    )


def prove_square(
    group, a: int, s_a: int, s_b: int, keypair: Keypair, ctx: FsTranscript, rng
) -> tuple[Ciphertext, Ciphertext, SquareProof]:
    """Encrypt a with randomness s_a and a^2 with s_b under keypair.pk, and
    prove the second plaintext the square of the first; returns
    (ct_a, ct_b, proof).  The ciphertexts and commitments are evaluated on
    discrete logs."""
    logs = _Logs(group)
    pk = logs.at(keypair.sk)
    own_a, own_b = encrypt_exp(logs, a, s_a, pk), encrypt_exp(logs, a * a, s_b, pk)
    x = group.random_scalar(rng)
    r_a = group.random_scalar(rng)
    r_b = group.random_scalar(rng)
    commitments = _square_commitments(logs, own_a, own_b, pk, x, r_a, r_b, 0)
    ct_a, ct_b, (C_a, C_b) = logs.lift((own_a, own_b, commitments))
    c = _square_challenge(group, ctx, keypair.pk, ct_a, ct_b, C_a, C_b)
    q = group.q
    return ct_a, ct_b, SquareProof(
        C_a, C_b, (c * a + x) % q, (c * s_a + r_a) % q, (c * (s_b - a * s_a) + r_b) % q
    )


def verify_square(
    group, ct_a: Ciphertext, ct_b: Ciphertext, pk, proof: SquareProof, ctx: FsTranscript
) -> bool:
    c = _square_challenge(group, ctx, pk, ct_a, ct_b, proof.C_a, proof.C_b)
    commitments = _square_commitments(group, ct_a, ct_b, pk, proof.v, proof.z_a, proof.z_b, c)
    return commitments == (proof.C_a, proof.C_b)
