"""Composite validity proofs bounding the L2 or L1 norm of an encrypted vector.

Both proofs hang off the same trick: re-encrypt each slot under the prover's
own long-term key h_i (tied to the posted ciphertext by a DH-tuple proof),
then show the relevant quantity decomposes into proven bits.

The provers take the posted slots and the Keypair (sk, h_i).  Every
ciphertext under h_i is the one a bit or square proof returns, encrypted
from its discrete logs with the proof's commitments, each element one
fixed-base g ** log.  A link proves its slot's E*[t].B = g ** (t + sk * x):
L2 takes the one its square proof returns, and L1 lifts it the same way.
Only a link's DH-tuple commitment (h_pad/h_i)^r, whose log nobody knows, is
a variable-base power.

L2 ("l2"): prove sum_j T_j^2 <= 2^L - 1, with one square per slot.  Each
square w_j is encrypted with fresh randomness r_j, and the digits' randomness
recomposes to sum_j r_j (as L1's sum digits recompose to sum_j x_j), so the
ledger equality

    prod_j E[w_j]  ==  prod_l E[s_l]^(2^l)

holds as an exact ciphertext identity exactly when sum w = sum 2^l s_l.
Square proofs tie every w_j to T_j^2 and bit proofs pin each digit.

L1 ("l1"): prove every element and their sum decompose into L proven bits,
hence each T_j >= 0 and sum_j T_j <= 2^L - 1.  Digit randomness is chosen to
recompose exactly, so both recompositions are plain ciphertext equalities:

    prod_l E[b_jl]^(2^l) == E*[T_j]      for every j
    prod_j E*[T_j]       == prod_l E[sigma_l]^(2^l)

An L1 bundle does not post E*[T_j]: the verifier takes it as
(ct_j.A, prod_l E[b_jl].B^(2^l)), the posted slot's first component and the
second component row j recomposes (one Horner chain per slot).  The first
identity is then the one equation ct_j.A == prod_l E[b_jl].A^(2^l), and the
link of slot j hashes and checks ct_j.B over that derived second component.
An L2 bundle posts the second component of each E*[T_j], the one its square
proof returns; the verifier takes the first as ct_j.A, the component the link
proves, as for L1.

The enforced bound is always the full digit range 2^L - 1; exact non-power
bounds would need set-membership machinery that is out of scope.

verify_l1 and verify_l2 check a bundle's shape, then its check table,
checks(posted_cts, pad_keys, ctx), as the sigma module describes.  Each
entry is labelled (check, slot, digit) where it is built: the check is the
reason a rejection names, and slot and digit say where the entry sits (None
where it runs over neither).  The link and recomposition checks are
verifiers in sigma's form, so the fold records their equations as it
records the sigma proofs': a link checks its DH tuple, and a recomposition
is multi_exp(cts at 1) == multi_exp(digits at 2^l), one equation per
ciphertext component compared.

Each bundle states its shape once, as runs(m, L): the item type and count
of every field after h_i, in wire order, for m slots and L digits.  A count
is an int, or (rows, cols) for a table such as L1's m x L digit rows.  The
shared Bundle base derives the codec (h_i, then each run item by item) and
the verifiers' shape check fits(m, L) from that table.  A bundle posts no
tag, policy or slot count: the ledger header gives the policy, and with it
L, and m.
"""

import math
from dataclasses import dataclass, fields

from .dlog import DlogWindow
from .elgamal import Ciphertext, Keypair
from .encoding import Reader, put, read_many, read_one
from .errors import BoundExceeded, NegativeEntry
from .sigma import (
    BitProof,
    DhTupleProof,
    SquareProof,
    first_failure,
    prove_bit,
    prove_dh_tuple,
    prove_square,
    verify_bit,
    verify_dh_tuple,
    verify_square,
)

L1, L2, NONE = "l1", "l2", "none"


@dataclass(frozen=True)
class BoundPolicy:
    """Validity policy: which norm is bounded and by how much.

    The input rule: under l1 and none, entries are non-negative and their
    sum is at most a limit; under l2, the sum of squares is at most a limit.
    The nominal limit is B, or B * B under l2.  The digit count L is the
    smallest width whose range covers the nominal limit (inclusive); what
    the proof actually enforces is the full digit range, exposed as
    effective_bound.
    """

    kind: str
    B: int

    def __post_init__(self):
        if self.kind not in (NONE, L1, L2):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.B < 1:
            raise ValueError("bound must be a positive integer")
        if self.B >= 1 << 64:
            raise ValueError(f"bound {self.B} does not fit in a u64")

    @classmethod
    def l1(cls, B: int) -> "BoundPolicy":
        return cls(L1, B)

    @classmethod
    def l2(cls, B: int) -> "BoundPolicy":
        return cls(L2, B)

    @property
    def L(self) -> int:
        # ceil(log2(x + 1)) == x.bit_length(), exact for any size of B
        return 0 if self.kind == NONE else max(1, self._nominal.bit_length())

    @property
    def _nominal(self) -> int:
        return self.B * self.B if self.kind == L2 else self.B

    @property
    def effective_bound(self) -> int:
        """What the digit decomposition actually enforces: 2^L - 1."""
        return (1 << self.L) - 1

    def tally_window(self, n: int) -> DlogWindow:
        """Search window for the n-party tally.  Policy none proves nothing,
        so its B, each party's nominal element sum, sets the window alone."""
        if self.kind == L2:
            per_party = math.isqrt(self.effective_bound)
            return DlogWindow(-n * per_party, n * per_party)
        return DlogWindow(0, n * (self.effective_bound if self.kind == L1 else self.B))

    def check(self, values) -> int:
        """Refuse `values` that break the input rule at the nominal limit,
        with NegativeEntry or BoundExceeded.  Returns the element sum, or
        under l2 the sum of squares."""
        return self._admit(values, self._nominal)

    def _admit(self, values, limit: int) -> int:
        """check at `limit`; the provers apply it at effective_bound."""
        if self.kind == L2:
            total = sum(t * t for t in values)
            if total > limit:
                raise BoundExceeded(f"sum of squares {total} > {limit}")
            return total
        if any(t < 0 for t in values):
            raise NegativeEntry(f"{self.kind} policy admits only non-negative entries")
        total = sum(values)
        if total > limit:
            raise BoundExceeded(f"element sum {total} > {limit}")
        return total


def bits_of(value: int, width: int) -> list[int]:
    """Binary digits of value, least significant first, exactly `width` long."""
    if value < 0 or value >= 1 << width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return [(value >> l) & 1 for l in range(width)]


# -- re-encryption link -------------------------------------------------------


def _link_statement(group, ct: Ciphertext, star_B, h_pad, h_i) -> tuple:
    """(g, h_pad/h_i, ct.A, ct.B/star_B): a DH tuple exactly when E*[t] =
    (ct.A, star_B) encrypts under h_i what the posted ct does under h_pad."""
    return (group.g, h_pad / h_i, ct.A, ct.B / star_B)


def _link_proof(group, ct: Ciphertext, star_B, x: int, h_pad, h_i, ctx, rng):
    """Prove the link of the posted slot ct = (g^x, h_pad^x * g^t), witness x,
    to E*[t] = (ct.A, star_B), star_B = g^(t + sk * x).  prove_dh_tuple raises
    ValueError when the pad key equals h_i."""
    return prove_dh_tuple(group, x, _link_statement(group, ct, star_B, h_pad, h_i), ctx, rng)


def _link_proofs(group, cts, star_Bs, x, pad_keys, h_i, ctx, rng) -> tuple:
    """The link of every posted slot j in context ctx/link/j, star_Bs[j] the
    second component of the slot's E*[T_j]."""
    links = enumerate(zip(cts, star_Bs, x, pad_keys))
    return tuple(
        _link_proof(group, ct, B, xj, h, h_i, ctx.child(b"link", j), rng)
        for j, (ct, B, xj, h) in links
    )


def verify_reencryption_link(group, ct: Ciphertext, star_B, h_pad, h_i, proof, ctx) -> bool:
    """Whether `proof` proves the link of ct and E*[t] = (ct.A, star_B)."""
    return verify_dh_tuple(group, _link_statement(group, ct, star_B, h_pad, h_i), proof, ctx)


def _link_checks(posted_cts, star_Bs, proof, pad_keys, ctx) -> list:
    """The link of every posted slot j in context ctx/link/j, labelled
    ("tuple", j, None), star_Bs[j] the second component of the slot's
    E*[T_j], whose first is ct_j.A."""
    links = enumerate(zip(posted_cts, star_Bs, pad_keys, proof.links))
    return [
        (("tuple", j, None), verify_reencryption_link,
         (ct, B, h, proof.h_i, link, ctx.child(b"link", j)))
        for j, (ct, B, h, link) in links
    ]


# -- digit decomposition -------------------------------------------------------


def _digit_randomness(group, target: int, width: int, rng) -> list[int]:
    """Scalars rho_l with sum_l 2^l rho_l = target (mod q)."""
    rho = [group.random_scalar(rng) for _ in range(width)]
    rho[0] = (target - sum(rho[l] << l for l in range(1, width))) % group.q
    return rho


def _prove_digits(group, digits, rand, keypair, row_ctx, rng):
    """Encrypt digit l with randomness rand[l] under keypair.pk and prove it a
    bit in context row_ctx/l; returns (ciphertexts, bit proofs)."""
    return tuple(zip(*(
        prove_bit(group, d, r, keypair, row_ctx.child(l), rng)
        for l, (d, r) in enumerate(zip(digits, rand))
    )))


def _recomposes(group, cts, digit_cts, parts=("A", "B")) -> bool:
    """Whether prod(cts) == prod_l E[d_l]^(2^l), the product of `cts` an
    encryption of the number the digits spell: one equation per component
    in `parts`."""
    return all(
        group.multi_exp((getattr(ct, part), 1) for ct in cts)
        == group.multi_exp((getattr(d, part), 1 << l) for l, d in enumerate(digit_cts))
        for part in parts
    )


def _recomposed_B(digit_cts):
    """prod_l E[d_l].B^(2^l), by Horner's rule from the top digit."""
    B = digit_cts[-1].B
    for d in reversed(digit_cts[:-1]):
        B = B * B * d.B
    return B


def _bit_checks(check, slot, digit_cts, digit_proofs, h_i, row_ctx) -> list:
    """The bit proof of digit l in context row_ctx/l, labelled (check, slot, l),
    for every digit of a row."""
    return [
        ((check, slot, l), verify_bit, (ct, h_i, p, row_ctx.child(l)))
        for l, (ct, p) in enumerate(zip(digit_cts, digit_proofs))
    ]


# -- verification: shape, then the check table --------------------------------


def _verify(group, posted_cts, proof, policy, pad_keys, ctx):
    """(ok, reason) of a bundle: "malformed" when its runs do not fit the m
    posted slots and L digits, or there are not m pad keys, else the check
    of the first entry of its check table that fails (sigma.first_failure)."""
    m = len(posted_cts)
    if not (proof.fits(m, policy.L) and len(pad_keys) == m):
        return False, "malformed"
    label = first_failure(group, proof.checks(posted_cts, pad_keys, ctx))
    return (True, None) if label is None else (False, label[0])


# -- bundle shape and codec ---------------------------------------------------


def _read_run(group, reader: Reader, kind, count) -> tuple:
    if isinstance(count, int):
        return read_many(group, reader, count, kind)
    rows, cols = count
    return tuple(read_many(group, reader, cols, kind) for _ in range(rows))


def _run_fits(items, count) -> bool:
    rows, cols = count if isinstance(count, tuple) else (count, None)
    return len(items) == rows and (cols is None or all(len(row) == cols for row in items))


@dataclass(frozen=True)
class Bundle:
    """A validity bundle: the prover key h_i, then the runs of items that its
    subclass lays out in runs(m, L) for m slots and L digits, which the
    reader takes from the ledger header."""

    h_i: object

    def _run_values(self) -> list:
        return [getattr(self, f.name) for f in fields(self)[1:]]

    def fits(self, m: int, L: int) -> bool:
        """Every run has the length runs(m, L) gives it."""
        return all(
            _run_fits(items, count)
            for items, (_, count) in zip(self._run_values(), self.runs(m, L), strict=True)
        )

    def to_bytes(self, group) -> bytes:
        return put(group, self.h_i, *self._run_values())

    @classmethod
    def read_from(cls, group, reader: Reader, m: int, L: int) -> "Bundle":
        h_i = read_one(group, reader, object)
        return cls(h_i, *(_read_run(group, reader, kind, count) for kind, count in cls.runs(m, L)))


# -- L2 norm bound ------------------------------------------------------------


@dataclass(frozen=True)
class L2RangeProof(Bundle):
    reencrypted_B: tuple      # E*[T_j].B; E*[T_j].A is ct_j.A
    links: tuple              # DH-tuple proofs, one per slot
    digit_cts: tuple          # E[s_l]
    digit_proofs: tuple       # bit proofs for the digits
    square_cts: tuple         # E[w_j], one per slot
    square_proofs: tuple      # square-relation proofs, aligned with square_cts

    @staticmethod
    def runs(m: int, L: int) -> tuple:
        return (
            (object, m), (DhTupleProof, m), (Ciphertext, L), (BitProof, L),
            (Ciphertext, m), (SquareProof, m),
        )

    def checks(self, posted_cts, pad_keys, ctx) -> list:
        """The check table (sigma.first_failure): the links, the square sum
        against the digits, the digits' bits, the squares.  E*[T_j] is
        (ct_j.A, reencrypted_B[j])."""
        stars = [Ciphertext(ct.A, B) for ct, B in zip(posted_cts, self.reencrypted_B)]
        squares = enumerate(zip(stars, self.square_cts, self.square_proofs))
        return [
            *_link_checks(posted_cts, self.reencrypted_B, self, pad_keys, ctx),
            (("consistency", None, None), _recomposes, (self.square_cts, self.digit_cts)),
            *_bit_checks(
                "bit", None, self.digit_cts, self.digit_proofs, self.h_i, ctx.child(b"bit")
            ),
            *(
                (("square", j, None), verify_square, (t, w, self.h_i, p, ctx.child(b"square", j)))
                for j, (t, w, p) in squares
            ),
        ]


def prove_l2(
    group, cts, values, x, pad_keys, keypair: Keypair, policy: BoundPolicy, ctx, rng
) -> L2RangeProof:
    """Build the L2 validity bundle for the posted slots `cts`, which encrypt
    `values` with randomness `x` under pad keys `pad_keys`, re-encrypted
    under the prover's key h_i = keypair.pk.

    Refuses with BoundExceeded when the sum of squares exceeds the effective
    bound 2^L - 1: the input rule of BoundPolicy.check at that limit.
    """
    if policy.kind != L2:
        raise ValueError("policy kind must be l2")
    s = policy._admit(values, policy.effective_bound)

    r_w = [group.random_scalar(rng) for _ in values]
    reenc, square_cts, square_proofs = zip(*(
        prove_square(group, t, xj, r, keypair, ctx.child(b"square", j), rng)
        for j, (t, xj, r) in enumerate(zip(values, x, r_w))
    ))
    star_Bs = tuple(ct.B for ct in reenc)
    links = _link_proofs(group, cts, star_Bs, x, pad_keys, keypair.pk, ctx, rng)
    # the digits' randomness recomposes to that of the squares' product, so the
    # consistency identity holds between ciphertexts
    digit_rand = _digit_randomness(group, sum(r_w) % group.q, policy.L, rng)
    digit_cts, digit_proofs = _prove_digits(
        group, bits_of(s, policy.L), digit_rand, keypair, ctx.child(b"bit"), rng
    )
    return L2RangeProof(
        keypair.pk, star_Bs, links, digit_cts, digit_proofs, square_cts, square_proofs
    )


def verify_l2(group, posted_cts, proof: L2RangeProof, policy: BoundPolicy, pad_keys, ctx):
    """Check an L2 bundle against the posted ciphertexts.

    Returns (ok, reason); reason names the first failed check, one of
    "malformed", "tuple", "consistency", "bit", "square".
    """
    return _verify(group, posted_cts, proof, policy, pad_keys, ctx)


# -- L1 norm bound with non-negativity ----------------------------------------


@dataclass(frozen=True)
class L1RangeProof(Bundle):
    links: tuple              # DH-tuple proofs; E*[T_j] is derived, not posted
    element_digit_cts: tuple  # rows of E[b_jl], one row per slot
    element_digit_proofs: tuple
    sum_digit_cts: tuple      # E[sigma_l]
    sum_digit_proofs: tuple

    @staticmethod
    def runs(m: int, L: int) -> tuple:
        return (
            (DhTupleProof, m), (Ciphertext, (m, L)), (BitProof, (m, L)),
            (Ciphertext, L), (BitProof, L),
        )

    def checks(self, posted_cts, pad_keys, ctx) -> list:
        """The check table (sigma.first_failure): the links, each row's first
        components against its slot's, the rows' bits, the sum against its
        digits, its bits.  E*[T_j] is (ct_j.A, the B that row j recomposes)."""
        rows = self.element_digit_cts
        stars = [Ciphertext(ct.A, _recomposed_B(row)) for ct, row in zip(posted_cts, rows)]
        return [
            *_link_checks(posted_cts, [star.B for star in stars], self, pad_keys, ctx),
            *(
                (("element", j, None), _recomposes, ((ct,), row, ("A",)))
                for j, (ct, row) in enumerate(zip(posted_cts, rows))
            ),
            *(
                check
                for j, (cts, proofs) in enumerate(zip(rows, self.element_digit_proofs))
                for check in _bit_checks("bit", j, cts, proofs, self.h_i, ctx.child(b"bit", j))
            ),
            (("sum", None, None), _recomposes, (stars, self.sum_digit_cts)),
            *_bit_checks(
                "sum_bit", None, self.sum_digit_cts, self.sum_digit_proofs, self.h_i,
                ctx.child(b"sumbit"),
            ),
        ]


def prove_l1(
    group, cts, values, x, pad_keys, keypair: Keypair, policy: BoundPolicy, ctx, rng
) -> L1RangeProof:
    """Build the L1 + non-negativity bundle of the posted slots `cts` under h_i = keypair.pk.

    Refuses with NegativeEntry on any negative element and BoundExceeded
    when the element sum exceeds 2^L - 1: the input rule of
    BoundPolicy.check at that limit.
    """
    if policy.kind != L1:
        raise ValueError("policy kind must be l1")
    total = policy._admit(values, policy.effective_bound)
    digits = [bits_of(t, policy.L) for t in values]
    sum_digits = bits_of(total, policy.L)
    return _build_l1(
        group, cts, values, digits, sum_digits, x, pad_keys, keypair, policy, ctx, rng
    )


def _build_l1(
    group, cts, values, digits, sum_digits, x, pad_keys, keypair, policy, ctx, rng
) -> L1RangeProof:
    # digit lists are taken as given so tests can force dishonest bundles
    L = policy.L
    star_Bs = [group.g ** ((t + keypair.sk * xj) % group.q) for t, xj in zip(values, x)]
    links = _link_proofs(group, cts, star_Bs, x, pad_keys, keypair.pk, ctx, rng)
    elem_cts, elem_proofs = zip(*(
        _prove_digits(
            group, digits[j], _digit_randomness(group, x[j], L, rng), keypair,
            ctx.child(b"bit", j), rng,
        )
        for j in range(len(values))
    ))
    sum_cts, sum_proofs = _prove_digits(
        group, sum_digits, _digit_randomness(group, sum(x) % group.q, L, rng), keypair,
        ctx.child(b"sumbit"), rng,
    )
    return L1RangeProof(keypair.pk, links, elem_cts, elem_proofs, sum_cts, sum_proofs)


def verify_l1(group, posted_cts, proof: L1RangeProof, policy: BoundPolicy, pad_keys, ctx):
    """Check an L1 bundle against the posted ciphertexts.

    Returns (ok, reason); reason is one of "malformed", "tuple", "element",
    "bit", "sum", "sum_bit".
    """
    return _verify(group, posted_cts, proof, policy, pad_keys, ctx)
