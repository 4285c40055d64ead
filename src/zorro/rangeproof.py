"""Composite validity proofs bounding the L2 or L1 norm of an encrypted vector.

Both proofs hang off the same trick: link each posted slot ct_j = (A_j, B_j)
= (g^x_j, h_pad^x_j * g^T_j) to a Pedersen commitment C_j = g^T_j * gamma^x_j
under the group's second generator gamma (sigma's BitProof and SquareProof
are over such commitments), then show the relevant quantity decomposes into
committed bits.  (A_j, C_j) is an ElGamal encryption of T_j under gamma,
whose key nobody holds, so C_j hides T_j under DDH as the posted slot does.

The link of slot j is the DH-tuple proof of (g, h_pad/gamma, A_j, B_j/C_j)
with witness x_j: it forces B_j = C_j * (h_pad/gamma)^x_j, so C_j commits,
with randomness x_j, to the T_j the slot encrypts.  Only its commitment
(h_pad/gamma)^r, whose log nobody knows, is a variable-base power.  Every
other element a prover makes is a Pedersen commitment or a commitment of a
sigma proof, each a g^u * gamma^v that sigma.lift_proofs lifts in one
batch: an L1 prover lifts all its bit proofs at once, an L2 prover its
squares, then, after the links that need each C_j, its digits.

L2 ("l2"): prove sum_j T_j^2 <= 2^L - 1, with one square per slot.  Each
square W_j = g^(T_j^2) * gamma^s_j takes fresh randomness s_j, and the
digits' randomness recomposes to sum_j s_j, so

    prod_j W_j  ==  prod_l y_l^(2^l)

is one equation, which holds exactly when sum_j T_j^2 = sum_l 2^l b_l.
Square proofs tie every W_j to the C_j its link checks, and bit proofs pin
each digit y_l = g^b_l * gamma^rho_l.

L1 ("l1"): prove every element and their sum decompose into L proven bits,
hence each T_j >= 0 and sum_j T_j <= 2^L - 1.  The digits of row j take
randomness recomposing to x_j and the sum's digits to sum_j x_j, so

    prod_l y_jl^(2^l) == C_j                     for every j
    prod_j C_j        == prod_l sigma_l^(2^l)

An L1 bundle does not post C_j: the verifier takes it as what row j
recomposes (one Horner chain per slot), so the first identity holds by
construction and the link of slot j checks that C_j.  The sum check is the
second identity, stated over the row digits themselves, so a fold merges
its terms into bases it already holds.
An L2 bundle posts each C_j, the one its square proof returns.

The enforced bound is always the full digit range 2^L - 1; exact non-power
bounds would need set-membership machinery that is out of scope.

verify_l1 and verify_l2 check a bundle's shape, then its check table,
checks(posted_cts, pad_keys, ctx), as the sigma module describes.  Each
entry is labelled (check, slot, digit) where it is built: the check is the
reason a rejection names, and slot and digit say where the entry sits (None
where it runs over neither).  The link and recomposition checks are
verifiers in sigma's form, so the fold records their equations as it
records the sigma proofs': a link checks its DH tuple, and a recomposition
is multi_exp(terms) == multi_exp(digits at 2^l), one equation.

Each bundle states its shape once, as runs(m, L): the item type and count
of every field, in wire order, for m slots and L digits.  A count is an
int, or (rows, cols) for a table such as L1's m x L digit rows.  The shared
Bundle base derives the codec (each run item by item) and the verifiers'
shape check fits(m, L) from that table.  A bundle posts no tag, policy or
slot count: the ledger header gives the policy, and with it L, and m.
"""

import math
from dataclasses import dataclass, fields
from itertools import islice

from .dlog import DlogWindow
from .elgamal import Ciphertext
from .encoding import Reader, put, read_many
from .errors import BoundExceeded, NegativeEntry
from .sigma import (
    BitProof,
    DhTupleProof,
    SquareProof,
    first_failure,
    lift_proofs,
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


def _link_statement(group, ct: Ciphertext, C, h_pad) -> tuple:
    """(g, h_pad/gamma, ct.A, ct.B/C): a DH tuple exactly when (ct.A, C)
    encrypts under gamma what the posted ct does under h_pad, that is when
    C = g^t * gamma^x for ct = (g^x, h_pad^x * g^t)."""
    return (group.g, h_pad / group.gamma, ct.A, ct.B / C)


def _link_proofs(group, cts, Cs, x, pad_keys, ctx, rng) -> tuple:
    """The link of every posted slot j, witness x[j], to its commitment
    Cs[j], in context ctx/link/j.  prove_dh_tuple raises ValueError when a
    pad key equals gamma."""
    links = enumerate(zip(cts, Cs, x, pad_keys))
    return tuple(
        prove_dh_tuple(group, xj, _link_statement(group, ct, C, h), ctx.child(b"link", j), rng)
        for j, (ct, C, xj, h) in links
    )


def verify_reencryption_link(group, ct: Ciphertext, C, h_pad, proof, ctx) -> bool:
    """Whether `proof` proves the link of ct and its commitment C."""
    return verify_dh_tuple(group, _link_statement(group, ct, C, h_pad), proof, ctx)


def _link_checks(posted_cts, Cs, links, pad_keys, ctx) -> list:
    """The link of every posted slot j to Cs[j] in context ctx/link/j,
    labelled ("tuple", j, None)."""
    return [
        (("tuple", j, None), verify_reencryption_link, (ct, C, h, link, ctx.child(b"link", j)))
        for j, (ct, C, h, link) in enumerate(zip(posted_cts, Cs, pad_keys, links))
    ]


# -- digit decomposition -------------------------------------------------------


def _digit_randomness(group, target: int, width: int, rng) -> list[int]:
    """Scalars rho_l with sum_l 2^l rho_l = target (mod q)."""
    rho = [group.random_scalar(rng) for _ in range(width)]
    rho[0] = (target - sum(rho[l] << l for l in range(1, width))) % group.q
    return rho


def _prove_digits(group, digits, rand, row_ctx, rng) -> tuple:
    """Commit to digit l with randomness rand[l] and prove it a bit in
    context row_ctx/l; returns the pending bit proofs (sigma.Pending), each
    finished proof holding its digit."""
    return tuple(
        prove_bit(group, d, r, row_ctx.child(l), rng)
        for l, (d, r) in enumerate(zip(digits, rand))
    )


def _spelled(digits) -> list:
    """The (y_l, 2^l) terms of the number the digits of bit proofs spell."""
    return [(p.y, 1 << l) for l, p in enumerate(digits)]


def _recomposes(group, terms, digits) -> bool:
    """Whether multi_exp(terms) == prod_l y_l^(2^l), the number the digits
    spell: one equation."""
    return group.multi_exp(terms) == group.multi_exp(_spelled(digits))


def _recomposed(digits):
    """prod_l y_l^(2^l) of the digits of bit proofs, by Horner's rule from
    the top digit."""
    C = digits[-1].y
    for d in reversed(digits[:-1]):
        C = C * C * d.y
    return C


def _bit_checks(check, slot, digit_proofs, row_ctx) -> list:
    """The bit proof of digit l in context row_ctx/l, labelled (check, slot, l),
    for every digit of a row."""
    return [
        ((check, slot, l), verify_bit, (p, row_ctx.child(l)))
        for l, p in enumerate(digit_proofs)
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
    """A validity bundle: the runs of items that its subclass lays out in
    runs(m, L) for m slots and L digits, which the reader takes from the
    ledger header."""

    def _run_values(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def fits(self, m: int, L: int) -> bool:
        """Every run has the length runs(m, L) gives it."""
        return all(
            _run_fits(items, count)
            for items, (_, count) in zip(self._run_values(), self.runs(m, L), strict=True)
        )

    def to_bytes(self, group) -> bytes:
        return put(group, *self._run_values())

    @classmethod
    def read_from(cls, group, reader: Reader, m: int, L: int) -> "Bundle":
        return cls(*(_read_run(group, reader, kind, count) for kind, count in cls.runs(m, L)))


# -- L2 norm bound ------------------------------------------------------------


@dataclass(frozen=True)
class L2RangeProof(Bundle):
    commitments: tuple        # C_j = g^T_j * gamma^x_j, one per slot
    links: tuple              # DH-tuple proofs, one per slot
    digit_proofs: tuple       # bit proofs of the digits of sum_j T_j^2
    squares: tuple            # W_j = g^(T_j^2) * gamma^s_j, one per slot
    square_proofs: tuple      # square-relation proofs, aligned with squares

    @staticmethod
    def runs(m: int, L: int) -> tuple:
        return (
            (object, m), (DhTupleProof, m), (BitProof, L), (object, m), (SquareProof, m),
        )

    def checks(self, posted_cts, pad_keys, ctx) -> list:
        """The check table (sigma.first_failure): the links, the squares'
        product against the digits, the digits' bits, the squares."""
        squares = enumerate(zip(self.commitments, self.squares, self.square_proofs))
        return [
            *_link_checks(posted_cts, self.commitments, self.links, pad_keys, ctx),
            (("consistency", None, None), _recomposes,
             ([(W, 1) for W in self.squares], self.digit_proofs)),
            *_bit_checks("bit", None, self.digit_proofs, ctx.child(b"bit")),
            *(
                (("square", j, None), verify_square, (C, W, p, ctx.child(b"square", j)))
                for j, (C, W, p) in squares
            ),
        ]


def prove_l2(group, cts, values, x, pad_keys, policy: BoundPolicy, ctx, rng) -> L2RangeProof:
    """Build the L2 validity bundle for the posted slots `cts`, which encrypt
    `values` with randomness `x` under pad keys `pad_keys`.

    Refuses with BoundExceeded when the sum of squares exceeds the effective
    bound 2^L - 1: the input rule of BoundPolicy.check at that limit.
    """
    if policy.kind != L2:
        raise ValueError("policy kind must be l2")
    s = policy._admit(values, policy.effective_bound)

    s_w = [group.random_scalar(rng) for _ in values]
    Cs, Ws, square_proofs = zip(*lift_proofs(group, [
        prove_square(group, t, xj, sj, ctx.child(b"square", j), rng)
        for j, (t, xj, sj) in enumerate(zip(values, x, s_w))
    ]))
    links = _link_proofs(group, cts, Cs, x, pad_keys, ctx, rng)
    # the digits' randomness recomposes to that of the squares' product, so the
    # consistency identity holds between commitments
    digit_rand = _digit_randomness(group, sum(s_w) % group.q, policy.L, rng)
    digit_proofs = tuple(lift_proofs(
        group, _prove_digits(group, bits_of(s, policy.L), digit_rand, ctx.child(b"bit"), rng)
    ))
    return L2RangeProof(Cs, links, digit_proofs, Ws, square_proofs)


def verify_l2(group, posted_cts, proof: L2RangeProof, policy: BoundPolicy, pad_keys, ctx):
    """Check an L2 bundle against the posted ciphertexts.

    Returns (ok, reason); reason names the first failed check, one of
    "malformed", "tuple", "consistency", "bit", "square".
    """
    return _verify(group, posted_cts, proof, policy, pad_keys, ctx)


# -- L1 norm bound with non-negativity ----------------------------------------


@dataclass(frozen=True)
class L1RangeProof(Bundle):
    links: tuple              # DH-tuple proofs; C_j is what row j recomposes, not posted
    element_digit_proofs: tuple  # rows of bit proofs of the digits of T_j, one row per slot
    sum_digit_proofs: tuple   # bit proofs of the digits of sum_j T_j

    @staticmethod
    def runs(m: int, L: int) -> tuple:
        return ((DhTupleProof, m), (BitProof, (m, L)), (BitProof, L))

    def checks(self, posted_cts, pad_keys, ctx) -> list:
        """The check table (sigma.first_failure): the links, the rows' bits,
        the sum against its digits, its bits.  C_j is what row j
        recomposes."""
        rows = self.element_digit_proofs
        Cs = [_recomposed(row) for row in rows]
        return [
            *_link_checks(posted_cts, Cs, self.links, pad_keys, ctx),
            *(
                check
                for j, row in enumerate(rows)
                for check in _bit_checks("bit", j, row, ctx.child(b"bit", j))
            ),
            (("sum", None, None), _recomposes,
             ([term for row in rows for term in _spelled(row)], self.sum_digit_proofs)),
            *_bit_checks("sum_bit", None, self.sum_digit_proofs, ctx.child(b"sumbit")),
        ]


def prove_l1(group, cts, values, x, pad_keys, policy: BoundPolicy, ctx, rng) -> L1RangeProof:
    """Build the L1 + non-negativity bundle of the posted slots `cts`, which
    encrypt `values` with randomness `x` under pad keys `pad_keys`.

    Refuses with NegativeEntry on any negative element and BoundExceeded
    when the element sum exceeds 2^L - 1: the input rule of
    BoundPolicy.check at that limit.
    """
    if policy.kind != L1:
        raise ValueError("policy kind must be l1")
    total = policy._admit(values, policy.effective_bound)
    digits = [bits_of(t, policy.L) for t in values]
    sum_digits = bits_of(total, policy.L)
    return _build_l1(group, cts, digits, sum_digits, x, pad_keys, policy, ctx, rng)


def _build_l1(group, cts, digits, sum_digits, x, pad_keys, policy, ctx, rng) -> L1RangeProof:
    # digit lists are taken as given so tests can force dishonest bundles
    L = policy.L
    pending = [
        _prove_digits(
            group, digits[j], _digit_randomness(group, x[j], L, rng), ctx.child(b"bit", j), rng
        )
        for j in range(len(cts))
    ]
    pending.append(_prove_digits(
        group, sum_digits, _digit_randomness(group, sum(x) % group.q, L, rng),
        ctx.child(b"sumbit"), rng,
    ))
    # every bit proof of the bundle in one lift, then cut back into rows
    proofs = iter(lift_proofs(group, [p for row in pending for p in row]))
    *rows, sums = (tuple(islice(proofs, len(row))) for row in pending)
    links = _link_proofs(group, cts, [_recomposed(row) for row in rows], x, pad_keys, ctx, rng)
    return L1RangeProof(links, tuple(rows), sums)


def verify_l1(group, posted_cts, proof: L1RangeProof, policy: BoundPolicy, pad_keys, ctx):
    """Check an L1 bundle against the posted ciphertexts.

    Returns (ok, reason); reason is one of "malformed", "tuple", "bit",
    "sum", "sum_bit".
    """
    return _verify(group, posted_cts, proof, policy, pad_keys, ctx)
