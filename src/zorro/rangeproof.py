"""Composite validity proofs bounding the L2 or L1 norm of an encrypted vector.

Both proofs hang off the same trick: re-encrypt each slot under the prover's
own long-term key h_i (tied to the posted ciphertext by a DH-tuple proof),
then show the relevant quantity decomposes into proven bits.

L2 ("l2"): prove sum_j T_j^2 <= 2^L - 1.  The squares w_j are encrypted with
noise r_j that telescopes to zero across the vector and carries the digit
randomness, so the ledger equality

    prod_j E[w_j]  ==  prod_l E[s_l]^(2^l)

holds as an exact ciphertext identity exactly when sum w = sum 2^l s_l.
Square proofs tie every w_j to T_j^2 and bit proofs pin each digit.

L1 ("l1"): prove every element and their sum decompose into L proven bits,
hence each T_j >= 0 and sum_j T_j <= 2^L - 1.  Digit randomness is chosen to
recompose exactly, so both recompositions are plain ciphertext equalities:

    prod_l E[b_jl]^(2^l) == E*[T_j]      for every j
    prod_j E*[T_j]       == prod_l E[sigma_l]^(2^l)

The enforced bound is always the full digit range 2^L - 1; exact non-power
bounds would need set-membership machinery that is out of scope.

Each bundle states its shape once, as runs(m, L): the item type and count
of every field after h_i, in wire order, for m slots and L digits.  A count
is an int, or (rows, cols) for a table such as L1's m x L digit rows.  The
shared Bundle base derives the codec (tag, policy, u32 m, h_i, then each
run item by item) and the verifiers' shape check fits(m) from that table.
"""

import math
from dataclasses import dataclass, fields
from functools import reduce

from .dlog import DlogWindow
from .elgamal import Ciphertext, encrypt_exp, hom_mul, hom_pow
from .encoding import Reader, pack_u8, pack_u32, pack_u64, put, read_many, read_one
from .errors import BoundExceeded, MalformedEncoding, NegativeEntry
from .sigma import (
    BitProof,
    DhTupleProof,
    SquareProof,
    prove_bit,
    prove_dh_tuple,
    prove_square,
    verify_bit,
    verify_dh_tuple,
    verify_square,
)

L1, L2, NONE = "l1", "l2", "none"

_KIND_CODES = {NONE: 0, L1: 1, L2: 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

# deserialization sanity caps
_MAX_DIM = 1 << 20
_MAX_DIGITS = 256


@dataclass(frozen=True)
class BoundPolicy:
    """Validity policy: which norm is bounded and by how much.

    The digit count L is the smallest width whose range covers the nominal
    bound B (inclusive); what the proof actually enforces is the full digit
    range, exposed as effective_bound.
    """

    kind: str
    B: int = 0

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind != NONE and self.B < 1:
            raise ValueError("bound must be a positive integer")

    @classmethod
    def l1(cls, B: int) -> "BoundPolicy":
        return cls(L1, B)

    @classmethod
    def l2(cls, B: int) -> "BoundPolicy":
        return cls(L2, B)

    @classmethod
    def none(cls) -> "BoundPolicy":
        return cls(NONE, 0)

    @property
    def L(self) -> int:
        # ceil(log2(x + 1)) == x.bit_length(), exact for any size of B
        if self.kind == L1:
            return max(1, self.B.bit_length())
        if self.kind == L2:
            return max(1, (self.B * self.B).bit_length())
        return 0

    @property
    def effective_bound(self) -> int:
        """What the digit decomposition actually enforces: 2^L - 1."""
        return (1 << self.L) - 1 if self.kind != NONE else 0

    def tally_window(self, n: int) -> DlogWindow | None:
        """Search window for the n-party tally; None when unbounded."""
        if self.kind == L1:
            return DlogWindow(0, n * self.effective_bound)
        if self.kind == L2:
            per_party = math.isqrt(self.effective_bound)
            return DlogWindow(-n * per_party, n * per_party)
        return None

    @property
    def code(self) -> int:
        """The policy's one-byte wire code: none 0, l1 1, l2 2."""
        return _KIND_CODES[self.kind]

    def to_bytes(self) -> bytes:
        return pack_u8(self.code) + pack_u64(self.B)

    @classmethod
    def read_from(cls, reader: Reader) -> "BoundPolicy":
        code = reader.u8()
        if code not in _KIND_NAMES:
            raise MalformedEncoding(f"unknown policy code {code}")
        B = reader.u64()
        kind = _KIND_NAMES[code]
        if (kind == NONE) != (B == 0):
            raise MalformedEncoding(f"policy {kind} cannot carry bound {B}")
        return cls(kind, B)


def bits_of(value: int, width: int) -> list[int]:
    """Binary digits of value, least significant first, exactly `width` long."""
    if value < 0 or value >= 1 << width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return [(value >> l) & 1 for l in range(width)]


def noise_terms(group, xstar: list[int]) -> list[int]:
    """r_j = (sum_{k<j} x*_k - sum_{k>j} x*_k) * x*_j; telescopes to zero."""
    q = group.q
    total = sum(xstar) % q
    terms = []
    prefix = 0
    for x in xstar:
        suffix = (total - prefix - x) % q
        terms.append((prefix - suffix) * x % q)
        prefix = (prefix + x) % q
    return terms


# -- re-encryption link -------------------------------------------------------


def reencryption_link(group, t: int, x: int, h_pad, h_i, ctx, rng):
    """Re-encrypt t under h_i with the same randomness x used under h_pad,
    and prove both ciphertexts carry the same plaintext.

    Returns (E*[t], proof).  The proof statement is the DH 4-tuple
    (g, h_pad/h_i, g^x, (h_pad/h_i)^x): the posted and re-encrypted
    ciphertexts differ exactly by that last factor in their second slot.
    """
    base = h_pad / h_i
    if base == group.identity:
        raise ValueError("degenerate link: pad key equals long-term key")
    ct_star = encrypt_exp(group, t, x, h_i)
    statement = (group.g, base, group.g ** x, base ** x)
    return ct_star, prove_dh_tuple(group, x, statement, ctx, rng)


def verify_reencryption_link(group, ct: Ciphertext, ct_star: Ciphertext, h_pad, h_i, proof, ctx) -> bool:
    if ct.A != ct_star.A:
        return False
    base = h_pad / h_i
    if base == group.identity:
        return False
    statement = (group.g, base, ct.A, ct.B / ct_star.B)
    return verify_dh_tuple(group, statement, proof, ctx)


def _prove_links(group, values, x, pad_keys, h_i, ctx, rng):
    """(E*[T_j] for every slot, their link proofs), one slot after another."""
    reenc, links = zip(*(
        reencryption_link(group, values[j], x[j], pad_keys[j], h_i, ctx.child(b"link", j), rng)
        for j in range(len(values))
    ))
    return reenc, links


def _links_ok(group, posted_cts, proof, pad_keys, ctx) -> bool:
    return all(
        verify_reencryption_link(group, ct, ct_star, h, proof.h_i, link, ctx.child(b"link", j))
        for j, (ct, ct_star, h, link) in enumerate(
            zip(posted_cts, proof.reencrypted, pad_keys, proof.links)
        )
    )


# -- digit decomposition -------------------------------------------------------


def _prove_digits(group, digits, rand, h_i, row_ctx, rng):
    """Encrypt digit l with randomness rand[l] under h_i and prove it a bit
    in context row_ctx/l; returns (ciphertexts, bit proofs)."""
    cts = tuple(encrypt_exp(group, d, r, h_i) for d, r in zip(digits, rand))
    proofs = tuple(
        prove_bit(group, d, r, ct, h_i, row_ctx.child(l), rng)
        for l, (d, r, ct) in enumerate(zip(digits, rand, cts))
    )
    return cts, proofs


def _recompose(digit_cts) -> Ciphertext:
    """prod_l E[d_l]^(2^l): an encryption of the number the digits spell."""
    acc = digit_cts[0]
    for l in range(1, len(digit_cts)):
        acc = hom_mul(acc, hom_pow(digit_cts[l], 1 << l))
    return acc


def _bits_ok(group, digit_cts, digit_proofs, h_i, row_ctx) -> bool:
    return all(
        verify_bit(group, ct, h_i, p, row_ctx.child(l))
        for l, (ct, p) in enumerate(zip(digit_cts, digit_proofs))
    )


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
    """A validity bundle: its policy, the prover key h_i, then the runs of
    items that its subclass lays out in runs(m, L) and tags with TAG and
    the policy KIND.  `links` holds one proof per slot, so its length is
    the m that the wire form carries."""

    policy: BoundPolicy
    h_i: object

    def _run_values(self) -> list:
        return [getattr(self, f.name) for f in fields(self)[2:]]

    def fits(self, m: int) -> bool:
        """Every run has the length runs(m, L) gives it under this bundle's policy."""
        shape = self.runs(m, self.policy.L)
        return all(
            _run_fits(items, count)
            for items, (_, count) in zip(self._run_values(), shape, strict=True)
        )

    def to_bytes(self, group) -> bytes:
        return put(
            group, pack_u8(self.TAG), self.policy.to_bytes(), pack_u32(len(self.links)),
            self.h_i, *self._run_values(),
        )

    @classmethod
    def read_from(cls, group, reader: Reader) -> "Bundle":
        reader.expect_tag(cls.TAG, f"{cls.KIND} bundle")
        policy = BoundPolicy.read_from(reader)
        if policy.kind != cls.KIND:
            raise MalformedEncoding(f"bundle policy is not {cls.KIND}")
        m = reader.u32()
        if not 1 <= m <= _MAX_DIM or policy.L > _MAX_DIGITS:
            raise MalformedEncoding("implausible bundle dimensions")
        h_i = read_one(group, reader, object)
        runs = cls.runs(m, policy.L)
        return cls(policy, h_i, *(_read_run(group, reader, kind, count) for kind, count in runs))


# -- L2 norm bound ------------------------------------------------------------


@dataclass(frozen=True)
class L2RangeProof(Bundle):
    reencrypted: tuple        # E*[T_j]; padded with encryptions of 0 past m
    links: tuple              # DH-tuple proofs, one per real slot
    digit_cts: tuple          # E[s_l]
    digit_proofs: tuple       # bit proofs for the digits
    square_cts: tuple         # E[w_j], one per (padded) slot
    square_proofs: tuple      # square-relation proofs, aligned with square_cts

    TAG = 0x05
    KIND = L2

    @staticmethod
    def runs(m: int, L: int) -> tuple:
        m_ext = _extended_len(m, L)
        return (
            (Ciphertext, m_ext), (DhTupleProof, m), (Ciphertext, L), (BitProof, L),
            (Ciphertext, m_ext), (SquareProof, m_ext),
        )


def _extended_len(m: int, L: int) -> int:
    # the digit randomness rides on the first L square-ciphertext slots, so
    # the w-vector must be strictly longer than L
    return m if m > L else L + 1


def prove_l2(group, values, x, pad_keys, h_i, policy: BoundPolicy, ctx, rng) -> L2RangeProof:
    """Build the L2 validity bundle for `values` posted with randomness `x`
    under pad keys `pad_keys`, re-encrypted under the prover's key h_i.

    Refuses with BoundExceeded when sum of squares exceeds the effective
    bound 2^L - 1.
    """
    if policy.kind != L2:
        raise ValueError("policy kind must be l2")
    m, L = len(values), policy.L
    s = sum(t * t for t in values)
    if s > policy.effective_bound:
        raise BoundExceeded(f"sum of squares {s} > {policy.effective_bound}")

    m_ext = _extended_len(m, L)
    padded = list(values) + [0] * (m_ext - m)
    x_all = list(x) + [group.random_scalar(rng) for _ in range(m_ext - m)]

    reenc, links = _prove_links(group, values, x, pad_keys, h_i, ctx, rng)
    reenc += tuple(encrypt_exp(group, 0, x_all[j], h_i) for j in range(m, m_ext))

    x_digits = [group.random_scalar(rng) for _ in range(L)]
    digit_cts, digit_proofs = _prove_digits(
        group, bits_of(s, L), x_digits, h_i, ctx.child(b"bit"), rng
    )

    xstar = [group.random_scalar(rng) for _ in range(m_ext)]
    noise = noise_terms(group, xstar)
    square_cts, square_proofs = [], []
    for j in range(m_ext):
        r_w = noise[j]
        if j < L:
            r_w = (r_w + x_digits[j] * (1 << j)) % group.q
        w = padded[j] * padded[j]
        ct_w = encrypt_exp(group, w, r_w, h_i)
        square_cts.append(ct_w)
        square_proofs.append(
            prove_square(
                group, padded[j], x_all[j], r_w, reenc[j], ct_w, h_i,
                ctx.child(b"square", j), rng,
            )
        )

    return L2RangeProof(
        policy, h_i, reenc, links, digit_cts, digit_proofs,
        tuple(square_cts), tuple(square_proofs),
    )


def verify_l2(group, posted_cts, proof: L2RangeProof, policy: BoundPolicy, pad_keys, ctx):
    """Check an L2 bundle against the posted ciphertexts.

    Returns (ok, reason); reason names the first failed check, one of
    "policy", "malformed", "tuple", "consistency", "bit", "square".
    """
    if proof.policy != policy:
        return False, "policy"
    m = len(posted_cts)
    if not proof.fits(m) or len(pad_keys) != m:
        return False, "malformed"
    if not _links_ok(group, posted_cts, proof, pad_keys, ctx):
        return False, "tuple"
    if reduce(hom_mul, proof.square_cts) != _recompose(proof.digit_cts):
        return False, "consistency"
    if not _bits_ok(group, proof.digit_cts, proof.digit_proofs, proof.h_i, ctx.child(b"bit")):
        return False, "bit"
    if not all(
        verify_square(group, ct_t, ct_w, proof.h_i, p, ctx.child(b"square", j))
        for j, (ct_t, ct_w, p) in enumerate(
            zip(proof.reencrypted, proof.square_cts, proof.square_proofs)
        )
    ):
        return False, "square"
    return True, None


# -- L1 norm bound with non-negativity ----------------------------------------


@dataclass(frozen=True)
class L1RangeProof(Bundle):
    reencrypted: tuple        # E*[T_j]
    links: tuple              # DH-tuple proofs
    element_digit_cts: tuple  # rows of E[b_jl], one row per slot
    element_digit_proofs: tuple
    sum_digit_cts: tuple      # E[sigma_l]
    sum_digit_proofs: tuple

    TAG = 0x06
    KIND = L1

    @staticmethod
    def runs(m: int, L: int) -> tuple:
        return (
            (Ciphertext, m), (DhTupleProof, m), (Ciphertext, (m, L)), (BitProof, (m, L)),
            (Ciphertext, L), (BitProof, L),
        )


def _digit_randomness(group, target: int, width: int, rng) -> list[int]:
    """Scalars rho_l with sum_l 2^l rho_l = target (mod q)."""
    rho = [group.random_scalar(rng) for _ in range(width)]
    rho[0] = (target - sum(rho[l] << l for l in range(1, width))) % group.q
    return rho


def prove_l1(group, values, x, pad_keys, h_i, policy: BoundPolicy, ctx, rng) -> L1RangeProof:
    """Build the L1 + non-negativity bundle.

    Refuses with NegativeEntry on any negative element and BoundExceeded
    when the element sum exceeds 2^L - 1.
    """
    if policy.kind != L1:
        raise ValueError("policy kind must be l1")
    if any(t < 0 for t in values):
        raise NegativeEntry("l1 policy admits only non-negative entries")
    total = sum(values)
    if total > policy.effective_bound:
        raise BoundExceeded(f"element sum {total} > {policy.effective_bound}")
    digits = [bits_of(t, policy.L) for t in values]
    sum_digits = bits_of(total, policy.L)
    return _build_l1(group, values, digits, sum_digits, x, pad_keys, h_i, policy, ctx, rng)


def _build_l1(group, values, digits, sum_digits, x, pad_keys, h_i, policy, ctx, rng) -> L1RangeProof:
    # digit lists are taken as given so tests can force dishonest bundles
    L = policy.L
    reenc, links = _prove_links(group, values, x, pad_keys, h_i, ctx, rng)
    elem_cts, elem_proofs = zip(*(
        _prove_digits(
            group, digits[j], _digit_randomness(group, x[j], L, rng), h_i,
            ctx.child(b"bit", j), rng,
        )
        for j in range(len(values))
    ))
    sum_cts, sum_proofs = _prove_digits(
        group, sum_digits, _digit_randomness(group, sum(x) % group.q, L, rng), h_i,
        ctx.child(b"sumbit"), rng,
    )
    return L1RangeProof(
        policy, h_i, reenc, links, elem_cts, elem_proofs, sum_cts, sum_proofs
    )


def verify_l1(group, posted_cts, proof: L1RangeProof, policy: BoundPolicy, pad_keys, ctx):
    """Check an L1 bundle against the posted ciphertexts.

    Returns (ok, reason); reason is one of "policy", "malformed", "tuple",
    "element", "bit", "sum", "sum_bit".
    """
    if proof.policy != policy:
        return False, "policy"
    m = len(posted_cts)
    if not proof.fits(m) or len(pad_keys) != m:
        return False, "malformed"
    if not _links_ok(group, posted_cts, proof, pad_keys, ctx):
        return False, "tuple"
    if any(
        _recompose(row) != ct_star
        for row, ct_star in zip(proof.element_digit_cts, proof.reencrypted)
    ):
        return False, "element"
    if not all(
        _bits_ok(group, cts, proofs, proof.h_i, ctx.child(b"bit", j))
        for j, (cts, proofs) in enumerate(zip(proof.element_digit_cts, proof.element_digit_proofs))
    ):
        return False, "bit"
    if reduce(hom_mul, proof.reencrypted) != _recompose(proof.sum_digit_cts):
        return False, "sum"
    if not _bits_ok(group, proof.sum_digit_cts, proof.sum_digit_proofs, proof.h_i, ctx.child(b"sumbit")):
        return False, "sum_bit"
    return True, None
