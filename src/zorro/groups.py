"""Prime-order cyclic groups used by every other module.

Three registered instantiations share one interface:

  ``toy23``     Schnorr subgroup of Z_23* with q = 11.  Small enough to
                enumerate all 11 elements, so unit tests can brute-force
                discrete logs and exhaustively check group laws.
  ``mod41``     Schnorr subgroup with a 41-bit prime order.  Fast modular
                arithmetic with a challenge space large enough that forgery
                and wraparound artifacts vanish; the default for protocol
                simulations and benchmarks.
  ``secp256k1`` Production elliptic curve y^2 = x^3 + 7 (~128-bit security).

The group law is written multiplicatively everywhere (``a * b``, ``a ** e``)
even for the curve, so higher-level code reads like the underlying algebra.
Scalars are plain ints in [0, q).  Fiat-Shamir challenges and the challenge
shares a bit proof posts are ints in the challenge space [0, N),
N = min(q, 2^SECURITY_BITS): Z_q itself on the modular groups, 2^128 on
secp256k1.  All encodings are fixed-length and injective; decoding
validates subgroup membership.

Every group has one exponentiation engine, ``group.multi_exp(pairs)``, the
product of base ** e over (base, e) pairs; ``a ** e`` is the one-term case.
A prover's batch of Pedersen commitments g^u * gamma^v has one more entry
point, ``group.lift(pairs)``: one multi_exp per (u, v) pair on the modular
groups, and on the curve one lockstep walk of the g and gamma tables.
Every group skips the terms whose exponent is 0 mod q, so a sigma prover
evaluates its verification equations at challenge 0 for free.  The modular
groups multiply builtin ``pow`` results, and take a term at exponent 1 as
its base.

Curve points are affine at rest: ``*``, ``==``, hashing and the codec see
(x, y).  Only ``multi_exp`` works in Jacobian coordinates (X, Y, Z) ~
(X/Z^2, Y/Z^3), with the a = 0 formulas dbl-2009-l and madd-2007-bl of
Bernstein and Lange's Explicit-Formulas Database:

  * Affine points are added in batches: one inversion (Montgomery's
    simultaneous inversion) serves every pair of a batch, so an addition
    costs ~6 field multiplications.  Each fixed-base table comes from one
    ladder of such batches: each step doubles a row of multiples P, ..., kP to
    P, ..., 2kP by adding kP to every entry.
  * GLV (Gallant-Lambert-Vanstone): secp256k1 has the endomorphism
    (x, y) -> (beta * x, y) = lam * P, so each variable-base scalar splits
    into two ~128-bit halves k1 + k2 * lam = e (mod q), and lam * P is P
    with x scaled by beta.  A scalar within 2^128 of 0 or q (a fold weight,
    or its negative) is one half already.
  * Variable bases, one or a fold's hundreds (Pippenger): each half's
    signed radix-2^c digits, c the width that minimises the cost model
    (halves + 2^c) * ceil(bits / c), drop its point into one of 2^(c-1)
    buckets per window.  The buckets are summed in batches, level by level
    across the buckets of several windows, and each window's
    sum_i i * bucket_i comes from two running sums taken in lockstep across
    the windows, one batch per level and per step.  No tables are built, and
    ~128 doublings combine the windows.
  * Powers of the two fixed generators, g and gamma, are summed per base and
    added after the loop through a table per base of 17 rows x 128
    multiples d * 256^i * P (Brickell-Gordon-McCurley-Wilson), built by the
    ladder on that base's first exponentiation, so they need no doublings.
    Each sum is split by GLV, each half recoded as signed radix-256 digits
    |d| <= 128, and the lam half reads the same rows with x scaled by beta:
    ~34 mixed additions per g ** k, and ~68 for a Pedersen commitment
    g^u * gamma^v.  Each group hashes gamma when it is built, but builds
    neither table before that base's first exponentiation.  A call with no
    other base skips the loop.
  * One final inversion returns an affine point.
  * lift(pairs) reads the same table entries for every g^u * gamma^v of a
    batch, and sums each pair's entries pairwise in affine coordinates, one
    level at a time across the whole batch (Montgomery's trick again), so
    ~7 inversions serve the batch and no Jacobian addition is made.

The digit patterns follow the scalars, so like the rest of the arithmetic
this is not constant-time.
"""

import hashlib
from itertools import count

from .errors import EntropyFailure, MalformedEncoding, NotInSubgroup


# the security level: the bit length of the challenge space on a large
# group, and of every fold weight (sigma.fold_weights)
SECURITY_BITS = 128


def _draw(rng, bound: int) -> int:
    """Uniform draw from [0, bound) using the caller's entropy source."""
    if rng is None:
        raise EntropyFailure("no randomness source supplied")
    try:
        return rng.randrange(bound)
    except Exception as exc:  # rng object broken or exhausted
        raise EntropyFailure(str(exc)) from exc


class Group:
    """Shared behaviour for prime-order groups.

    Concrete subclasses define group_id, q, g, gamma, identity,
    element_bytes, the element codec, multi_exp(pairs), the product of
    base ** e over (base, e) pairs, and lift(pairs), the Pedersen commitment
    g^u * gamma^v of each (u, v) pair.  gamma, the second generator, is
    hashed to the group when it is built (hash_to_group), so nobody knows
    its log to base g.  Elements are immutable and hashable.
    """

    group_id: str
    q: int

    @property
    def scalar_bytes(self) -> int:
        return (self.q.bit_length() + 7) // 8

    @property
    def challenge_space(self) -> int:
        """N = min(q, 2^SECURITY_BITS): every Fiat-Shamir challenge, and every
        share of one, is in [0, N).  N = q on the modular groups, and 2^128
        on secp256k1."""
        return min(self.q, 1 << SECURITY_BITS)

    # -- scalar field -------------------------------------------------------

    def random_scalar(self, rng) -> int:
        """Uniform draw from [0, q) using the caller's entropy source."""
        return _draw(rng, self.q)

    def random_share(self, rng) -> int:
        """Uniform draw from the challenge space [0, N), as random_scalar."""
        return _draw(rng, self.challenge_space)

    # -- codecs -------------------------------------------------------------

    def encode_scalar(self, s: int) -> bytes:
        return (s % self.q).to_bytes(self.scalar_bytes, "big")

    def decode_scalar(self, data: bytes) -> int:
        if len(data) != self.scalar_bytes:
            raise MalformedEncoding(
                f"scalar must be {self.scalar_bytes} bytes, got {len(data)}"
            )
        v = int.from_bytes(data, "big")
        if v >= self.q:
            raise MalformedEncoding("scalar out of range")
        return v

    # -- derived generators -------------------------------------------------

    def hash_to_group(self, tag: bytes):
        """Map a domain string to a group element of unknown discrete log."""
        for ctr in count():
            digest = hashlib.sha256(tag + ctr.to_bytes(4, "big")).digest()
            candidate = self._element_from_digest(digest)
            if candidate is not None:
                return candidate

    def __repr__(self):
        return f"<Group {self.group_id}>"


class ModElement:
    """Element of a prime-order subgroup of Z_p*."""

    __slots__ = ("group", "value")

    def __init__(self, group, value: int):
        self.group = group
        self.value = value

    def __mul__(self, other):
        return ModElement(self.group, self.value * other.value % self.group.p)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e: int):
        return ModElement(self.group, pow(self.value, e % self.group.q, self.group.p))

    def inverse(self):
        return ModElement(self.group, pow(self.value, -1, self.group.p))

    def __eq__(self, other):
        return (
            isinstance(other, ModElement)
            and self.group.group_id == other.group.group_id
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.group.group_id, self.value))

    def __repr__(self):
        return f"ModElement({self.value})"


class ModGroup(Group):
    """Schnorr-style group: the order-q subgroup of Z_p* for prime p = kq+1."""

    def __init__(self, group_id: str, p: int, q: int, g: int):
        self.group_id = group_id
        self.p = p
        self.q = q
        self.g = ModElement(self, g)
        self.identity = ModElement(self, 1)
        self.element_bytes = (p.bit_length() + 7) // 8
        self.gamma = self.hash_to_group(b"zorro.gamma.v1|" + group_id.encode())

    def multi_exp(self, pairs):
        """The product of base ** e over (base, e) pairs: one ** per term with
        e != 0, 1 mod q (a term at 1 is its base) and one * per term with
        e != 0 after the first, through the element operators."""
        q, result = self.q, None
        for base, e in pairs:
            e %= q
            if e:
                term = base if e == 1 else base ** e
                result = term if result is None else result * term
        return self.identity if result is None else result

    def lift(self, pairs) -> list:
        """[g^u * gamma^v for (u, v) in pairs]: one multi_exp each."""
        return [self.multi_exp(((self.g, u), (self.gamma, v))) for u, v in pairs]

    def contains(self, a) -> bool:
        return (
            isinstance(a, ModElement)
            and 0 < a.value < self.p
            and pow(a.value, self.q, self.p) == 1
        )

    def encode_element(self, a) -> bytes:
        return a.value.to_bytes(self.element_bytes, "big")

    def decode_element(self, data: bytes):
        if len(data) != self.element_bytes:
            raise MalformedEncoding(
                f"element must be {self.element_bytes} bytes, got {len(data)}"
            )
        v = int.from_bytes(data, "big")
        a = ModElement(self, v)
        if not self.contains(a):
            raise NotInSubgroup(f"{v} is not in the order-{self.q} subgroup")
        return a

    def _element_from_digest(self, digest: bytes):
        t = int.from_bytes(digest, "big") % self.p
        if t == 0:
            return None
        cand = pow(t, (self.p - 1) // self.q, self.p)
        if cand == 1:
            return None
        return ModElement(self, cand)


class CurvePoint:
    """Affine point on a short-Weierstrass curve; x is None for the identity.

    The group law is still spelled ``*`` / ``**`` so code generic over the
    group reads identically for both instantiations.
    """

    __slots__ = ("group", "x", "y")

    def __init__(self, group, x, y):
        self.group = group
        self.x = x
        self.y = y

    @property
    def is_identity(self):
        return self.x is None

    def __mul__(self, other):
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        p = self.group.p
        if self.x == other.x:
            if (self.y + other.y) % p == 0:
                return CurvePoint(self.group, None, None)
            s = 3 * self.x * self.x * pow(2 * self.y, -1, p) % p
        else:
            s = (other.y - self.y) * pow(other.x - self.x, -1, p) % p
        x3 = (s * s - self.x - other.x) % p
        y3 = (s * (self.x - x3) - self.y) % p
        return CurvePoint(self.group, x3, y3)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        if self.is_identity:
            return self
        return CurvePoint(self.group, self.x, (-self.y) % self.group.p)

    def __pow__(self, e: int):
        return self.group.multi_exp(((self, e),))

    def __eq__(self, other):
        return (
            isinstance(other, CurvePoint)
            and self.group.group_id == other.group.group_id
            and self.x == other.x
            and self.y == other.y
        )

    def __hash__(self):
        return hash((self.group.group_id, self.x, self.y))

    def __repr__(self):
        if self.is_identity:
            return "CurvePoint(identity)"
        return f"CurvePoint({hex(self.x)}, {hex(self.y)})"


# -- Jacobian arithmetic for y^2 = x^3 + b, used only inside CurveGroup.multi_exp --

_G_ROWS = 17  # a fixed-base table: 8-bit signed digits of a GLV half below 2^129, and a carry
_J_IDENTITY = (1, 1, 0)  # any Z = 0 triple is the identity
_BUCKET_BATCH = 2048  # about how many bucket points _buckets sums at once, in whole windows


def _jdouble(X, Y, Z, p):
    """dbl-2009-l: 2(X, Y, Z).  Z = 0 stays 0, so the identity doubles to itself."""
    A = X * X % p
    B = Y * Y % p
    C = B * B % p
    t = X + B
    D = 2 * (t * t - A - C) % p
    E = 3 * A
    X3 = (E * E - 2 * D) % p
    return X3, (E * (D - X3) - 8 * C) % p, 2 * Y * Z % p


def _jmadd(X1, Y1, Z1, x2, y2, p):
    """madd-2007-bl: (X1, Y1, Z1) + affine (x2, y2), for every pair of inputs."""
    if Z1 == 0:
        return x2, y2, 1
    Z1Z1 = Z1 * Z1 % p
    H = (x2 * Z1Z1 - X1) % p
    r = 2 * (y2 * Z1 * Z1Z1 - Y1) % p
    if H == 0:
        # same x: the points are equal (r = 0) or inverse
        return _jdouble(x2, y2, 1, p) if r == 0 else _J_IDENTITY
    HH = H * H % p
    I = 4 * HH
    J = H * I % p
    V = X1 * I % p
    X3 = (r * r - J - 2 * V) % p
    t = Z1 + H
    return X3, (r * (V - X3) - 2 * Y1 * J) % p, (t * t - Z1Z1 - HH) % p


def _affine_sums(left, right, p):
    """[P + Q for P, Q in zip(left, right)] of affine points, None the identity,
    with one inversion.

    Montgomery's trick: invert the product of every slope denominator, then
    peel off each one from the last.  A pair with equal x is P + P, with the
    tangent slope, or P + (-P) = None; no point has y = 0 on a curve of odd
    order.  The fixed-base tables come from here, through _affine_multiples,
    and so do the bucket sums.
    """
    prefix = []
    acc = 1
    for P, Q in zip(left, right):
        if P and Q:
            prefix.append(acc)
            acc = acc * (Q[0] - P[0] or 2 * P[1]) % p
    inv = pow(acc, -1, p)
    out = []
    for P, Q in zip(reversed(left), reversed(right)):
        if not (P and Q):
            out.append(P or Q)
            continue
        (x1, y1), (x2, y2) = P, Q
        den = x2 - x1 or 2 * y1
        s = inv * prefix.pop() % p  # 1 / den
        inv = inv * den % p
        if x1 != x2:
            s = (y2 - y1) * s % p
        elif y1 == y2:
            s = 3 * x1 * x1 * s % p
        else:
            out.append(None)
            continue
        x3 = (s * s - x1 - x2) % p
        out.append((x3, (s * (x1 - x3) - y1) % p))
    out.reverse()
    return out


def _affine_multiples(P, count, p):
    """[P, 2P, ..., count * P], affine, count a power of two.

    Each step adds the row's last entry to each of its entries, which
    doubles the row: one _affine_sums, so one inversion, per step.
    """
    row = [P]
    while len(row) < count:
        row += _affine_sums(row, [row[-1]] * len(row), p)
    return row


def _sum_pairwise(lists, p):
    """Replace each list of affine points by its sum: [] for the identity,
    else [sum].  The points of every list are added pairwise, one level at a
    time across all the lists, and each level is one _affine_sums, so one
    inversion; a pair that cancels drops out."""
    level = [points for points in lists if len(points) > 1]
    while level:
        sums = _affine_sums(
            [P for points in level for P in points[:-1:2]],
            [Q for points in level for Q in points[1::2]],
            p,
        )
        j = 0
        for points in level:
            pairs = len(points) >> 1
            points[:] = [s for s in sums[j:j + pairs] if s] + points[2 * pairs:]
            j += pairs
        level = [points for points in level if len(points) > 1]


def _bucket_width(points, bits):
    """The window width c, from 2 to 16, that minimises the cost model
    (points + 2^c) * ceil(bits / c): each window takes one addition per
    point and about two per bucket.  2 for one base, 4 for 27 points, 6
    for the ~280 of a vote ledger fold."""
    return min(range(2, 17), key=lambda c: (points + (1 << c)) * -(-bits // c))


def _signed_digits(k, c):
    """Radix-2^c digits of k >= 0 in (-2^(c-1), 2^(c-1)], least significant first.

    sum(d_i * 2^(c*i)) == k.
    """
    half, mask = 1 << (c - 1), (1 << c) - 1
    digits = []
    while k:
        d = k & mask
        if d > half:
            d -= mask + 1
        digits.append(d)
        k = (k - d) >> c
    return digits


class CurveGroup(Group):
    """Prime-order elliptic curve group y^2 = x^3 + b over F_p, cofactor 1.

    beta and lam define the GLV endomorphism (x, y) -> (beta * x, y) = lam * P,
    and (a1, b1), (a2, b2 = a1) is a short basis of the lattice of (k1, k2)
    with k1 + k2 * lam = 0 (mod q).
    """

    def __init__(self, group_id, p, b, gx, gy, q, beta, lam, a1, b1, a2):
        self.group_id = group_id
        self.p = p
        self.b = b
        self.q = q
        self.beta, self.lam = beta, lam
        self._basis = (a1, b1, a2)
        self.g = CurvePoint(self, gx, gy)
        self.identity = CurvePoint(self, None, None)
        self.element_bytes = 1 + (p.bit_length() + 7) // 8
        self.gamma = self.hash_to_group(b"zorro.gamma.v1|" + group_id.encode())
        # (x, y) of g and of gamma -> its table, None until its first exponentiation
        self._tables = {(P.x, P.y): None for P in (self.g, self.gamma)}

    def _fixed_base_table(self, pt):
        """Rows i = 0..16 of affine [d * 256^i * pt for d = 1..128] when pt is
        g or gamma, else None: 2,176 points, built on the first
        exponentiation of pt.  Each row is _affine_multiples of 256^i * pt,
        and one more doubling of its last entry starts the next row: 8
        inversions per row."""
        key = (pt.x, pt.y)
        if key not in self._tables:
            return None
        if self._tables[key] is None:
            table, P = [], key
            for _ in range(_G_ROWS):
                row = _affine_multiples(P, 128, self.p)
                table.append(row)
                (P,) = _affine_sums([row[-1]], [row[-1]], self.p)  # 256 * 256^i * pt
            self._tables[key] = table
        return self._tables[key]

    def _glv_split(self, k):
        """(k1, k2) with k1 + k2 * lam = k (mod q) and |k1|, |k2| about sqrt(q).

        Rounds k against the short lattice basis (Gallant-Lambert-Vanstone);
        0 <= k < q.  A k within 2^128 of 0 or of q, such as a fold weight or
        its negative, is already that short: it is (k or k - q, 0).
        """
        a1, b1, a2 = self._basis
        q, half = self.q, self.q >> 1
        if k >> 128 == 0:
            return k, 0
        if (q - k) >> 128 == 0:
            return k - q, 0
        c1 = (a1 * k + half) // q  # round(b2 * k / q), b2 = a1
        c2 = (-b1 * k + half) // q
        return k - c1 * a1 - c2 * a2, -(c1 * b1 + c2 * a1)

    def multi_exp(self, pairs):
        """The product of base ** e over (base, e) pairs.

        Each variable base P is split by GLV into two ~128-bit powers of P
        and lam * P, and _buckets sums them, however few.  Powers of g and
        of gamma are summed per base and added afterwards through that
        base's table (_table_entries), with no doublings, ~34 mixed
        additions a base.  One final inversion returns an affine point.
        """
        p, q = self.p, self.q
        fixed = {}  # g or gamma -> its summed exponent
        bases, scalars = [], []
        for base, e in pairs:
            e %= q
            if not e or base.is_identity:
                continue
            if self._fixed_base_table(base) is not None:
                fixed[base] = fixed.get(base, 0) + e
            else:
                bases.append(base)
                scalars.append(self._glv_split(e))
        X, Y, Z = self._buckets(bases, scalars) if bases else _J_IDENTITY
        for base, e in fixed.items():
            for x, y in self._table_entries(base, e):
                X, Y, Z = _jmadd(X, Y, Z, x, y, p)
        if Z == 0:
            return self.identity
        zi = pow(Z, -1, p)
        zi2 = zi * zi % p
        return CurvePoint(self, X * zi2 % p, Y * zi2 * zi % p)

    def _table_entries(self, base, e) -> list:
        """The affine entries of base's table (g or gamma) that sum to
        base ** e: e mod q is split by GLV, and each half's signed radix-256
        digits d select row entries |d| * 256^i * base, x scaled by beta for
        the lam half and y negated for a negative digit or half.  ~34
        entries; none at e = 0 mod q, which builds no table."""
        p, entries = self.p, []
        e %= self.q
        if not e:
            return entries
        table = self._fixed_base_table(base)
        for k, beta in zip(self._glv_split(e), (1, self.beta)):
            for row, d in zip(table, _signed_digits(abs(k), 8)):
                if d:
                    x, y = row[abs(d) - 1]
                    entries.append((beta * x % p, y if (d > 0) == (k > 0) else p - y))
        return entries

    def lift(self, pairs) -> list:
        """[g^u * gamma^v for (u, v) in pairs], in lockstep: each pair's
        table entries (_table_entries of g at u and of gamma at v, ~68)
        are summed pairwise in affine coordinates, one level at a time
        across every pair (_sum_pairwise), so the whole batch shares one
        inversion per level, ~7 in all, and an addition costs ~6 field
        multiplications against a mixed Jacobian addition's 11."""
        sums = [
            self._table_entries(self.g, u) + self._table_entries(self.gamma, v)
            for u, v in pairs
        ]
        _sum_pairwise(sums, self.p)
        return [CurvePoint(self, *s[0]) if s else self.identity for s in sums]

    def _buckets(self, bases, scalars):
        """The sum of k1 * P + k2 * (lam * P) over the bases P and their GLV
        halves (k1, k2), in Jacobian coordinates, by bucket accumulation
        (Pippenger) with affine bucket sums.

        Every nonzero half k of P (or lam * P) becomes the affine point
        sign(k) * P and the radix-2^c signed digits of |k|, c from
        _bucket_width: one base's two halves take 2-bit windows, a round-1
        fold's 27 halves 4-bit windows, and a vote ledger fold 6-bit.  A
        digit d of window w drops the point, negated for d < 0, into bucket
        |d| of window w.  The points of each bucket are summed pairwise, one
        level at a time across every bucket of a batch of whole windows
        (_sum_pairwise over about _BUCKET_BATCH points, which bounds the
        intermediate sums held at once).  The windows' sum_i i * bucket_i
        come from two running sums, a bucket at a time in every window
        together.  Each level and each step is one _affine_sums, so one
        inversion.  The window sums are then combined from the top, c
        Jacobian doublings apart.  No tables are built.
        """
        p = self.p
        points, magnitudes = [], []
        for base, halves in zip(bases, scalars):
            for x, k in zip((base.x, self.beta * base.x % p), halves):
                if k:
                    points.append((x, base.y if k > 0 else p - base.y))
                    magnitudes.append(abs(k))
        c = _bucket_width(len(points), max(magnitudes).bit_length())
        half = 1 << (c - 1)
        digits = [_signed_digits(k, c) for k in magnitudes]
        windows = max(map(len, digits), default=0)
        buckets = [[] for _ in range(windows * half)]  # digit d of window w: w * half + |d| - 1
        for point, row in zip(points, digits):
            negated = (point[0], p - point[1])
            for w, d in enumerate(row):
                if d:
                    buckets[w * half + abs(d) - 1].append(point if d > 0 else negated)
        batch = max(1, _BUCKET_BATCH // len(points)) * half  # whole windows
        for first in range(0, len(buckets), batch):
            _sum_pairwise(buckets[first:first + batch], p)
        running = totals = [None] * windows
        for i in range(half - 1, -1, -1):
            running = _affine_sums(running, [b[0] if b else None for b in buckets[i::half]], p)
            totals = _affine_sums(totals, running, p)
        X, Y, Z = _J_IDENTITY
        for total in reversed(totals):
            if Z:
                for _ in range(c):
                    X, Y, Z = _jdouble(X, Y, Z, p)
            if total:
                X, Y, Z = _jmadd(X, Y, Z, *total, p)
        return X, Y, Z

    def contains(self, a) -> bool:
        if not isinstance(a, CurvePoint):
            return False
        if a.is_identity:
            return True
        # cofactor 1: on-curve is subgroup membership
        return (
            0 <= a.x < self.p
            and 0 <= a.y < self.p
            and (a.y * a.y - (a.x**3 + self.b)) % self.p == 0
        )

    def encode_element(self, pt) -> bytes:
        n = self.element_bytes - 1
        if pt.is_identity:
            return b"\x00" * (n + 1)
        prefix = b"\x03" if pt.y & 1 else b"\x02"
        return prefix + pt.x.to_bytes(n, "big")

    def decode_element(self, data: bytes):
        if len(data) != self.element_bytes:
            raise MalformedEncoding(
                f"element must be {self.element_bytes} bytes, got {len(data)}"
            )
        if data[0] == 0:
            if any(data[1:]):
                raise MalformedEncoding("identity encoding must be all zero")
            return self.identity
        if data[0] not in (2, 3):
            raise MalformedEncoding(f"bad point prefix {data[0]:#x}")
        x = int.from_bytes(data[1:], "big")
        if x >= self.p:
            raise MalformedEncoding("x coordinate out of range")
        y = self._solve_y(x)
        if y is None:
            raise NotInSubgroup("x is not on the curve")
        if (y & 1) != (data[0] == 3):
            y = self.p - y
        return CurvePoint(self, x, y)

    def _solve_y(self, x):
        rhs = (x**3 + self.b) % self.p
        # p = 3 mod 4 so a square root, when it exists, is rhs^((p+1)/4)
        y = pow(rhs, (self.p + 1) // 4, self.p)
        if y * y % self.p != rhs:
            return None
        return y

    def _element_from_digest(self, digest: bytes):
        x = int.from_bytes(digest, "big") % self.p
        y = self._solve_y(x)
        if y is None:
            return None
        if y & 1:
            y = self.p - y
        return CurvePoint(self, x, y)


# -- registered instantiations ----------------------------------------------

_SECP256K1 = dict(
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F,
    b=7,
    gx=0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    gy=0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
    q=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
    # GLV: beta^3 = 1 (mod p), lam^3 = 1 (mod q), (beta * x, y) = lam * (x, y)
    beta=0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE,
    lam=0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72,
    a1=0x3086D221A7D46BCDE86C90E49284EB15,
    b1=-0xE4437ED6010E88286F547FA90ABFE4C3,
    a2=0x114CA50F7A8E2F3F657C1108D9D44CFD8,
)

# q = 2^40 + 15 (prime), p = 6q + 1 (prime), g = 2^6 has order q
_MOD41 = dict(p=6597069766747, q=1099511627791, g=64)

_REGISTRY = {}


def _register(group):
    _REGISTRY[group.group_id] = group
    return group


def toy_group() -> ModGroup:
    """The 11-element group (p=23, q=11, g=2) for exhaustive unit tests."""
    return _REGISTRY["toy23"]


def test_group() -> ModGroup:
    """41-bit-order Schnorr group: fast, with negligible forgery probability."""
    return _REGISTRY["mod41"]


def prod_group() -> CurveGroup:
    """secp256k1, the production-size instantiation."""
    return _REGISTRY["secp256k1"]


def get_group(group_id: str) -> Group:
    if group_id not in _REGISTRY:
        raise KeyError(f"unknown group_id {group_id!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[group_id]


_register(ModGroup("toy23", p=23, q=11, g=2))
_register(ModGroup("mod41", **_MOD41))
_register(CurveGroup("secp256k1", **_SECP256K1))
