"""Prime-order cyclic groups used by every other module.

Three registered instantiations share one interface:

  ``toy23``     Schnorr subgroup of Z_23* with q = 11.  Small enough to
                enumerate all 11 elements, so unit tests can brute-force
                discrete logs and exhaustively check group laws.
  ``mod41``     Schnorr subgroup with a 41-bit prime order.  Fast modular
                arithmetic with a challenge space large enough that forgery
                and wraparound artifacts vanish; the default for protocol
                simulations and benchmarks.
  ``secp256k1`` Production elliptic curve (~128-bit security).

The group law is written multiplicatively everywhere (``a * b``, ``a ** e``)
even for the curve, so higher-level code reads like the underlying algebra.
Scalars are plain ints in [0, q).  All encodings are fixed-length and
injective; decoding validates subgroup membership.

Curve points are affine at rest: ``*``, ``==``, hashing and the codec see
(x, y).  Only ``**`` works in Jacobian coordinates (X, Y, Z) ~ (X/Z^2, Y/Z^3),
with the a = 0 formulas dbl-2009-l and madd-2007-bl of Bernstein and Lange's
Explicit-Formulas Database, so an exponentiation pays one field inversion
instead of one per point addition.  A variable base uses a 4-bit fixed window
over its 15 affine multiples; the fixed generators g and gamma use a table of
64 rows x 15 multiples of 16^i (Brickell-Gordon-McCurley-Wilson), built on
their first exponentiation, and need no doublings at all.
"""

import hashlib
from itertools import count
from random import SystemRandom

from .errors import EntropyFailure, MalformedEncoding, NotInSubgroup


class Group:
    """Shared behaviour for prime-order groups.

    Concrete subclasses define group_id, q, g, identity, element_bytes and
    the element codec.  Elements are immutable and hashable.
    """

    group_id: str
    q: int

    @property
    def scalar_bytes(self) -> int:
        return (self.q.bit_length() + 7) // 8

    # -- scalar field -------------------------------------------------------

    def random_scalar(self, rng) -> int:
        """Uniform draw from [0, q) using the caller's entropy source."""
        if rng is None:
            raise EntropyFailure("no randomness source supplied")
        try:
            return rng.randrange(self.q)
        except Exception as exc:  # rng object broken or exhausted
            raise EntropyFailure(str(exc)) from exc

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

    @property
    def gamma(self):
        """Second generator, independent of g by hash-to-group construction."""
        if not hasattr(self, "_gamma"):
            self._gamma = self.hash_to_group(b"zorro.gamma.v1|" + self.group_id.encode())
        return self._gamma

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
            s = (3 * self.x * self.x + self.group.a) * pow(2 * self.y, -1, p) % p
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
        group = self.group
        e %= group.q
        if e == 0 or self.is_identity:
            return group.identity
        p = group.p
        X, Y, Z = _J_IDENTITY
        table = group._fixed_base_table(self)
        if table is not None:
            for row in table:
                digit = e & _WINDOW_MASK
                if digit:
                    X, Y, Z = _jmadd(X, Y, Z, *row[digit - 1], p)
                e >>= _WINDOW
        else:
            row = _multiples(self.x, self.y, _WINDOW_MASK, p)
            for shift in range((e.bit_length() - 1) // _WINDOW * _WINDOW, -1, -_WINDOW):
                if Z:
                    for _ in range(_WINDOW):
                        X, Y, Z = _jdouble(X, Y, Z, p)
                digit = (e >> shift) & _WINDOW_MASK
                if digit:
                    X, Y, Z = _jmadd(X, Y, Z, *row[digit - 1], p)
        zi = pow(Z, -1, p)  # Z != 0: 0 < e < q and the group has prime order
        zi2 = zi * zi % p
        return CurvePoint(group, X * zi2 % p, Y * zi2 * zi % p)

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


# -- Jacobian arithmetic for a = 0 curves, used only inside CurvePoint.__pow__ --

_WINDOW = 4
_WINDOW_MASK = (1 << _WINDOW) - 1
_J_IDENTITY = (1, 1, 0)  # any Z = 0 triple is the identity


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


def _multiples(x, y, count, p):
    """[(x, y) * j for j = 1..count] as affine pairs, with one inversion.

    count must be below the group order, so no multiple is the identity.
    """
    jac = [(x, y, 1)]
    while len(jac) < count:
        jac.append(_jmadd(*jac[-1], x, y, p))  # the first step is P + P: a doubling
    # Montgomery's trick: invert the product of all Z, then peel off each 1/Z
    prefix = []
    acc = 1
    for _, _, Z in jac:
        prefix.append(acc)
        acc = acc * Z % p
    inv = pow(acc, -1, p)
    out = [None] * count
    for j in range(count - 1, -1, -1):
        X, Y, Z = jac[j]
        zi = inv * prefix[j] % p
        inv = inv * Z % p
        zi2 = zi * zi % p
        out[j] = (X * zi2 % p, Y * zi2 * zi % p)
    return out


class CurveGroup(Group):
    """Prime-order elliptic curve group y^2 = x^3 + ax + b over F_p, cofactor 1.

    Exponentiation uses a = 0 formulas, so only a = 0 curves are accepted.
    """

    def __init__(self, group_id, p, a, b, gx, gy, q):
        if a != 0:
            raise ValueError("CurvePoint.__pow__ implements a = 0 curves only")
        self.group_id = group_id
        self.p = p
        self.a = a
        self.b = b
        self.q = q
        self.g = CurvePoint(self, gx, gy)
        self.identity = CurvePoint(self, None, None)
        self.element_bytes = 1 + (p.bit_length() + 7) // 8
        self._tables = {}  # (x, y) of g or gamma -> its fixed-base table

    def _fixed_base_table(self, pt):
        """Rows i = 0..63 of [j * 16^i * pt for j = 1..15] when pt is g or
        gamma, else None.  Built on the first exponentiation of that base."""
        key = (pt.x, pt.y)
        table = self._tables.get(key)
        if table is None:
            if key != (self.g.x, self.g.y) and key != (self.gamma.x, self.gamma.y):
                return None
            table = []
            x, y = key
            for _ in range(-(-self.q.bit_length() // _WINDOW)):
                row = _multiples(x, y, _WINDOW_MASK + 1, self.p)
                table.append(row[:-1])
                x, y = row[-1]
            self._tables[key] = table
        return table

    def contains(self, a) -> bool:
        if not isinstance(a, CurvePoint):
            return False
        if a.is_identity:
            return True
        # cofactor 1: on-curve is subgroup membership
        return (
            0 <= a.x < self.p
            and 0 <= a.y < self.p
            and (a.y * a.y - (a.x**3 + self.a * a.x + self.b)) % self.p == 0
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
        rhs = (x**3 + self.a * x + self.b) % self.p
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
    a=0,
    b=7,
    gx=0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    gy=0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
    q=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
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


def system_rng() -> SystemRandom:
    """OS-backed entropy source for non-test use."""
    return SystemRandom()
