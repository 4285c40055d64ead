"""Fixed-width integer packing, a bounds-checked byte reader and the wire codec.

Every object that ever gets hashed or persisted round-trips through these
helpers, so all widths are fixed and all reads are strict.

The wire codec states each byte layout once.  A Record is a frozen
dataclass whose layout is its field list, in declaration order, with no tag
and no length prefix; it writes and reads each field by its declared kind.
A field typed ``object`` is one group element, a field typed ``int`` one
scalar, a field typed ``Share`` one challenge share, and any other type a
nested Record.  A type whose counts vary (a bundle, a post) takes them from
the ledger header and its entry, encodes through put() and reads each run
of equal items with read_many().
"""

import dataclasses
import struct

from .errors import MalformedEncoding


def pack_u8(v: int) -> bytes:
    return struct.pack(">B", v)


def pack_u32(v: int) -> bytes:
    return struct.pack(">I", v)


def pack_u64(v: int) -> bytes:
    return struct.pack(">Q", v)


class Reader:
    """Sequential reader that turns any overrun or leftover into MalformedEncoding."""

    def __init__(self, data: bytes):
        self._data = bytes(data)
        self._off = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self._off + n > len(self._data):
            raise MalformedEncoding("truncated input")
        chunk = self._data[self._off : self._off + n]
        self._off += n
        return chunk

    def expect_end(self):
        if self._off != len(self._data):
            raise MalformedEncoding("trailing bytes")


def put(group, *values) -> bytes:
    """Encode values back to back: bytes verbatim, tuples item by item,
    records by their layout, anything else as an element."""
    out = []
    for v in values:
        if isinstance(v, bytes):
            out.append(v)
        elif isinstance(v, tuple):
            out.append(put(group, *v))
        elif isinstance(v, Record):
            out.append(v.to_bytes(group))
        else:
            out.append(group.encode_element(v))
    return b"".join(out)


class Share:
    """The kind of a Fiat-Shamir challenge share: an int in the group's
    challenge space [0, N) (Group.challenge_space), written big-endian in
    the byte length of N - 1: 16 bytes on secp256k1, a scalar's width on the
    modular groups, where N = q."""

    @staticmethod
    def width(group) -> int:
        return ((group.challenge_space - 1).bit_length() + 7) // 8


def write_one(group, kind, value, name: str) -> bytes:
    """Encode `value`, the field `name`, as one item of `kind` (see read_one)."""
    if kind is object:
        return group.encode_element(value)
    if kind is int:
        return group.encode_scalar(value)
    if kind is Share:
        N = group.challenge_space
        if not 0 <= value < N:
            raise ValueError(f"{name} = {value} is not a challenge share in [0, {N})")
        return value.to_bytes(Share.width(group), "big")
    return value.to_bytes(group)


def read_one(group, reader: Reader, kind):
    """Read one item of `kind`: object (element), int (scalar), Share
    (challenge share) or a Record class."""
    if kind is object:
        return group.decode_element(reader.take(group.element_bytes))
    if kind is int:
        return group.decode_scalar(reader.take(group.scalar_bytes))
    if kind is Share:
        v = int.from_bytes(reader.take(Share.width(group)), "big")
        if v >= group.challenge_space:
            raise MalformedEncoding("challenge share out of range")
        return v
    return kind.read_from(group, reader)


def read_many(group, reader: Reader, count: int, kind) -> tuple:
    """Read `count` consecutive items of `kind` (see read_one)."""
    return tuple(read_one(group, reader, kind) for _ in range(count))


class Record:
    """Base of the fixed-layout wire types; subclasses are frozen dataclasses."""

    def to_bytes(self, group) -> bytes:
        return b"".join(
            write_one(group, f.type, getattr(self, f.name), f"{type(self).__name__}.{f.name}")
            for f in dataclasses.fields(self)
        )

    @classmethod
    def read_from(cls, group, reader: Reader):
        return cls(*(read_one(group, reader, f.type) for f in dataclasses.fields(cls)))
