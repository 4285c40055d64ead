"""Append-only hash-chained bulletin board.

One ledger holds one session.  The file format is line oriented and
human-inspectable: a JSON header naming the format (FORMAT), group, session
and protocol shape, then one entry per line

    <round> <party> <entry_hash> <payload_hex>

with lowercase hex throughout.  An entry's seq is its line's position and
its previous hash is the entry hash of the line above (the header's hash
for seq 0); both are hashed, not written.  Entry hashes chain over the exact
header bytes and each entry's canonical encoding, so flipping any persisted
byte breaks the chain at an identifiable seq.  The in-memory form is the
same object without a path.

Format 8 posts nothing that the header, the entry or the line above states
(see protocol and rangeproof), its header gives every policy, none
included, a bound, its bundles commit to digits and squares with Pedersen
commitments, one point each, and a round-1 post carries one proof of all
its m exponents.  Format 8 changed from format 7 only in its challenges:
every Fiat-Shamir challenge is taken mod N = min(q, 2^128), and a bit
proof posts its challenge share d0 in the byte length of N - 1, 16 bytes
on secp256k1 where format 7 posted a 32-byte scalar.  On the modular
groups N = q, so their posts are format 7's byte for byte.  There is one
reader: a file of any other format, formats 1 to 7 included, is refused as
unreadable, naming its format.
"""

import hashlib
import json
import re
from dataclasses import dataclass, replace

from .encoding import pack_u8, pack_u32, pack_u64
from .errors import ChainBroken, DuplicatePost, MalformedEncoding

FORMAT = "zorro-ledger/8"

# a party id of at most 10 digits, so that int() never meets a huge string
_LINE_RE = re.compile(r"^([12]) (0|[1-9][0-9]{0,9}) ([0-9a-f]{64}) ((?:[0-9a-f]{2})*)$")


@dataclass(frozen=True)
class LedgerHeader:
    group_id: str
    session: bytes
    n: int
    m: int
    policy_kind: str
    policy_bound: int

    def to_line(self) -> str:
        return json.dumps(
            {
                "format": FORMAT,
                "group": self.group_id,
                "session": self.session.hex(),
                "n": self.n,
                "m": self.m,
                "policy": {"kind": self.policy_kind, "bound": self.policy_bound},
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def digest(self) -> bytes:
        """SHA-256 of the header line: the previous hash of entry 0."""
        return hashlib.sha256(self.to_line().encode()).digest()

    @classmethod
    def from_line(cls, line: str) -> "LedgerHeader":
        """Parse a header line; only the exact bytes `to_line` writes are accepted."""
        obj = json.loads(line)
        if obj.get("format") != FORMAT:
            raise MalformedEncoding(f"unsupported ledger format {obj.get('format')!r}, not {FORMAT}")
        n, m, bound = obj["n"], obj["m"], obj["policy"]["bound"]
        if any(type(v) is not int for v in (n, m, bound)):  # int() of 1e400 would overflow
            raise MalformedEncoding("n, m and the policy bound must be JSON integers")
        if any(type(v) is not str for v in (obj["group"], obj["session"], obj["policy"]["kind"])):
            raise MalformedEncoding("group, session and the policy kind must be JSON strings")
        header = cls(
            group_id=obj["group"],
            session=bytes.fromhex(obj["session"]),
            n=n,
            m=m,
            policy_kind=obj["policy"]["kind"],
            policy_bound=bound,
        )
        if header.to_line() != line:
            raise MalformedEncoding("header is not in canonical form")
        return header


@dataclass(frozen=True)
class LedgerEntry:
    seq: int
    session: bytes
    round: int
    party: int
    payload: bytes
    entry_hash: bytes

    def hash_after(self, prev_hash: bytes) -> bytes:
        """The entry hash of this entry below one whose hash is prev_hash:
        SHA-256 of prev_hash and the canonical seq, session, round, party,
        payload length and payload."""
        return hashlib.sha256(
            prev_hash + pack_u64(self.seq) + self.session + pack_u8(self.round)
            + pack_u32(self.party) + pack_u32(len(self.payload)) + self.payload
        ).digest()

    def to_line(self) -> str:
        return f"{self.round} {self.party} {self.entry_hash.hex()} {self.payload.hex()}"


class Ledger:
    """Total-ordered post log; optionally mirrored to a file on every append."""

    def __init__(self, header: LedgerHeader, path=None):
        self.header = header
        self.path = path
        self.entries = []
        self._slots = set()
        if path is not None:
            with open(path, "w") as fh:
                fh.write(header.to_line() + "\n")

    def append(self, round: int, party: int, payload: bytes) -> int:
        """Add one post; a party may post once per round."""
        if round not in (1, 2):
            raise ValueError("round must be 1 or 2")
        if (round, party) in self._slots:
            raise DuplicatePost(f"party {party} already posted in round {round}")
        seq = len(self.entries)
        prev = self.entries[-1].entry_hash if self.entries else self.header.digest()
        entry = LedgerEntry(seq, self.header.session, round, party, bytes(payload), b"")
        entry = replace(entry, entry_hash=entry.hash_after(prev))
        self.entries.append(entry)
        self._slots.add((round, party))
        if self.path is not None:
            with open(self.path, "a") as fh:
                fh.write(entry.to_line() + "\n")
        return seq

    def read_round(self, round: int) -> list:
        """Entries of one round in seq order."""
        return [e for e in self.entries if e.round == round]

    def verify_chain(self) -> bool:
        """True when every entry hash checks; raises ChainBroken otherwise."""
        prev = self.header.digest()
        for entry in self.entries:
            if entry.entry_hash != entry.hash_after(prev):
                raise ChainBroken(entry.seq, "entry hash mismatch")
            prev = entry.entry_hash
        return True

    @classmethod
    def load(cls, path) -> "Ledger":
        """Parse a persisted ledger; structural damage reports the bad seq."""
        with open(path, "rb") as fh:
            raw = fh.read()
        lines = raw.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        if not lines:
            raise ChainBroken(0, "empty file")
        try:
            header = LedgerHeader.from_line(lines[0].decode())
        except (
            UnicodeDecodeError, ValueError, KeyError, TypeError, AttributeError, RecursionError,
            MalformedEncoding,
        ) as exc:
            raise ChainBroken(0, f"unreadable header: {exc}") from exc
        ledger = cls(header)  # from_line guarantees header.to_line() == lines[0]
        for seq, line in enumerate(lines[1:]):
            try:
                match = _LINE_RE.match(line.decode())
            except UnicodeDecodeError as exc:
                raise ChainBroken(seq, "undecodable entry line") from exc
            if match is None or int(match[2]) > 0xFFFFFFFF:  # the party id is hashed as a u32
                raise ChainBroken(seq, "malformed entry line")
            entry = LedgerEntry(
                seq, header.session, int(match[1]), int(match[2]),
                bytes.fromhex(match[4]), bytes.fromhex(match[3]),
            )
            ledger.entries.append(entry)
            ledger._slots.add((entry.round, entry.party))
        return ledger
