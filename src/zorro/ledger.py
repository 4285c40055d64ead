"""Append-only hash-chained bulletin board.

One ledger holds one session.  The file format is line oriented and
human-inspectable: a JSON header naming group, session and protocol shape,
then one entry per line

    <seq> <round> <party> <prev_hash> <entry_hash> <payload_hex>

with lowercase hex throughout.  Entry hashes chain over the exact header
bytes and each entry's canonical encoding, so flipping any persisted byte
breaks the chain at an identifiable seq.  The in-memory form is the same
object without a path.
"""

import hashlib
import json
import re
import threading
from dataclasses import dataclass

from .encoding import pack_u8, pack_u32, pack_u64
from .errors import ChainBroken, DuplicatePost, MalformedEncoding

_LINE_RE = re.compile(
    r"^(0|[1-9][0-9]*) ([12]) (0|[1-9][0-9]*) ([0-9a-f]{64}) ([0-9a-f]{64}) ((?:[0-9a-f]{2})*)$"
)


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
                "format": "zorro-ledger/1",
                "group": self.group_id,
                "session": self.session.hex(),
                "n": self.n,
                "m": self.m,
                "policy": {"kind": self.policy_kind, "bound": self.policy_bound},
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_line(cls, line: str) -> "LedgerHeader":
        """Parse a header line; only the exact bytes `to_line` writes are accepted."""
        obj = json.loads(line)
        if obj.get("format") != "zorro-ledger/1":
            raise MalformedEncoding("not a zorro ledger file")
        header = cls(
            group_id=obj["group"],
            session=bytes.fromhex(obj["session"]),
            n=int(obj["n"]),
            m=int(obj["m"]),
            policy_kind=obj["policy"]["kind"],
            policy_bound=int(obj["policy"]["bound"]),
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
    prev_hash: bytes
    entry_hash: bytes

    def canonical_bytes(self) -> bytes:
        return _canonical(self.seq, self.session, self.round, self.party, self.payload)

    def to_line(self) -> str:
        return (
            f"{self.seq} {self.round} {self.party} "
            f"{self.prev_hash.hex()} {self.entry_hash.hex()} {self.payload.hex()}"
        )


def _canonical(seq: int, session: bytes, round: int, party: int, payload: bytes) -> bytes:
    return (
        pack_u64(seq) + session + pack_u8(round) + pack_u32(party)
        + pack_u32(len(payload)) + payload
    )


def _entry_hash(prev_hash: bytes, canonical: bytes) -> bytes:
    return hashlib.sha256(prev_hash + canonical).digest()


class Ledger:
    """Total-ordered post log; optionally mirrored to a file on every append."""

    def __init__(self, header: LedgerHeader, path=None):
        self.header = header
        self.path = path
        self.entries = []
        self._slots = set()
        self._lock = threading.Lock()
        self._header_line = header.to_line()
        if path is not None:
            with open(path, "w") as fh:
                fh.write(self._header_line + "\n")

    @property
    def _tip(self) -> bytes:
        if self.entries:
            return self.entries[-1].entry_hash
        return hashlib.sha256(self._header_line.encode()).digest()

    def append(self, round: int, party: int, payload: bytes) -> int:
        """Add one post; a party may post once per round."""
        if round not in (1, 2):
            raise ValueError("round must be 1 or 2")
        with self._lock:
            if (round, party) in self._slots:
                raise DuplicatePost(f"party {party} already posted in round {round}")
            seq = len(self.entries)
            prev = self._tip
            payload = bytes(payload)
            digest = _entry_hash(prev, _canonical(seq, self.header.session, round, party, payload))
            entry = LedgerEntry(seq, self.header.session, round, party, payload, prev, digest)
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
        """True when every hash link checks; raises ChainBroken otherwise."""
        prev = hashlib.sha256(self._header_line.encode()).digest()
        for pos, entry in enumerate(self.entries):
            if entry.seq != pos:
                raise ChainBroken(pos, "sequence number mismatch")
            if entry.prev_hash != prev:
                raise ChainBroken(pos, "previous-hash link mismatch")
            if entry.entry_hash != _entry_hash(prev, entry.canonical_bytes()):
                raise ChainBroken(pos, "entry hash mismatch")
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
            header_line = lines[0].decode()
            header = LedgerHeader.from_line(header_line)
        except (
            UnicodeDecodeError, ValueError, KeyError, TypeError, AttributeError, MalformedEncoding
        ) as exc:
            raise ChainBroken(0, f"unreadable header: {exc}") from exc
        ledger = cls(header)  # from_line guarantees header.to_line() == header_line
        for pos, line in enumerate(lines[1:]):
            try:
                text = line.decode()
            except UnicodeDecodeError as exc:
                raise ChainBroken(pos, "undecodable entry line") from exc
            match = _LINE_RE.match(text)
            if match is None:
                raise ChainBroken(pos, "malformed entry line")
            try:
                entry = LedgerEntry(
                    int(match[1]), header.session, int(match[2]), int(match[3]),
                    bytes.fromhex(match[6]), bytes.fromhex(match[4]), bytes.fromhex(match[5]),
                )
            except ValueError as exc:
                raise ChainBroken(pos, "malformed entry line") from exc
            ledger.entries.append(entry)
            ledger._slots.add((entry.round, entry.party))
        return ledger
