import pytest

from zorro.errors import ChainBroken, DuplicatePost
from zorro.ledger import Ledger, LedgerHeader

SESSION = bytes(range(16))


def header():
    return LedgerHeader("mod41", SESSION, 3, 2, "l1", 4)


def filled(path=None):
    led = Ledger(header(), path=path)
    for rnd in (1, 2):
        for party in range(3):
            led.append(rnd, party, bytes([rnd, party]) * 8)
    return led


def test_seq_assignment():
    led = Ledger(header())
    assert led.append(1, 0, b"a") == 0
    assert led.append(1, 1, b"b") == 1
    led.append(1, 2, b"c")
    led.append(2, 0, b"d")
    assert [e.seq for e in led.entries] == [0, 1, 2, 3]


def test_duplicate_post_rejected():
    led = Ledger(header())
    led.append(1, 0, b"a")
    with pytest.raises(DuplicatePost):
        led.append(1, 0, b"again")
    led.append(2, 0, b"fine")


def test_full_session_entry_count():
    led = filled()
    assert len(led.entries) == 6
    assert [e.seq for e in led.entries] == list(range(6))


def test_read_round():
    led = filled()
    assert [e.party for e in led.read_round(1)] == [0, 1, 2]
    assert len(led.read_round(2)) == 3


def test_empty_ledger_chain_valid():
    led = Ledger(header())
    assert led.verify_chain()
    assert led.read_round(1) == []


def test_filled_chain_verifies():
    led = filled()
    assert led.verify_chain()


def test_file_roundtrip_identical_hashes(tmp_path):
    path = tmp_path / "session.ledger"
    led = filled(path=str(path))
    reloaded = Ledger.load(str(path))
    assert reloaded.verify_chain()
    assert [e.entry_hash for e in reloaded.entries] == [e.entry_hash for e in led.entries]
    assert reloaded.header == led.header


def test_empty_payload_loads_back(tmp_path):
    path = tmp_path / "session.ledger"
    led = Ledger(header(), path=str(path))
    led.append(1, 0, b"")
    loaded = Ledger.load(str(path))
    assert loaded.entries == led.entries
    assert loaded.entries[0].payload == b""
    assert loaded.verify_chain()


def test_rewriting_identical_content_preserves_hashes(tmp_path):
    a = filled(path=str(tmp_path / "a.ledger"))
    b = filled(path=str(tmp_path / "b.ledger"))
    assert (tmp_path / "a.ledger").read_bytes() == (tmp_path / "b.ledger").read_bytes()


def test_payload_mutation_detected_at_seq(tmp_path):
    path = tmp_path / "session.ledger"
    filled(path=str(path))
    raw = bytearray(path.read_bytes())
    lines = bytes(raw).split(b"\n")
    # a hex digit inside entry 4's payload
    offset = sum(len(l) + 1 for l in lines[:5]) + len(lines[5]) - 2
    raw[offset] = ord("0") if raw[offset] != ord("0") else ord("1")
    path.write_bytes(bytes(raw))
    with pytest.raises(ChainBroken) as err:
        Ledger.load(str(path)).verify_chain()
    assert err.value.seq == 4


def test_header_mutation_detected(tmp_path):
    path = tmp_path / "session.ledger"
    filled(path=str(path))
    raw = bytearray(path.read_bytes())
    raw[raw.index(b'"n":3')] += 0  # locate, then flip the digit
    idx = raw.index(b'"n":3') + 4
    raw[idx] = ord("4")
    path.write_bytes(bytes(raw))
    with pytest.raises(ChainBroken) as err:
        Ledger.load(str(path)).verify_chain()
    assert err.value.seq == 0


def _header_with_n(value):
    return header().to_line().replace('"n":3', f'"n":{value}').encode()


@pytest.mark.parametrize(
    "line",
    [
        b"[1]",
        b'{"format":"zorro-ledger/1","group":"mod41","session":"00","n":3,"m":2,"policy":5}',
        _header_with_n('"3"'),
        _header_with_n("3.0"),
        _header_with_n("3.7"),
    ],
    ids=["not-an-object", "policy-not-an-object", "n-string", "n-float", "n-fraction"],
)
def test_header_of_the_wrong_shape_is_unreadable(tmp_path, line):
    # the first two escaped Ledger.load as a bare AttributeError / TypeError;
    # the n variants were read as n=3, so a re-chained copy passed verify
    path = tmp_path / "session.ledger"
    filled(path=str(path))
    raw = path.read_bytes()
    path.write_bytes(line + raw[raw.index(b"\n"):])
    with pytest.raises(ChainBroken, match="unreadable header") as err:
        Ledger.load(str(path))
    assert err.value.seq == 0


def test_unparseable_line_reports_seq(tmp_path):
    path = tmp_path / "session.ledger"
    filled(path=str(path))
    raw = bytearray(path.read_bytes())
    lines = bytes(raw).split(b"\n")
    offset = sum(len(l) + 1 for l in lines[:3]) + 2  # inside entry 2's seq/round area
    raw[offset] = ord("x")
    path.write_bytes(bytes(raw))
    with pytest.raises(ChainBroken) as err:
        Ledger.load(str(path)).verify_chain()
    assert err.value.seq == 2


def test_truncated_file_detected(tmp_path):
    path = tmp_path / "session.ledger"
    filled(path=str(path))
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    path.write_bytes(b"\n".join(lines[:4]) + b"\n")  # drop entries 3..5
    led = Ledger.load(str(path))
    assert led.verify_chain()  # prefix is still a valid chain
    assert len(led.entries) == 3


def test_uppercase_hex_rejected(tmp_path):
    path = tmp_path / "session.ledger"
    filled(path=str(path))
    raw = bytearray(path.read_bytes())
    lines = bytes(raw).split(b"\n")
    line1 = bytearray(lines[1])
    for i, ch in enumerate(line1):
        if chr(ch) in "abcdef":
            line1[i] = ord(chr(ch).upper())
            break
    lines = list(lines)
    lines[1] = bytes(line1)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ChainBroken) as err:
        Ledger.load(str(path)).verify_chain()
    assert err.value.seq == 0
