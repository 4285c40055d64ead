import dataclasses
import hashlib

import pytest

from zorro.cli import (
    EXIT_DROPOUT,
    EXIT_LEDGER,
    EXIT_OK,
    EXIT_PROOF,
    EXIT_USAGE,
    main,
)
from zorro import groups, protocol
from zorro.errors import NotInWindow
from zorro.ledger import Ledger


def run(argv):
    return main(argv)


@pytest.fixture
def ballots_file(tmp_path):
    path = tmp_path / "ballots.txt"
    path.write_text("3,0\n1,2\n0,1\n")
    return str(path)


def test_vote_totals_and_exit(ballots_file, tmp_path, capsys):
    ledger = tmp_path / "vote.ledger"
    out = tmp_path / "totals.csv"
    code = run(
        ["vote", ballots_file, "--bound", "4", "--ledger", str(ledger),
         "--seed", "3", "--out", str(out)]
    )
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    assert "candidate 0: 4 votes" in captured
    assert "candidate 1: 3 votes" in captured
    assert out.read_text().strip() == "4,3"
    assert ledger.exists()


def test_vote_rejects_illegal_ballot(tmp_path, capsys):
    path = tmp_path / "ballots.txt"
    path.write_text("2,2\n1,0\n")
    code = run(["vote", str(path), "--bound", "4", "--ledger", str(tmp_path / "l")])
    assert code == EXIT_USAGE
    assert "illegal" in capsys.readouterr().err


def test_vote_deterministic_ledger(ballots_file, tmp_path):
    a, b = tmp_path / "a.ledger", tmp_path / "b.ledger"
    assert run(["vote", ballots_file, "--bound", "4", "--ledger", str(a), "--seed", "7"]) == 0
    assert run(["vote", ballots_file, "--bound", "4", "--ledger", str(b), "--seed", "7"]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.ledger"
    assert run(["vote", ballots_file, "--bound", "4", "--ledger", str(c), "--seed", "8"]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_verify_accepts_fresh_ledger(ballots_file, tmp_path, capsys):
    ledger = tmp_path / "vote.ledger"
    run(["vote", ballots_file, "--bound", "4", "--ledger", str(ledger)])
    assert run(["verify", str(ledger)]) == EXIT_OK
    assert "ledger ok" in capsys.readouterr().out


def test_verify_detects_tampering_with_seq(ballots_file, tmp_path, capsys):
    ledger = tmp_path / "vote.ledger"
    run(["vote", ballots_file, "--bound", "4", "--ledger", str(ledger)])
    raw = bytearray(ledger.read_bytes())
    lines = bytes(raw).split(b"\n")
    offset = sum(len(l) + 1 for l in lines[:3]) + len(lines[3]) - 4
    raw[offset] = ord("0") if raw[offset] != ord("0") else ord("1")
    ledger.write_bytes(bytes(raw))
    assert run(["verify", str(ledger)]) == EXIT_LEDGER
    assert "seq 2" in capsys.readouterr().err


def test_verify_detects_dropout(ballots_file, tmp_path, capsys):
    ledger = tmp_path / "vote.ledger"
    run(["vote", ballots_file, "--bound", "4", "--ledger", str(ledger)])
    raw = ledger.read_bytes()
    lines = raw.split(b"\n")
    ledger.write_bytes(b"\n".join(lines[:6]) + b"\n")  # drop party 2's round-2 post
    assert run(["verify", str(ledger)]) == EXIT_DROPOUT
    assert "party 2 missing from round 2" in capsys.readouterr().err


def test_verify_detects_forged_payload(ballots_file, tmp_path, capsys):
    # splice one party's round-2 payload into another party's slot and
    # rebuild a structurally valid chain: chain passes, proofs must not
    ledger_path = tmp_path / "vote.ledger"
    run(["vote", ballots_file, "--bound", "4", "--ledger", str(ledger_path)])
    led = Ledger.load(str(ledger_path))
    rebuilt = Ledger(led.header, path=str(tmp_path / "forged.ledger"))
    for entry in led.entries:
        payload = entry.payload
        if entry.round == 2 and entry.party == 1:
            donor = next(e for e in led.entries if e.round == 2 and e.party == 2)
            forged = bytearray(donor.payload)
            forged[1:5] = (1).to_bytes(4, "big")  # claim party 1
            payload = bytes(forged)
        rebuilt.append(entry.round, entry.party, payload)
    assert run(["verify", str(tmp_path / "forged.ledger")]) == EXIT_PROOF
    assert "rejected" in capsys.readouterr().err


def _rechained(src, dst, edit):
    """Copy ledger `src` to `dst` through Ledger.append, so the chain stays valid.

    `edit(entry, entries)` returns the (round, party, payload) posts that
    replace one entry: [] drops it, more than one adds entries after it.
    """
    led = Ledger.load(str(src))
    copy = Ledger(led.header, path=str(dst))
    for entry in led.entries:
        for post in edit(entry, led.entries):
            copy.append(*post)
    return str(dst)


def _payload(entries, round, party):
    return next(e.payload for e in entries if (e.round, e.party) == (round, party))


def _claiming(payload, party):
    forged = bytearray(payload)
    forged[1:5] = party.to_bytes(4, "big")
    return bytes(forged)


def _assert_rejected(path, capsys, *names):
    assert run(["verify", path]) == EXIT_PROOF
    captured = capsys.readouterr()
    assert "ledger ok" not in captured.out
    assert "Traceback" not in captured.err
    for name in names:
        assert name in captured.err


@pytest.fixture
def vote_ledger(ballots_file, tmp_path, capsys):
    path = tmp_path / "vote.ledger"
    assert run(["vote", ballots_file, "--bound", "4", "--ledger", str(path)]) == EXIT_OK
    capsys.readouterr()
    return path


@pytest.mark.parametrize("round", [1, 2])
def test_verify_rejects_byte_copy_of_another_partys_post(vote_ledger, tmp_path, capsys, round):
    # party 1's entry carries party 0's post verbatim; it used to pass
    # (round 2) or fail as a dropout (round 1)
    def edit(entry, entries):
        if (entry.round, entry.party) == (round, 1):
            return [(round, 1, _payload(entries, round, 0))]
        return [(entry.round, entry.party, entry.payload)]

    path = _rechained(vote_ledger, tmp_path / "copied.ledger", edit)
    _assert_rejected(path, capsys, f"round-{round}", "of party 1", "claims party 0")


@pytest.mark.parametrize("round", [1, 2])
def test_verify_rejects_payload_claiming_party_out_of_range(vote_ledger, tmp_path, capsys, round):
    # a payload claiming party 7 of 3 used to crash verify with a KeyError
    def edit(entry, entries):
        if (entry.round, entry.party) == (round, 1):
            return [(round, 1, _claiming(entry.payload, 7))]
        return [(entry.round, entry.party, entry.payload)]

    path = _rechained(vote_ledger, tmp_path / "claim7.ledger", edit)
    _assert_rejected(path, capsys, "of party 1", "claims party 7")


def test_verify_rejects_entry_under_party_id_n(vote_ledger, tmp_path, capsys):
    def edit(entry, entries):
        posts = [(entry.round, entry.party, entry.payload)]
        if entry is entries[-1]:
            posts.append((2, 3, _claiming(_payload(entries, 2, 2), 3)))
        return posts

    path = _rechained(vote_ledger, tmp_path / "extra.ledger", edit)
    _assert_rejected(path, capsys, "of party 3", "outside [0, 3)")


# offset of the 8-byte bound in a round-2 l1 post with m=2 on the test group:
# tag, party, m, two ciphertexts, bundle kind, bundle tag, policy code
_BOUND_AT = 1 + 4 + 4 + 2 * 2 * groups.test_group().element_bytes + 1 + 1 + 1


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda payload: b"",
        lambda payload: payload[:_BOUND_AT] + bytes(8) + payload[_BOUND_AT + 8:],
    ],
    ids=["empty-payload", "bundle-bound-0"],
)
def test_verify_rejects_undecodable_round2_post(vote_ledger, tmp_path, capsys, corrupt):
    # an empty payload used to fail to load (exit 3) and a zero bundle bound
    # escaped as a bare ValueError (exit 1); both are party 1's malformed post
    def edit(entry, entries):
        if (entry.round, entry.party) == (2, 1):
            return [(2, 1, corrupt(entry.payload))]
        return [(entry.round, entry.party, entry.payload)]

    path = _rechained(vote_ledger, tmp_path / "corrupt.ledger", edit)
    _assert_rejected(path, capsys, "of party 1", "malformed")


@pytest.mark.parametrize(
    "field, value",
    [("policy_bound", 0), ("policy_kind", "l3"), ("n", 1), ("group_id", "nope")],
    ids=["bound-0", "kind-l3", "n-1", "unknown-group"],
)
def test_verify_rejects_impossible_header(vote_ledger, tmp_path, capsys, field, value):
    # each used to exit 1, the usage-error code, instead of rejecting the ledger
    led = Ledger.load(str(vote_ledger))
    path = tmp_path / "header.ledger"
    copy = Ledger(dataclasses.replace(led.header, **{field: value}), path=str(path))
    for entry in led.entries:
        copy.append(entry.round, entry.party, entry.payload)
    _assert_rejected(str(path), capsys, "bad ledger header")


def test_verify_rejects_second_round2_entry(vote_ledger, capsys):
    # Ledger.append refuses a second post, so chain the extra line by hand:
    # entry_hash = SHA256(prev_hash || canonical entry bytes)
    led = Ledger.load(str(vote_ledger))
    last = led.entries[-1]
    dup = dataclasses.replace(
        next(e for e in led.entries if (e.round, e.party) == (2, 0)),
        seq=last.seq + 1, prev_hash=last.entry_hash,
    )
    dup = dataclasses.replace(
        dup, entry_hash=hashlib.sha256(dup.prev_hash + dup.canonical_bytes()).digest()
    )
    with open(vote_ledger, "a") as fh:
        fh.write(dup.to_line() + "\n")
    _assert_rejected(str(vote_ledger), capsys, "of party 0", "second entry")


def test_verify_prints_the_tally_from_the_ledger_alone(vote_ledger, capsys):
    assert run(["verify", str(vote_ledger)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ledger ok")
    assert lines[1:] == ["tally: 4,3"]


def test_verify_maps_tally_failure_to_proof_rejection(vote_ledger, capsys, monkeypatch):
    def no_log(group, target, window):
        raise NotInWindow("no logarithm")

    monkeypatch.setattr(protocol, "bsgs", no_log)
    assert run(["verify", str(vote_ledger)]) == EXIT_PROOF
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tally failed at slot 0" in captured.err


@pytest.mark.parametrize(
    "check, bound, digest, size, totals",
    [
        ("l1", "4", "3379591361db2096fe6a0db622630e8a9c2d586ba70452ff44614266555fa143", 5228, "4,4"),
        ("l2", "9", "1687111bb850b17979bb141c6fd23314c138eaa724004bc0b674bdff72b10cb3", 7568, "4,7"),
    ],
)
def test_golden_ledger_bytes(tmp_path, capsys, check, bound, digest, size, totals):
    # a fixed-seed session must keep producing the same ledger file byte for byte
    path = tmp_path / "golden.ledger"
    code = run(
        ["aggregate", "--group", "test", "--parties", "3", "--dim", "2", "--seed", "11",
         "--check", check, "--bound", bound, "--ledger", str(path)]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == f"tally: {totals}\n"
    raw = path.read_bytes()
    assert (len(raw), hashlib.sha256(raw).hexdigest()) == (size, digest)


def test_aggregate_with_vector_file(tmp_path, capsys):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("1 2 3\n4 0 1\n0 0 2\n")
    code = run(
        ["aggregate", "--vectors", str(vectors), "--check", "l1", "--bound", "8",
         "--ledger", str(tmp_path / "agg.ledger")]
    )
    assert code == EXIT_OK
    assert "tally: 5,2,6" in capsys.readouterr().out


def test_aggregate_random_l2(tmp_path, capsys):
    code = run(
        ["aggregate", "--parties", "3", "--dim", "2", "--check", "l2", "--bound", "9",
         "--seed", "5", "--ledger", str(tmp_path / "agg.ledger")]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith("tally: ")
    assert run(["verify", str(tmp_path / "agg.ledger")]) == EXIT_OK


def test_aggregate_requires_bound(tmp_path):
    assert run(["aggregate", "--check", "l1", "--ledger", str(tmp_path / "x")]) == EXIT_USAGE


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run(
        ["bench", "--check", "l1", "--dims", "1,2", "--bounds", "2", "--reps", "1",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,B,gen_ms,verify_ms,tally_ms"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "command", ["demo-lda", "demo-id3", "demo-nb", "demo-regression", "demo-cf"]
)
def test_demos_match_centralized(command, capsys):
    assert run([command, "--seed", "4"]) == EXIT_OK
    capsys.readouterr()


def test_demo_regression_data_file(tmp_path, capsys):
    data = tmp_path / "points.csv"
    data.write_text("1.0,1.0,3.1\n2.0,1.0,5.2\n3.0,1.0,6.8\n4.0,1.0,9.1\n")
    assert run(["demo-regression", "--parties", "2", "--data", str(data)]) == EXIT_OK
    assert "full precision" in capsys.readouterr().out


def test_demo_cf_ratings_file(tmp_path, capsys):
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("1,2,3,0\n0,4,1,2\n5,0,0,1\n")
    assert run(["demo-cf", "--ratings", str(ratings)]) == EXIT_OK
    capsys.readouterr()


def test_demo_nb_samples_file(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("0,0\n1,1\n2,0\n0,1\n1,0\n2,1\n1,1\n0,0\n")
    assert run(["demo-nb", "--parties", "2", "--samples", str(samples)]) == EXIT_OK
    capsys.readouterr()


def test_demo_id3_samples_file(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("0 0\n0 1\n1 0\n1 1\n0 0\n1 1\n")
    assert run(["demo-id3", "--parties", "3", "--samples", str(samples)]) == EXIT_OK
    capsys.readouterr()
