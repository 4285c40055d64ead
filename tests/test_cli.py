import dataclasses
import hashlib
import random

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
from zorro.rangeproof import BoundPolicy


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
        lambda payload: payload[:10],
        lambda payload: payload[:9] + bytes(len(payload) - 9),
    ],
    ids=["empty-payload", "bundle-bound-0", "truncated", "zeroed-body"],
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


def test_verify_names_the_slot_of_a_bad_round1_proof(vote_ledger, tmp_path, capsys):
    group = groups.test_group()

    def edit(entry, entries):
        if (entry.round, entry.party) != (1, 2):
            return [(entry.round, entry.party, entry.payload)]
        post = protocol.Round1Post.from_bytes(group, entry.payload)
        bad = dataclasses.replace(post.proofs[1], s=(post.proofs[1].s + 1) % group.q)
        post = dataclasses.replace(post, proofs=(post.proofs[0], bad))
        return [(1, 2, post.to_bytes(group))]

    path = _rechained(vote_ledger, tmp_path / "round1.ledger", edit)
    _assert_rejected(path, capsys, "of party 2", "round1", "slot 1")


@pytest.mark.parametrize("policy", [BoundPolicy.l1(4), BoundPolicy.none()], ids=["l1", "none"])
def test_verify_rejects_ciphertexts_not_bound_to_round1(tmp_path, capsys, policy):
    # party 1 encrypts under fresh exponents instead of its round-1 x_1j: every
    # proof holds, but the pads cannot cancel.  The l1 ledger used to fail the
    # tally naming no party, the policy-none ledger used to pass
    group = groups.test_group()
    cfg = protocol.ProtocolConfig(group, 3, 2, policy, bytes(range(16)))
    parties = [protocol.Party(cfg, i, random.Random(i)) for i in range(3)]
    posts1 = [p.round1() for p in parties]
    for p in parties:
        p.receive_round1(posts1)
    fresh, _ = protocol.round1_generate(cfg, 1, random.Random(99))
    cheat = parties[1]
    posts2 = [p.round2(v) for p, v in zip(parties, [[1, 0], [2, 1], [0, 3]])]
    posts2[1] = protocol.round2_generate(
        cfg, 1, [2, 1], fresh, cheat.pads, cheat.keypair, random.Random(7)
    )
    path = tmp_path / "rebound.ledger"
    ledger = Ledger(cfg.header(), path=str(path))
    for round, posts in ((1, posts1), (2, posts2)):
        for post in posts:
            ledger.append(round, post.party, post.to_bytes(group))
    _assert_rejected(str(path), capsys, "of party 1", "(binding)", "slot 0")


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


def test_golden_secp256k1_ledger_bytes(tmp_path, capsys):
    # the curve exponentiation must keep producing the same points
    path = tmp_path / "golden.ledger"
    code = run(
        ["aggregate", "--group", "prod", "--parties", "3", "--dim", "2", "--seed", "11",
         "--check", "l1", "--bound", "4", "--ledger", str(path)]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == "tally: 4,4\n"
    raw = path.read_bytes()
    assert (len(raw), hashlib.sha256(raw).hexdigest()) == (
        22974, "21d7cda27ebd46ad3a0a8dfcbb00593ca8a50f0e0236baf03ffa2e96b80c753a"
    )


def test_golden_secp256k1_l2_ledger_bytes(tmp_path, capsys):
    # the l2 bundle codec must keep writing the same curve ledger
    path = tmp_path / "golden.ledger"
    code = run(
        ["aggregate", "--group", "prod", "--parties", "3", "--dim", "2", "--seed", "11",
         "--check", "l2", "--bound", "9", "--ledger", str(path)]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == "tally: 4,7\n"
    raw = path.read_bytes()
    assert (len(raw), hashlib.sha256(raw).hexdigest()) == (
        35586, "bfbe2b14843650880669a492e817fa9dedeb87a243be1757f7008ee397622731"
    )


@pytest.mark.parametrize(
    "check, bound, slot_fields",
    [
        ("l1", "4", ("reencrypted", "links", "element_digit_cts", "element_digit_proofs")),
        # L = 7, so the padded l2 runs keep their 8 slots at m = 1 as at m = 2
        ("l2", "9", ("links",)),
    ],
)
def test_verify_rejects_a_bundle_cut_to_one_slot(tmp_path, capsys, check, bound, slot_fields):
    # party 1's bundle decodes as a well-formed one-slot bundle, but it sits
    # under two posted ciphertexts
    group = groups.test_group()
    source = tmp_path / "source.ledger"
    code = run(
        ["aggregate", "--group", "test", "--parties", "3", "--dim", "2", "--seed", "11",
         "--check", check, "--bound", bound, "--ledger", str(source)]
    )
    assert code == EXIT_OK
    capsys.readouterr()

    def edit(entry, entries):
        if (entry.round, entry.party) != (2, 1):
            return [(entry.round, entry.party, entry.payload)]
        post = protocol.Round2Post.from_bytes(group, entry.payload)
        cut = {name: getattr(post.bundle, name)[:1] for name in slot_fields}
        post = dataclasses.replace(post, bundle=dataclasses.replace(post.bundle, **cut))
        return [(2, 1, post.to_bytes(group))]

    path = _rechained(source, tmp_path / "cut.ledger", edit)
    _assert_rejected(path, capsys, "contribution of party 1 rejected (malformed)")


# l1 bound 2^41 - 1 on mod41, where q = 2^40 + 15: legal entries can sum to q
WRAP_BOUND = str(2**41 - 1)


def test_aggregate_refuses_an_l1_bound_whose_tally_wraps(tmp_path, capsys):
    # both rows are legal, but they sum to q: this printed "tally: 0" and
    # the ledger passed `zorro verify`
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("1099511627790\n1\n")
    code = run(
        ["aggregate", "--group", "test", "--check", "l1", "--bound", WRAP_BOUND,
         "--vectors", str(vectors), "--ledger", str(tmp_path / "wrap.ledger")]
    )
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "group order" in captured.err


def test_verify_rejects_a_header_whose_l1_bound_wraps(tmp_path, capsys):
    # the golden ledger re-chained under the wrapping bound used to fail only
    # later, as "contribution of party 0 rejected (policy)"
    golden = tmp_path / "golden.ledger"
    code = run(
        ["aggregate", "--group", "test", "--parties", "3", "--dim", "2", "--seed", "11",
         "--check", "l1", "--bound", "4", "--ledger", str(golden)]
    )
    assert code == EXIT_OK
    led = Ledger.load(str(golden))
    path = tmp_path / "wrap.ledger"
    copy = Ledger(dataclasses.replace(led.header, policy_bound=int(WRAP_BOUND)), path=str(path))
    for entry in led.entries:
        copy.append(entry.round, entry.party, entry.payload)
    _assert_rejected(str(path), capsys, "bad ledger header", "group order")


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


# SHA-256 of each demo's whole stdout at --seed 4
_DEMO_STDOUT = {
    "demo-lda": "5c03db5040dbe04b9cb79055392f2c0452cd9b00db3f554d7106af8f251fa489",
    "demo-id3": "f3c7f87738a7594d23d80206aa765e1373fc168f6d0a2f08c25f777a3eda87a8",
    "demo-nb": "f04bc0445acb4f71cb4160a570dac9569fbc2052f457e74af114547dd5030f0d",
    "demo-regression": "d85d06826749191a52c41183850cc94888570cb036c2a601f982df6ad67a5ec4",
    "demo-cf": "b0206d885ba3f3f29e3c8367cbba95ed05e38e9c4e048500ce85610dd349d953",
}


@pytest.mark.parametrize("command", list(_DEMO_STDOUT))
def test_demos_match_centralized(command, capsys):
    assert run([command, "--seed", "4"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _DEMO_STDOUT[command]


@pytest.mark.parametrize(
    "argv, data, name",
    [
        (["demo-lda", "--parties", "0"], None, "parties"),
        (["demo-id3", "--parties", "0"], None, "parties"),
        (["demo-nb", "--parties", "0"], None, "parties"),
        (["demo-regression", "--parties", "30"], None, "rows"),
        (["demo-regression", "--parties", "3", "--data", "FILE"], "1,2\n2,3\n", "rows"),
        (["demo-id3", "--parties", "3", "--samples", "FILE"], "0 0\n1 1\n", "rows"),
        (["aggregate", "--dim", "0", "--bound", "4", "--ledger", "FILE"], None, "dimension"),
        (["bench", "--dims", "1", "--bounds", "2", "--reps", "0", "--out", "FILE"], None, "reps"),
        (["bench", "--dims", "1", "--bounds", "2", "--reps", "-2", "--out", "FILE"], None, "reps"),
    ],
    ids=[
        "lda-0", "id3-0", "nb-0", "regression-30", "regression-data", "id3-samples", "dim-0",
        "reps-0", "reps-negative",
    ],
)
def test_bad_party_counts_are_usage_errors(tmp_path, capsys, argv, data, name):
    # the demo cases other than id3-samples escaped main as IndexError /
    # AttributeError tracebacks; --dim 0 said "empty range for randrange()"
    path = tmp_path / "input"
    if data is not None:
        path.write_text(data)
    assert run([str(path) if arg == "FILE" else arg for arg in argv]) == EXIT_USAGE
    assert name in capsys.readouterr().err


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


def test_demo_nb_names_the_class_without_samples(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("0 0\n1 0\n0 2\n1 2\n")
    assert run(["demo-nb", "--parties", "2", "--samples", str(samples)]) == EXIT_USAGE
    assert capsys.readouterr().err == "class 1 has zero samples\n"


def test_demo_id3_samples_file(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("0 0\n0 1\n1 0\n1 1\n0 0\n1 1\n")
    assert run(["demo-id3", "--parties", "3", "--samples", str(samples)]) == EXIT_OK
    capsys.readouterr()
