import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import zorro

from zorro.cli import (
    EXIT_DROPOUT,
    EXIT_LEDGER,
    EXIT_OK,
    EXIT_PROOF,
    EXIT_USAGE,
    main,
)
from zorro import cli, dlog, groups, protocol, rangeproof, sigma
from zorro.encoding import Share
from zorro.errors import NotInWindow
from zorro.ledger import Ledger, LedgerHeader
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
            payload = next(e for e in led.entries if e.round == 2 and e.party == 2).payload
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


def _reheaded(src, dst, **changes):
    """Copy ledger `src` to `dst` under its header with `changes`, re-chained."""
    led = Ledger.load(str(src))
    copy = Ledger(dataclasses.replace(led.header, **changes), path=str(dst))
    for entry in led.entries:
        copy.append(entry.round, entry.party, entry.payload)
    return str(dst)


def _decoded(cfg, entries, round, party):
    """The post of `party` in `round`, read as verify_ledger reads it under `cfg`."""
    post1 = protocol.Round1Post.from_bytes(cfg.group, _payload(entries, 1, party), party, cfg.m)
    if round == 1:
        return post1
    return protocol.Round2Post.from_bytes(
        cfg.group, _payload(entries, 2, party), party, cfg.policy, post1.elements
    )


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


def _copied(src, dst, round):
    """Ledger `src` re-chained into `dst` with party 1's entry of `round`
    carrying party 0's payload verbatim."""
    def edit(entry, entries):
        if (entry.round, entry.party) == (round, 1):
            return [(round, 1, _payload(entries, round, 0))]
        return [(entry.round, entry.party, entry.payload)]

    return _rechained(src, dst, edit)


@pytest.mark.parametrize("group", ["test", "prod"])
@pytest.mark.parametrize(
    "round, named",
    [
        (1, "round-1 proof of party 1 rejected (round1)\n"),
        (2, "contribution of party 1 rejected (tuple): slot 0"),
    ],
    ids=["round1", "round2"],
)
def test_verify_rejects_byte_copy_of_another_partys_post(
    ballots_file, tmp_path, capsys, monkeypatch, group, round, named
):
    # no post names its party: every proof context hashes the entry's party
    # index, so the copied round-1 proof fails, as does the copied bundle
    # from slot 0.  secp256k1 folds the
    # ledger first; the failed fold falls back to the checks one by one
    source = tmp_path / "vote.ledger"
    argv = ["vote", ballots_file, "--bound", "4", "--group", group, "--ledger", str(source)]
    assert run(argv) == EXIT_OK
    capsys.readouterr()
    path = _copied(source, tmp_path / "copied.ledger", round)
    folds, fold_holds = [], protocol.fold_holds

    def spy(*args):
        folds.append(fold_holds(*args))
        return folds[-1]

    monkeypatch.setattr(protocol, "fold_holds", spy)
    _assert_rejected(path, capsys, named)
    assert folds == ([False] if group == "prod" else [])


def _none_ledger(tmp_path, capsys):
    path = tmp_path / "none.ledger"
    code = run(
        ["aggregate", "--group", "test", "--parties", "3", "--dim", "2", "--seed", "11",
         "--check", "none", "--bound", "4", "--ledger", str(path)]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    return path


def test_verify_tallies_a_policy_none_round2_copy(tmp_path, capsys):
    # no proof binds a policy-none contribution: party 0's B's under party 1
    # pass verification, and only the tally, whose pads no longer cancel, fails
    path = _copied(_none_ledger(tmp_path, capsys), tmp_path / "copied.ledger", 2)
    _assert_rejected(path, capsys, "tally failed at slot 0")


def test_verify_rejects_a_policy_none_header_with_bound_0(tmp_path, capsys):
    # the header's bound sets policy none's tally window, so like l1's and
    # l2's it must be positive
    path = _reheaded(_none_ledger(tmp_path, capsys), tmp_path / "bound.ledger", policy_bound=0)
    _assert_rejected(path, capsys, "bad ledger header", "bound must be a positive integer")


def test_a_policy_none_ledger_verifies_and_tallies_from_its_header_alone(tmp_path, capsys):
    # the tally window [0, n * B] is in the header: a bare verify of a ledger
    # whose sum exceeds the old default --window of 100000 used to exit 2
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("60000\n60000\n")
    path = str(tmp_path / "none.ledger")
    code = run(["aggregate", "--check", "none", "--bound", "60000", "--vectors", str(vectors),
                "--ledger", path])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "tally: 120000\n"
    assert run(["verify", path]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:] == ["tally: 120000"]


@pytest.mark.parametrize(
    "check, refusal", [("none", "element sum 60000 > 10"), ("l1", "element sum 60000 > 15")]
)
def test_aggregate_refuses_an_out_of_bound_vector_before_round_2(tmp_path, capsys, check, refusal):
    # policy none proves nothing, yet its party refuses a vector over the
    # nominal B as an l1 prover refuses one over 2^L - 1: the refusal names
    # the first party, as an encoder's does, the ledger keeps the header and
    # round 1, and no tally fails later naming no party
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("60000\n60000\n")
    path = tmp_path / "refused.ledger"
    code = run(["aggregate", "--check", check, "--bound", "10", "--vectors", str(vectors),
                "--ledger", str(path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"input of party 0 is illegal: {refusal}\n"
    lines = path.read_text().splitlines()
    assert len(lines) == 3 and [line.split()[0] for line in lines[1:]] == ["1", "1"]


@pytest.mark.parametrize(
    "check, rows, refusal",
    [
        ("l1", "1 2\n60000 0\n", "input of party 1 is illegal: element sum 60000 > 15"),
        ("l1", "1 2\n0 0\n-1 1\n",
         "input of party 2 is illegal: l1 policy admits only non-negative entries"),
        ("l2", "3 4\n0 60000\n", "input of party 1 is illegal: sum of squares 3600000000 > 127"),
    ],
    ids=["l1-bound", "l1-negative", "l2-bound"],
)
def test_a_round2_refusal_names_the_refusing_party(tmp_path, capsys, check, rows, refusal):
    # the prover of the named party refuses at 2^L - 1: the ledger holds
    # every round-1 post and the round-2 posts of the parties before it
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(rows)
    path = tmp_path / "refused.ledger"
    code = run(["aggregate", "--check", check, "--bound", "10", "--vectors", str(vectors),
                "--ledger", str(path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == refusal + "\n"
    refusing = int(refusal.split()[3])
    lines = path.read_text().splitlines()
    rounds = [line.split()[0] for line in lines[1:]]
    assert rounds == ["1"] * rows.count("\n") + ["2"] * refusing


def test_verify_rejects_entry_under_party_id_n(vote_ledger, tmp_path, capsys):
    def edit(entry, entries):
        posts = [(entry.round, entry.party, entry.payload)]
        if entry is entries[-1]:
            posts.append((2, 3, _payload(entries, 2, 2)))
        return posts

    path = _rechained(vote_ledger, tmp_path / "extra.ledger", edit)
    _assert_rejected(path, capsys, "of party 3", "outside [0, 3)")


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda payload: b"",
        lambda payload: payload[:10],
        lambda payload: payload[:9] + bytes(len(payload) - 9),
    ],
    ids=["empty-payload", "truncated", "zeroed-body"],
)
def test_verify_rejects_undecodable_round2_post(vote_ledger, tmp_path, capsys, corrupt):
    # an empty payload used to fail to load (exit 3); each is party 1's
    # malformed post
    def edit(entry, entries):
        if (entry.round, entry.party) == (2, 1):
            return [(2, 1, corrupt(entry.payload))]
        return [(entry.round, entry.party, entry.payload)]

    path = _rechained(vote_ledger, tmp_path / "corrupt.ledger", edit)
    _assert_rejected(path, capsys, "of party 1", "malformed")


@pytest.mark.parametrize("old", [1, 2, 3, 4, 5, 6, 7])
def test_verify_refuses_a_format_1_ledger(vote_ledger, tmp_path, capsys, old):
    # format 8 has the only reader: a file of an older format is unreadable,
    # by name, and its posts are never read as malformed format-8 ones
    path = tmp_path / "old.ledger"
    text = vote_ledger.read_text()
    assert '"format":"zorro-ledger/8"' in text
    path.write_text(text.replace('"format":"zorro-ledger/8"', f'"format":"zorro-ledger/{old}"'))
    assert run(["verify", str(path)]) == EXIT_LEDGER
    err = capsys.readouterr().err
    assert err.startswith("ledger corrupt at seq 0: unreadable header")
    assert f"unsupported ledger format 'zorro-ledger/{old}'" in err


@pytest.mark.parametrize("check", ["l1", "none"])
def test_verify_rejects_a_format_1_round2_payload(tmp_path, capsys, check):
    # party 1's round-2 post carries each ciphertext whole, A before B, as
    # format 1 laid it out
    group = groups.test_group()
    source = tmp_path / "source.ledger"
    code = run(
        ["aggregate", "--group", "test", "--parties", "3", "--dim", "2", "--seed", "11",
         "--check", check, "--bound", "4", "--ledger", str(source)]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    cfg = protocol.ProtocolConfig.from_header(Ledger.load(str(source)).header)

    def edit(entry, entries):
        if (entry.round, entry.party) != (2, 1):
            return [(entry.round, entry.party, entry.payload)]
        post = _decoded(cfg, entries, 2, 1)
        cts_end = len(post.cts) * group.element_bytes
        v1 = b"".join(ct.to_bytes(group) for ct in post.cts) + entry.payload[cts_end:]
        return [(2, 1, v1)]

    path = _rechained(source, tmp_path / "v1-payload.ledger", edit)
    _assert_rejected(path, capsys, "round-2 entry seq 4 of party 1 malformed")


def test_verify_names_the_party_of_a_bad_round1_proof(vote_ledger, tmp_path, capsys):
    # one proof covers a party's m round-1 elements, so a rejection names
    # the party and no slot
    group = groups.test_group()
    cfg = protocol.ProtocolConfig.from_header(Ledger.load(str(vote_ledger)).header)

    def edit(entry, entries):
        if (entry.round, entry.party) != (1, 2):
            return [(entry.round, entry.party, entry.payload)]
        post = _decoded(cfg, entries, 1, 2)
        bad = dataclasses.replace(post.proof, s=(post.proof.s + 1) % group.q)
        return [(1, 2, dataclasses.replace(post, proof=bad).to_bytes(group))]

    path = _rechained(vote_ledger, tmp_path / "round1.ledger", edit)
    _assert_rejected(path, capsys, "round-1 proof of party 2 rejected (round1)\n")


def _session_posts(cfg, vectors):
    """Both rounds' posts of a session in which party i draws from Random(i)."""
    rngs = [random.Random(i) for i in range(cfg.n)]
    secrets, posts1 = zip(*(protocol.round1_generate(cfg, i, r) for i, r in enumerate(rngs)))
    posts2 = [
        protocol.round2_generate(cfg, v, s, protocol.derive_pads(cfg, posts1, s.party), r)
        for v, s, r in zip(vectors, secrets, rngs)
    ]
    return posts1, posts2


@pytest.mark.parametrize(
    "policy, names",
    [
        (BoundPolicy.l1(4), ("of party 1", "(tuple)", "slot 0")),
        (BoundPolicy("none", 4), ("tally failed at slot 0",)),
    ],
    ids=["l1", "none"],
)
def test_verify_rejects_ciphertexts_not_bound_to_round1(tmp_path, capsys, policy, names):
    # party 1 encrypts under fresh exponents instead of its round-1 x_1j, so
    # the pads cannot cancel.  A reader takes each A from round 1, so only
    # party 1's B's carry the fresh exponents: its l1 links, proved over the
    # fresh A's, fail from slot 0.  Under policy none no proof binds B, so
    # only the tally fails; a check on a posted A caught only a cheater who
    # also posted its fresh A
    group = groups.test_group()
    cfg = protocol.ProtocolConfig(group, 3, 2, policy, bytes(range(16)))
    posts1, posts2 = _session_posts(cfg, [[1, 0], [2, 1], [0, 3]])
    fresh, _ = protocol.round1_generate(cfg, 1, random.Random(99))
    pads = protocol.derive_pads(cfg, posts1, 1)
    posts2[1] = protocol.round2_generate(cfg, [2, 1], fresh, pads, random.Random(7))
    path = tmp_path / "rebound.ledger"
    ledger = Ledger(cfg.header(), path=str(path))
    for round, posts in ((1, posts1), (2, posts2)):
        for post in posts:
            ledger.append(round, post.party, post.to_bytes(group))
    _assert_rejected(str(path), capsys, *names)


def _wrapping_prove_l2(group, cts, values, x, pad_keys, policy, ctx, rng):
    """prove_l2 with its bound check on the squared norm taken mod q: the
    same sub-proofs, over a vector whose squares only sum to a small number
    modulo the group order."""
    s = sum(t * t for t in values) % group.q
    assert s <= policy.effective_bound
    s_w = [group.random_scalar(rng) for _ in values]
    Cs, Ws, square_proofs = zip(*sigma.lift_proofs(group, [
        sigma.prove_square(group, t, xj, sj, ctx.child(b"square", j), rng)
        for j, (t, xj, sj) in enumerate(zip(values, x, s_w))
    ]))
    links = rangeproof._link_proofs(group, cts, Cs, x, pad_keys, ctx, rng)
    digit_rand = rangeproof._digit_randomness(group, sum(s_w) % group.q, policy.L, rng)
    digit_proofs = tuple(sigma.lift_proofs(group, rangeproof._prove_digits(
        group, rangeproof.bits_of(s, policy.L), digit_rand, ctx.child(b"bit"), rng
    )))
    return rangeproof.L2RangeProof(Cs, links, digit_proofs, Ws, square_proofs)


# sqrt(2) mod the secp256k1 group order, a 251-bit root
SECP256K1_ROOT_OF_2 = 0x63E4B822D103A31A484D5EFC164DE812448B0C4820F957860DC0068FFE13C60


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="no proof bounds an l2 slot: its square may wrap mod q",
)
@pytest.mark.parametrize(
    "group, bound, vector",
    [
        (groups.prod_group(), 2, [SECP256K1_ROOT_OF_2, 0]),
        (groups.test_group(), 2**19, [2**20, 4]),
    ],
    ids=["secp256k1-root-of-2", "mod41-norm-2^40+16"],
)
def test_verify_rejects_an_l2_contribution_whose_squares_wrap_mod_q(
    tmp_path, capsys, monkeypatch, group, bound, vector
):
    # party 0's squared norm is 2 on secp256k1 and 2^40 + 16 = 1 (mod q) on
    # mod41, both within the digits.  Every check holds mod q: the secp256k1
    # ledger verifies and only its tally fails, naming no party; the mod41
    # ledger verifies and tallies (1048576, 4)
    assert sum(t * t for t in vector) % group.q <= 3
    cfg = protocol.ProtocolConfig(group, 2, 2, BoundPolicy.l2(bound), bytes(range(16)))
    monkeypatch.setattr(rangeproof, "prove_l2", _wrapping_prove_l2)
    posts1, posts2 = _session_posts(cfg, [vector, [0, 0]])
    path = tmp_path / "wrapped.ledger"
    ledger = Ledger(cfg.header(), path=str(path))
    for round, posts in ((1, posts1), (2, posts2)):
        for post in posts:
            ledger.append(round, post.party, post.to_bytes(group))
    _assert_rejected(str(path), capsys, "of party 0")


@pytest.mark.parametrize(
    "field, value",
    [("policy_bound", 0), ("policy_kind", "l3"), ("n", 1), ("group_id", "nope")],
    ids=["bound-0", "kind-l3", "n-1", "unknown-group"],
)
def test_verify_rejects_impossible_header(vote_ledger, tmp_path, capsys, field, value):
    # each used to exit 1, the usage-error code, instead of rejecting the ledger
    path = _reheaded(vote_ledger, tmp_path / "header.ledger", **{field: value})
    _assert_rejected(path, capsys, "bad ledger header")


def test_verify_rejects_second_round2_entry(vote_ledger, capsys):
    # Ledger.append refuses a second post, so chain the extra line with the
    # entry's own hash below the last line
    led = Ledger.load(str(vote_ledger))
    last = led.entries[-1]
    dup = dataclasses.replace(
        next(e for e in led.entries if (e.round, e.party) == (2, 0)), seq=last.seq + 1
    )
    dup = dataclasses.replace(dup, entry_hash=dup.hash_after(last.entry_hash))
    with open(vote_ledger, "a") as fh:
        fh.write(dup.to_line() + "\n")
    _assert_rejected(str(vote_ledger), capsys, "of party 0", "second entry")


def test_verify_prints_the_tally_from_the_ledger_alone(vote_ledger, capsys):
    assert run(["verify", str(vote_ledger)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ledger ok")
    assert lines[1:] == ["tally: 4,3"]


def test_verify_does_not_import_numpy(vote_ledger):
    # only the demos need numpy; importing the CLI and verifying a
    # ledger in a fresh interpreter must not load it
    script = (
        "import sys, zorro.cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        f"assert zorro.cli.main(['verify', {str(vote_ledger)!r}]) == 0\n"
        "assert 'numpy' not in sys.modules, 'verify'\n"
    )
    src = str(Path(zorro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_verify_maps_tally_failure_to_proof_rejection(vote_ledger, capsys, monkeypatch):
    def no_log(group, target, window):
        raise NotInWindow("no logarithm")

    monkeypatch.setattr(protocol, "bsgs", no_log)
    assert run(["verify", str(vote_ledger)]) == EXIT_PROOF
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tally failed at slot 0" in captured.err


def _payloads_digest(path) -> str:
    """SHA-256 of a ledger's entry payloads in seq order, each u32-length-prefixed."""
    h = hashlib.sha256()
    for entry in Ledger.load(str(path)).entries:
        h.update(len(entry.payload).to_bytes(4, "big") + entry.payload)
    return h.hexdigest()


@pytest.mark.parametrize(
    "check, bound, digest, payloads, size, totals",
    [
        ("l1", "4", "6d1225dbdb854b14ea6ceb4d8e4c81313ee925940bcd89b95ac9f82890158bf2",
         "f43e72f84e32a7603871ee1bf5cf183722567adfb8b0d38bd849b825ae5fd629", 2930, "2,2"),
        ("l2", "9", "a1b4d79fc682e39865f009e64509189f842703fca9dd22a7f8fadc22f6df66bc",
         "c7785bcbedb7f7233214e15d209511dec006829897a570fe477958a303fddeeb", 3002, "4,7"),
    ],
)
def test_golden_ledger_bytes(tmp_path, capsys, check, bound, digest, payloads, size, totals):
    # a fixed-seed session must keep producing the same ledger file byte for
    # byte.  On mod41 the challenge space is all of Z_q, so every payload is
    # format 7's: `payloads` is the digest format 7 wrote, and only the
    # header's format, and with it the chain, moved
    path = tmp_path / "golden.ledger"
    code = run(
        ["aggregate", "--group", "test", "--parties", "3", "--dim", "2", "--seed", "11",
         "--check", check, "--bound", bound, "--ledger", str(path)]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == f"tally: {totals}\n"
    raw = path.read_bytes()
    assert (len(raw), hashlib.sha256(raw).hexdigest()) == (size, digest)
    assert _payloads_digest(path) == payloads


def test_golden_secp256k1_ledger_bytes(tmp_path, capsys):
    # the curve exponentiation must keep producing the same points
    path = tmp_path / "golden.ledger"
    code = run(
        ["aggregate", "--group", "prod", "--parties", "3", "--dim", "2", "--seed", "11",
         "--check", "l1", "--bound", "4", "--ledger", str(path)]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == "tally: 2,2\n"
    raw = path.read_bytes()
    assert (len(raw), hashlib.sha256(raw).hexdigest()) == (
        12582, "05f9fb31022de07009582b470878491236d136283c7fd1b6d1a8ffb6db43114b"
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
        13170, "5ab86e773a34dd8c8ef3eeb7e5f43cd93e562a3485da768db6d0a5a3dc548c42"
    )


def test_verify_names_a_bit_proof_whose_share_bytes_are_all_ones(tmp_path, capsys):
    # party 1's challenge share of slot 2, digit 0 rewritten as 16 bytes of
    # 0xff, re-chained: 2^128 - 1 is a share in [0, N), so the post decodes,
    # and its bit proof fails where the verifier names it
    group = groups.prod_group()
    source = tmp_path / "source.ledger"
    code = run(
        ["aggregate", "--group", "prod", "--parties", "3", "--dim", "3", "--seed", "5",
         "--check", "l1", "--bound", "4", "--ledger", str(source)]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    m, L, width = 3, 3, Share.width(group)
    E, S = group.element_bytes, group.scalar_bytes
    bit = 3 * E + width + 2 * S  # y, a0, a1, d0, r0, r1
    # the m slots' B, the m links, rows 0 and 1, then digit 0's y, a0 and a1
    at = m * E + m * (2 * E + S) + 2 * L * bit + 3 * E

    def edit(entry, entries):
        payload = entry.payload
        if (entry.round, entry.party) == (2, 1):
            assert width == 16 and len(payload) == m * E + m * (2 * E + S) + (m + 1) * L * bit
            payload = payload[:at] + b"\xff" * width + payload[at + width:]
        return [(entry.round, entry.party, payload)]

    path = _rechained(source, tmp_path / "ones.ledger", edit)
    led = Ledger.load(path)
    cfg = protocol.ProtocolConfig.from_header(led.header)
    post1 = protocol.Round1Post.from_bytes(group, _payload(led.entries, 1, 1), 1, m)
    post2 = protocol.Round2Post.from_bytes(
        group, _payload(led.entries, 2, 1), 1, cfg.policy, post1.elements
    )
    assert post2.bundle.element_digit_proofs[2][0].d0 == (1 << 128) - 1
    _assert_rejected(path, capsys, "contribution of party 1 rejected (bit): slot 2, digit 0")


@pytest.mark.parametrize(
    "check, bound, slot_fields",
    [
        ("l1", "4", ("links", "element_digit_proofs")),
        ("l2", "9", ("commitments", "links", "squares", "square_proofs")),
    ],
)
def test_verify_rejects_a_bundle_cut_to_one_slot(tmp_path, capsys, check, bound, slot_fields):
    # party 1's bundle is a one-slot bundle under two posted ciphertexts: in
    # memory it fails the shape check, and the header's m = 2 cannot read it
    group = groups.test_group()
    source = tmp_path / "source.ledger"
    code = run(
        ["aggregate", "--group", "test", "--parties", "3", "--dim", "2", "--seed", "11",
         "--check", check, "--bound", bound, "--ledger", str(source)]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    led = Ledger.load(str(source))
    cfg = protocol.ProtocolConfig.from_header(led.header)
    post = _decoded(cfg, led.entries, 2, 1)
    cut = {name: getattr(post.bundle, name)[:1] for name in slot_fields}
    post = dataclasses.replace(post, bundle=dataclasses.replace(post.bundle, **cut))
    pads = protocol.derive_pads(cfg, [_decoded(cfg, led.entries, 1, i) for i in range(3)], 1)
    assert protocol.verify_contribution(cfg, post, pads) == (False, "malformed")

    def edit(entry, entries):
        if (entry.round, entry.party) != (2, 1):
            return [(entry.round, entry.party, entry.payload)]
        return [(2, 1, post.to_bytes(group))]

    path = _rechained(source, tmp_path / "cut.ledger", edit)
    _assert_rejected(path, capsys, "round-2 entry seq 4 of party 1 malformed")


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
    path = _reheaded(golden, tmp_path / "wrap.ledger", policy_bound=int(WRAP_BOUND))
    _assert_rejected(path, capsys, "bad ledger header", "group order")


def _golden_l1_ledger(tmp_path, capsys):
    path = tmp_path / "golden.ledger"
    code = run(
        ["aggregate", "--group", "test", "--parties", "3", "--dim", "2", "--seed", "11",
         "--check", "l1", "--bound", "4", "--ledger", str(path)]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    return path


def test_verify_reads_a_header_m_of_2_32_as_a_malformed_post_at_once(tmp_path, capsys):
    # the header's m sizes every read, and no cap on m is left: party 0's
    # round-1 post, two slots long, fails to read item by item before
    # anything of size m is built
    path = _reheaded(_golden_l1_ledger(tmp_path, capsys), tmp_path / "wide.ledger", m=2**32)
    tracemalloc.start()
    try:
        _assert_rejected(path, capsys, "round-1 entry seq 0 of party 0 malformed")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("bound", [5, 3])
def test_the_header_bound_alone_sets_the_digit_count(tmp_path, capsys, bound):
    # no bundle posts its bound.  Under 5, as under 4, L = 3 and both enforce
    # 2^L - 1 = 7, so the ledger verifies with its true tally; under 3, L = 2
    # and party 0's bundle does not read
    golden = _golden_l1_ledger(tmp_path, capsys)
    path = _reheaded(golden, tmp_path / "bound.ledger", policy_bound=bound)
    if bound == 3:
        _assert_rejected(path, capsys, "round-2 entry seq 3 of party 0 malformed")
        return
    assert run(["verify", path]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:] == ["tally: 2,2"]


@pytest.mark.parametrize("party", [str(2**32), "9" * 5000], ids=["2^32", "5000-digits"])
def test_verify_reports_a_party_id_beyond_u32_as_a_malformed_line(tmp_path, capsys, party):
    # the entry hash covers the party id as a u32: 2^32 used to escape
    # verify_chain as struct.error, and 5000 digits int()'s digit limit as
    # ValueError (exit 1), instead of naming the broken line
    path = _golden_l1_ledger(tmp_path, capsys)
    lines = path.read_text().splitlines()
    fields = lines[3].split(" ")  # entry seq 2
    fields[1] = party
    lines[3] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert run(["verify", str(path)]) == EXIT_LEDGER
    assert capsys.readouterr().err == "ledger corrupt at seq 2: malformed entry line\n"


def test_aggregate_refuses_a_bound_beyond_u64(tmp_path, capsys):
    # this ended in struct.error from pack_u64
    code = run(
        ["aggregate", "--group", "prod", "--check", "l2", "--bound", str(2**64),
         "--parties", "2", "--dim", "1", "--ledger", str(tmp_path / "big.ledger")]
    )
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "u64" in captured.err


def test_aggregate_refuses_its_config_before_drawing_vectors(tmp_path, capsys, monkeypatch):
    # the session refuses its config before any vector is drawn: an l1 draw
    # of one rng.random() per unit of bound ran for minutes at 2^63 first
    def draw(*args):
        raise AssertionError("vectors drawn for a config the session refuses")

    monkeypatch.setattr(cli, "_random_vector", draw)
    code = run(
        ["aggregate", "--group", "prod", "--check", "l1", "--bound", str(2**63),
         "--parties", "2", "--dim", "1", "--ledger", str(tmp_path / "wide.ledger")]
    )
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "baby steps" in captured.err


@pytest.mark.parametrize("m", [1, 2, 5])
def test_random_l1_vector_is_drawn_in_order_m(m):
    # one rng.random() per unit of bound took 4.9 s at B = 10^7
    policy, rng = BoundPolicy.l1(10**7), random.Random(m)
    start = time.perf_counter()
    vectors = [cli._random_vector(policy, m, rng) for _ in range(50)]
    assert time.perf_counter() - start < 1
    for vec in vectors:
        assert len(vec) == m and min(vec) >= 0 and sum(vec) <= policy.B
    assert len({sum(vec) for vec in vectors}) > 1


@pytest.mark.parametrize("B, m", [(1, 2), (1, 4), (2, 8), (3, 16), (9, 2), (10**6, 5)])
def test_random_l2_vector_is_within_its_bound(B, m):
    policy, rng = BoundPolicy.l2(B), random.Random(m)
    for _ in range(50):
        vec = cli._random_vector(policy, m, rng)
        assert len(vec) == m and sum(t * t for t in vec) <= B * B, vec


def test_aggregate_random_l2_with_a_bound_below_the_root_of_the_dimension(tmp_path, capsys):
    # B * B < m: only the zero vector fits under every draw's per-entry cap
    ledger = str(tmp_path / "agg.ledger")
    code = run(["aggregate", "--check", "l2", "--bound", "1", "--dim", "4", "--parties", "2",
                "--ledger", ledger])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "tally: 0,0,0,0\n"
    assert run(["verify", ledger]) == EXIT_OK


def test_verify_rejects_a_header_bound_beyond_u64(tmp_path, capsys):
    golden = _golden_l1_ledger(tmp_path, capsys)
    path = _reheaded(golden, tmp_path / "big.ledger", policy_bound=2**64)
    _assert_rejected(path, capsys, "bad ledger header", "u64")


def test_verify_rejects_a_header_whose_tally_needs_unbounded_baby_steps(tmp_path, capsys):
    # an honest ledger under l1 bound 2^63 would pass verification, then
    # ask bsgs for ~6e9 baby steps; the header-only ledger exited 4
    # (MissingPost) after parsing it
    path = tmp_path / "wide.ledger"
    Ledger(LedgerHeader("secp256k1", bytes(16), 2, 1, "l1", 2**63), path=str(path))
    _assert_rejected(str(path), capsys, "bad ledger header", "baby steps")


def test_a_window_too_wide_for_bsgs_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # a policy-none window of 2^50 once asked _baby_table for 33,554,433 baby
    # steps, a table of several GB, after a whole session (aggregate) or
    # ledger check (verify); the config now refuses its bound first
    path = _reheaded(_none_ledger(tmp_path, capsys), tmp_path / "wide.ledger", policy_bound=2**50)

    def refuse(*args, **kwargs):
        raise AssertionError("work done for a window bsgs may not search")

    for name in ("run_session", "verify_ledger"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(dlog, "_baby_table", refuse)
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("1\n2\n")
    for source in (["--parties", "2", "--dim", "1"], ["--vectors", str(vectors)]):
        argv = ["aggregate", "--check", "none", "--bound", str(2**50), *source,
                "--ledger", str(tmp_path / "refused.ledger")]
        assert run(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds the group order" in captured.err, argv
    _assert_rejected(path, capsys, "bad ledger header", "exceeds the group order")


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
    for check in ("l1", "l2", "none"):
        assert run(["aggregate", "--check", check, "--ledger", str(tmp_path / "x")]) == EXIT_USAGE


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


def test_bench_refuses_to_time_a_rejected_contribution(tmp_path, capsys, monkeypatch):
    """A rejected contribution stops the benchmark with an error naming the
    reason, under python -O too, rather than being reported as verified."""
    monkeypatch.setattr(zorro.bench, "verify_contribution", lambda *args: (False, "bit"))
    out = tmp_path / "bench.csv"
    code = run(
        ["bench", "--check", "l1", "--dims", "1", "--bounds", "2", "--reps", "1",
         "--out", str(out)]
    )
    assert code == EXIT_USAGE
    assert "rejected (bit)" in capsys.readouterr().err
    assert not out.exists()


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
        (["vote", "FILE", "--bound", "1", "--ledger", "FILE"], "0,0\n0,0\n", "--bound"),
        (["vote", "FILE", "--bound", "0", "--ledger", "FILE"], "0,0\n0,0\n", "--bound"),
        (["vote", "FILE", "--bound", "4", "--ledger", "FILE"], "0 1\n1.5 0\n",
         "input:2: invalid literal for int() with base 10: '1.5'"),
        (["aggregate", "--vectors", "FILE", "--bound", "4", "--ledger", "FILE"],
         "# header\n\n1 0\n0 x\n", "input:4: invalid literal for int() with base 10: 'x'"),
        (["demo-regression", "--parties", "3", "--data", "FILE"], "1,2\n2,3\n3,y\n",
         "input:3: could not convert string to float: 'y'"),
    ],
    ids=[
        "lda-0", "id3-0", "nb-0", "regression-30", "regression-data", "id3-samples", "dim-0",
        "reps-0", "reps-negative", "vote-bound-1", "vote-bound-0", "vote-token",
        "vectors-token", "regression-token",
    ],
)
def test_bad_party_counts_are_usage_errors(tmp_path, capsys, argv, data, name):
    # the demo cases other than id3-samples escaped main as IndexError /
    # AttributeError tracebacks; --dim 0 said "empty range for randrange()"; a
    # token a row cannot read named neither its file nor its line
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
