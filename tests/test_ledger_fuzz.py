"""Property-based ledger fuzzer: mutated ledgers through `zorro verify`.

Fixed-seed mod41 sessions (n=3, m=2) under the l1 and none policies are
mutated by entry edits (bit flips, truncations, drops, duplicates, swaps,
party relabels, payloads spliced in from another seed's session) and header
field edits (n, m, bound, kind, group, session; some bounds let legal sums
wrap mod q).  Each mutated ledger is written either re-chained, with every
seq and hash recomputed as `Ledger.append` would (a second post of a party
included), or with each line keeping its old entry hash, so that a moved
line breaks the chain; raw byte flips are applied on top.  Whatever the bytes, `zorro verify` must exit 0, 2, 3 or
4 without raising, an exit-2 rejection must name a party unless the header
is at fault or the tally of a policy-none ledger fails (no proof binds its
contributions to a party), and an l1 ledger that passes must print the true
tally.
"""

import contextlib
import dataclasses
import io
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from zorro import groups
from zorro.cli import EXIT_DROPOUT, EXIT_LEDGER, EXIT_OK, EXIT_PROOF, main, run_session
from zorro.ledger import Ledger
from zorro.protocol import ProtocolConfig
from zorro.rangeproof import BoundPolicy

N, M = 3, 2
VECTORS = [[1, 0], [2, 1], [0, 3]]
TOTALS = ",".join(str(sum(col)) for col in zip(*VECTORS))
POLICIES = {"l1": BoundPolicy.l1(4), "none": BoundPolicy("none", 4)}


def _session(policy, seed):
    cfg = ProtocolConfig(groups.test_group(), N, M, policy, random.Random(seed).randbytes(16))
    ledger = Ledger(cfg.header())
    run_session(cfg, VECTORS, ledger, seed)
    return ledger


# per policy: the ledger that is mutated and one from another seed to splice from
LEDGERS = {name: (_session(policy, 1), _session(policy, 2)) for name, policy in POLICIES.items()}

# header field -> values it is edited to; on mod41 (q = 2^40 + 15) an l1 bound
# of 2^39 or 2^41 - 1 lets three legal contributions sum past q
HEADER_EDITS = [
    (field, value)
    for field, values in {
        "n": [0, 1, 2, 4],
        "m": [0, 1, 3],
        "policy_bound": [0, 1, 3, 5, 2**39, 2**41 - 1],
        "policy_kind": ["l1", "l2", "none", "l3"],
        "group_id": ["toy23", "secp256k1", "nope"],
        "session": [bytes(16), bytes(15)],
    }.items()
    for value in values
]


def _flip(entries, i, bit):
    payload = bytearray(entries[i].payload)
    if payload:
        payload[bit // 8 % len(payload)] ^= 1 << bit % 8
    entries[i] = dataclasses.replace(entries[i], payload=bytes(payload))


def _truncate(entries, i, keep):
    payload = entries[i].payload
    entries[i] = dataclasses.replace(entries[i], payload=payload[: keep % (len(payload) + 1)])


def _drop(entries, i, _):
    del entries[i]


def _duplicate(entries, i, _):
    entries.insert(i + 1, entries[i])


def _swap(entries, i, j):
    j %= len(entries)
    entries[i], entries[j] = entries[j], entries[i]


def _relabel(entries, i, party):
    # swap labels with the round's entry already filed under `party`, if any
    rnd, own = entries[i].round, entries[i].party
    for k, other in enumerate(entries):
        if (other.round, other.party) == (rnd, party):
            entries[k] = dataclasses.replace(other, party=own)
    entries[i] = dataclasses.replace(entries[i], party=party)


EDITS = {
    "flip": _flip, "truncate": _truncate, "drop": _drop, "duplicate": _duplicate,
    "swap": _swap, "relabel": _relabel,
}

mutations = st.one_of(
    st.tuples(st.sampled_from(sorted(EDITS)), st.integers(0, 2 * N - 1), st.integers(0, 1 << 16)),
    st.tuples(st.just("splice"), st.integers(0, 2 * N - 1), st.integers(0, 2 * N - 1)),
    st.tuples(st.just("header"), st.sampled_from(HEADER_EDITS), st.just(None)),
    st.tuples(st.just("raw"), st.integers(0, 1 << 16), st.integers(1, 255)),
)


def _write(path, header, entries, rechain):
    """Write a ledger file; with `rechain`, seq and hashes are recomputed as
    Ledger.append would, else every entry line keeps its own hash."""
    lines = [header.to_line()]
    prev = header.digest()
    for seq, entry in enumerate(entries):
        if rechain:
            entry = dataclasses.replace(entry, seq=seq, session=header.session)
            entry = dataclasses.replace(entry, entry_hash=entry.hash_after(prev))
            prev = entry.entry_hash
        lines.append(entry.to_line())
    path.write_text("".join(line + "\n" for line in lines))


def _mutated_file(path, name, edits, rechain=True):
    ledger, donor = LEDGERS[name]
    header, entries = ledger.header, list(ledger.entries)
    raw_flips = []
    for kind, a, b in edits:
        if kind == "raw":
            raw_flips.append((a, b))
        elif kind == "header":
            header = dataclasses.replace(header, **{a[0]: a[1]})
        elif entries:
            i = a % len(entries)
            if kind == "splice":
                payload = donor.entries[b % len(donor.entries)].payload
                entries[i] = dataclasses.replace(entries[i], payload=payload)
            else:
                EDITS[kind](entries, i, b % (N + 1) if kind == "relabel" else b)
    _write(path, header, entries, rechain)
    data = bytearray(path.read_bytes())
    for pos, mask in raw_flips:
        data[pos % len(data)] ^= mask
    path.write_bytes(bytes(data))
    return path


def _verify(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", sorted(LEDGERS))
def test_unmutated_ledgers_verify(workdir, name):
    ledger = LEDGERS[name][0]
    expected = "".join(line + "\n" for line in [ledger.header.to_line()] + [
        entry.to_line() for entry in ledger.entries
    ])
    for rechain in (True, False):
        path = _mutated_file(workdir / "clean.ledger", name, [], rechain)
        assert path.read_text() == expected
        code, out, _ = _verify(path)
        assert code == EXIT_OK
        assert out.splitlines()[-1] == f"tally: {TOTALS}"


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(sorted(LEDGERS)),
    edits=st.lists(mutations, min_size=1, max_size=3),
    rechain=st.booleans(),
)
def test_verify_survives_mutated_ledgers(workdir, name, edits, rechain):
    code, out, err = _verify(_mutated_file(workdir / "mutated.ledger", name, edits, rechain))
    assert code in (EXIT_OK, EXIT_PROOF, EXIT_LEDGER, EXIT_DROPOUT), err
    if code == EXIT_PROOF:
        none_tally = name == "none" and err.startswith("tally failed")
        assert re.search(r"party \d+", err) or "header" in err or none_tally, err
    if code == EXIT_OK and name == "l1":
        assert out.splitlines()[-1] == f"tally: {TOTALS}"
