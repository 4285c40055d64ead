"""Property-based ledger fuzzer: mutated ledgers through `zorro verify`.

Fixed-seed mod41 sessions (n=3, m=2) under the l1 and none policies are
mutated by re-chained edits (bit flips, truncations, entry drops, party
relabels, payloads spliced in from another seed's session) and by raw byte
flips that break the chain.  Whatever the bytes, `zorro verify` must exit
0, 2, 3 or 4 without raising, an exit-2 rejection must name a party unless
the header is at fault, and an l1 ledger that passes must print the true
tally.
"""

import contextlib
import io
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from zorro import groups
from zorro.cli import EXIT_DROPOUT, EXIT_LEDGER, EXIT_OK, EXIT_PROOF, main, run_session
from zorro.dlog import DlogWindow
from zorro.ledger import Ledger
from zorro.protocol import ProtocolConfig
from zorro.rangeproof import BoundPolicy

N, M = 3, 2
VECTORS = [[1, 0], [2, 1], [0, 3]]
TOTALS = ",".join(str(sum(col)) for col in zip(*VECTORS))
POLICIES = {"l1": BoundPolicy.l1(4), "none": BoundPolicy.none()}


def _session(policy, seed):
    cfg = ProtocolConfig(groups.test_group(), N, M, policy, random.Random(seed).randbytes(16))
    ledger = Ledger(cfg.header())
    run_session(cfg, VECTORS, ledger, seed, window=DlogWindow(0, 12))
    return ledger


# per policy: the ledger that is mutated and one from another seed to splice from
LEDGERS = {name: (_session(policy, 1), _session(policy, 2)) for name, policy in POLICIES.items()}


def _posts(ledger):
    return [[e.round, e.party, e.payload] for e in ledger.entries]


def _flip(posts, i, bit):
    payload = bytearray(posts[i][2])
    if payload:
        payload[bit // 8 % len(payload)] ^= 1 << bit % 8
    posts[i][2] = bytes(payload)


def _truncate(posts, i, keep):
    posts[i][2] = posts[i][2][: keep % (len(posts[i][2]) + 1)]


def _drop(posts, i, _):
    del posts[i]


def _relabel(posts, i, party):
    # swap labels with the round's entry already filed under `party`, if any,
    # so that Ledger.append sees no second post
    rnd = posts[i][0]
    for other in posts:
        if other[:2] == [rnd, party]:
            other[1] = posts[i][1]
    posts[i][1] = party


def _splice(posts, i, j, donor):
    posts[i][2] = donor.entries[j % len(donor.entries)].payload


EDITS = {"flip": _flip, "truncate": _truncate, "drop": _drop, "relabel": _relabel}

mutations = st.one_of(
    st.tuples(st.sampled_from(sorted(EDITS)), st.integers(0, 2 * N - 1), st.integers(0, 1 << 16)),
    st.tuples(st.just("splice"), st.integers(0, 2 * N - 1), st.integers(0, 2 * N - 1)),
    st.tuples(st.just("raw"), st.integers(0, 1 << 16), st.integers(1, 255)),
)


def _mutated_file(path, name, edits):
    ledger, donor = LEDGERS[name]
    posts = _posts(ledger)
    raw_flips = []
    for kind, a, b in edits:
        if kind == "raw":
            raw_flips.append((a, b))
        elif posts:
            i = a % len(posts)
            if kind == "splice":
                _splice(posts, i, b, donor)
            else:
                EDITS[kind](posts, i, b % (N + 1) if kind == "relabel" else b)
    copy = Ledger(ledger.header, path=str(path))
    for post in posts:
        copy.append(*post)
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
    code, out, _ = _verify(_mutated_file(workdir / "clean.ledger", name, []))
    assert code == EXIT_OK
    assert (f"tally: {TOTALS}" in out) == (name == "l1")


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(LEDGERS)), edits=st.lists(mutations, min_size=1, max_size=3))
def test_verify_survives_mutated_ledgers(workdir, name, edits):
    code, out, err = _verify(_mutated_file(workdir / "mutated.ledger", name, edits))
    assert code in (EXIT_OK, EXIT_PROOF, EXIT_LEDGER, EXIT_DROPOUT), err
    if code == EXIT_PROOF:
        assert re.search(r"party \d+", err) or "header" in err, err
    if code == EXIT_OK and name == "l1":
        assert out.splitlines()[-1] == f"tally: {TOTALS}"
