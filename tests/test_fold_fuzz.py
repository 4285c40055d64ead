"""Fold-versus-sequential differential fuzzer on secp256k1.

Two pinned secp256k1 ledgers (n = 2, m = 2), one under l1 and one under l2,
are mutated one field at a time: a post is decoded, one scalar, point or
pair of proofs or ciphertexts in it is changed, and the post is re-encoded
and the ledger re-chained.  A scalar moves by +-1 or takes a value from
another post, modulo what its field holds: q, or N = 2^128 for a bit
proof's challenge share d0, so that every mutant encodes; a point becomes
another valid point of the ledger, its negation or the identity; two
proofs of one type, or two ciphertexts, in the post swap places.  `zorro verify`
must then print and exit the same with the fold on as with sigma.folds
forced off, and a ledger it accepts must print the true tally.

Only posted fields are mutated.  A round-2 ciphertext's A is its party's
round-1 element, a bit proof's d1 is c - d0 mod N, an L1 slot's E*[T_j] is
the recomposition of its digit row, and the A of an L2 slot's E*[T_j] is
ct_j.A (an L2 bundle holds only its B): mutating a round-1 element, a d0
or a digit-row point is the only way to change them.  A post's party is
its entry's, and the header gives the policy: neither is posted.
"""

import contextlib
import dataclasses
import io

import pytest
from hypothesis import given, settings, strategies as st

from zorro import groups, protocol, sigma
from zorro.cli import EXIT_OK, main, run_session
from zorro.elgamal import Ciphertext
from zorro.encoding import Share
from zorro.groups import CurvePoint
from zorro.ledger import Ledger
from zorro.protocol import ProtocolConfig, Round1Post, Round2Post
from zorro.rangeproof import BoundPolicy
from zorro.sigma import BitProof, DhTupleProof, DlogProof, SquareProof

CURVE = groups.prod_group()
VECTORS = {"l1": [[1, 2], [2, 0]], "l2": [[1, -1], [0, 1]]}
POLICIES = {"l1": BoundPolicy.l1(3), "l2": BoundPolicy.l2(2)}
SWAPPED = (DlogProof, DhTupleProof, BitProof, SquareProof, Ciphertext)
EXAMPLES = 48


def _session(name):
    session = bytes(range(40, 56))
    cfg = ProtocolConfig(CURVE, 2, 2, POLICIES[name], session)
    ledger = Ledger(cfg.header())
    totals = run_session(cfg, VECTORS[name], ledger, 17)
    return ledger, totals


LEDGERS = {name: _session(name) for name in VECTORS}


def _decode(ledger):
    """Every post of `ledger` in seq order, as its header reads it, each
    round-2 post over its party's round-1 elements."""
    cfg = ProtocolConfig.from_header(ledger.header)
    posts, elements = [], {}
    for entry in ledger.entries:
        if entry.round == 1:
            post = Round1Post.from_bytes(CURVE, entry.payload, entry.party, cfg.m)
            elements[entry.party] = post.elements
        else:
            post = Round2Post.from_bytes(
                CURVE, entry.payload, entry.party, cfg.policy, elements[entry.party]
            )
        posts.append(post)
    return posts


def _leaves(value, path=()):
    """(path, leaf) for every posted scalar, point, proof and ciphertext
    below a post, each proof or ciphertext before what it holds; `party`
    and a round-2 ciphertext's A are not posted."""
    if isinstance(value, SWAPPED):
        yield path, value
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            if field.name == "party" or (path[:1] == ("cts",) and field.name == "A"):
                continue
            yield from _leaves(getattr(value, field.name), (*path, field.name))
    elif isinstance(value, tuple):
        for k, item in enumerate(value):
            yield from _leaves(item, (*path, k))
    elif isinstance(value, (int, CurvePoint)):
        yield path, value


def _replace(value, path, new):
    """`value` with the leaf at `path` replaced by `new`."""
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(value, tuple):
        return (*value[:key], _replace(value[key], rest, new), *value[key + 1:])
    return dataclasses.replace(value, **{key: _replace(getattr(value, key), rest, new)})


def _of(leaves, kind):
    return [(path, leaf) for path, leaf in leaves if isinstance(leaf, kind)]


def _modulus(post, path) -> int:
    """What the scalar field at `path` holds values modulo: N for a field of
    kind Share (a bit proof's d0), else q."""
    *parents, name = path
    record = post
    for key in parents:
        record = record[key] if isinstance(record, tuple) else getattr(record, key)
    kinds = {f.name: f.type for f in dataclasses.fields(record)}
    return CURVE.challenge_space if kinds[name] is Share else CURVE.q


def _mutated(post, donors, kind, a, b):
    """`post` with one field changed by `kind`, or None when it has no such field.

    a picks the field, b the donor value or the other swapped item."""
    leaves = list(_leaves(post))
    if kind == "swap":
        items = _of(leaves, SWAPPED)
        path, first = items[a % len(items)]
        same = [(p, leaf) for p, leaf in items if type(leaf) is type(first) and p != path]
        if not same:
            return None
        other_path, second = same[b % len(same)]
        return _replace(_replace(post, path, second), other_path, first)
    if kind.startswith("scalar"):
        scalars = _of(leaves, int)
        path, s = scalars[a % len(scalars)]
        modulus = _modulus(post, path)
        if kind == "scalar+1":
            return _replace(post, path, (s + 1) % modulus)
        if kind == "scalar-1":
            return _replace(post, path, (s - 1) % modulus)
        pool = [leaf for d in donors for _, leaf in _of(_leaves(d), int)]
        return _replace(post, path, pool[b % len(pool)] % modulus)
    points = _of(leaves, CurvePoint)
    path, point = points[a % len(points)]
    if kind == "point-negated":
        return _replace(post, path, point.inverse())
    if kind == "point-identity":
        return _replace(post, path, CURVE.identity)
    pool = [leaf for d in (post, *donors) for _, leaf in _of(_leaves(d), CurvePoint)]
    return _replace(post, path, pool[b % len(pool)])


KINDS = (
    "scalar+1", "scalar-1", "scalar-from-post", "point-from-ledger", "point-negated",
    "point-identity", "swap",
)


def _verify(path, fold):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if not fold:
            patch = stack.enter_context(pytest.MonkeyPatch.context())
            for module in (sigma, protocol):
                patch.setattr(module, "folds", lambda group: False)
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main(["verify", str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fold-fuzz")


@pytest.mark.parametrize("name", sorted(LEDGERS))
def test_pinned_ledgers_verify_with_and_without_the_fold(workdir, name):
    ledger, totals = LEDGERS[name]
    path = workdir / f"{name}.ledger"
    _write(path, ledger, {})
    expected = (EXIT_OK, f"tally: {','.join(map(str, totals))}")
    for fold in (True, False):
        code, out, _ = _verify(path, fold)
        assert (code, out.splitlines()[-1]) == expected


def _write(path, ledger, payloads):
    """The ledger re-chained into `path`, with entry seq -> payload replaced."""
    rewritten = Ledger(ledger.header, path=str(path))
    for entry in ledger.entries:
        rewritten.append(entry.round, entry.party, payloads.get(entry.seq, entry.payload))


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(sorted(LEDGERS)),
    seq=st.integers(0, 3),
    kind=st.sampled_from(KINDS),
    a=st.integers(0, 1 << 16),
    b=st.integers(0, 1 << 16),
)
def test_fold_and_sequential_verdicts_agree(workdir, name, seq, kind, a, b):
    ledger, totals = LEDGERS[name]
    posts = _decode(ledger)
    donors = [p for k, p in enumerate(posts) if k != seq]
    post = _mutated(posts[seq], donors, kind, a, b)
    if post is None:
        return
    path = workdir / "mutated.ledger"
    _write(path, ledger, {seq: post.to_bytes(CURVE)})
    folded = _verify(path, fold=True)
    assert _verify(path, fold=False) == folded
    if folded[0] == EXIT_OK:
        assert folded[1].splitlines()[-1] == f"tally: {','.join(map(str, totals))}"
