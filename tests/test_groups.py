import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from zorro.errors import EntropyFailure, MalformedEncoding, NotInSubgroup
from zorro import groups

TOY = groups.toy_group()
MOD = groups.test_group()
CURVE = groups.prod_group()
ALL = [TOY, MOD, CURVE]


def toy_elements():
    return [TOY.g ** i for i in range(11)]


def test_toy_constants():
    assert TOY.q == 11
    assert TOY.p == 23
    assert TOY.g.value == 2


def test_exp_known_values():
    assert (TOY.g ** 5).value == 9  # 2^5 mod 23
    assert TOY.g ** 0 == TOY.identity
    assert TOY.g ** TOY.q == TOY.identity


def test_op_known_values():
    nine = TOY.g ** 5
    assert (nine * nine).value == 12  # 81 mod 23
    assert nine * TOY.identity == nine
    assert TOY.identity.inverse() == TOY.identity
    assert nine * nine.inverse() == TOY.identity


def test_group_laws_exhaustive_toy():
    elems = toy_elements()
    assert len(set(e.value for e in elems)) == 11
    for a, b, c in product(elems, elems, elems):
        assert (a * b) * c == a * (b * c)
    for a, b in product(elems, elems):
        assert a * b == b * a


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.group_id)
def test_exp_homomorphism(group):
    rng = random.Random(1)
    for _ in range(10):
        a, b = group.random_scalar(rng), group.random_scalar(rng)
        assert group.g ** ((a + b) % group.q) == group.g ** a * group.g ** b


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.group_id)
def test_encode_roundtrip(group):
    rng = random.Random(2)
    for e in (group.identity, group.g, group.gamma, group.g ** group.random_scalar(rng)):
        data = group.encode_element(e)
        assert len(data) == group.element_bytes
        assert group.decode_element(data) == e
    s = group.random_scalar(rng)
    data = group.encode_scalar(s)
    assert len(data) == group.scalar_bytes
    assert group.decode_scalar(data) == s


def test_encoding_bijective_on_toy():
    encodings = {TOY.encode_element(e) for e in toy_elements()}
    assert len(encodings) == 11


def test_decode_rejects_garbage():
    with pytest.raises(MalformedEncoding):
        TOY.decode_element(b"\x00\x00")  # wrong length
    with pytest.raises(NotInSubgroup):
        TOY.decode_element(bytes([5]))  # 5 is not a QR mod 23
    with pytest.raises(MalformedEncoding):
        TOY.decode_scalar(bytes([12]))  # >= q
    with pytest.raises(MalformedEncoding):
        CURVE.decode_element(b"\x05" + b"\x00" * 32)  # bad prefix
    with pytest.raises(MalformedEncoding):
        CURVE.decode_element(b"\x00" + b"\x01" * 32)  # nonzero identity tail
    with pytest.raises(NotInSubgroup):
        # x = 5 is not on secp256k1 (5^3 + 7 is not a square mod p)
        CURVE.decode_element(b"\x02" + (5).to_bytes(32, "big"))


def test_random_scalar_reproducible_and_in_range():
    a = [MOD.random_scalar(random.Random(99)) for _ in range(20)]
    b = [MOD.random_scalar(random.Random(99)) for _ in range(20)]
    assert a == b
    assert all(0 <= v < MOD.q for v in a)


def test_random_scalar_uniform_toy():
    # chi-square style check: each residue within 5 sigma of 10^4/11
    rng = random.Random(7)
    counts = [0] * 11
    for _ in range(10_000):
        counts[TOY.random_scalar(rng)] += 1
    mean = 10_000 / 11
    sigma = (10_000 * (1 / 11) * (10 / 11)) ** 0.5
    for c in counts:
        assert abs(c - mean) < 5 * sigma


def test_random_scalar_entropy_failure():
    with pytest.raises(EntropyFailure):
        MOD.random_scalar(None)
    with pytest.raises(EntropyFailure):
        MOD.random_scalar(object())


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.group_id)
def test_gamma_is_independent_generator(group):
    assert group.contains(group.gamma)
    assert group.gamma != group.identity
    assert group.gamma != group.g
    assert group.gamma ** group.q == group.identity
    # derivation is deterministic
    assert group.hash_to_group(b"zorro.gamma.v1|" + group.group_id.encode()) == group.gamma


def test_registry():
    assert groups.get_group("toy23") is TOY
    assert groups.get_group("mod41") is MOD
    assert groups.get_group("secp256k1") is CURVE
    with pytest.raises(KeyError):
        groups.get_group("nope")


def test_curve_point_algebra():
    rng = random.Random(5)
    a, b = CURVE.random_scalar(rng), CURVE.random_scalar(rng)
    P, Q = CURVE.g ** a, CURVE.g ** b
    assert P * Q == Q * P
    assert P / P == CURVE.identity
    assert P * CURVE.identity == P
    assert (P * Q) / Q == P


def test_elements_do_not_mix_groups():
    assert TOY.g != MOD.g
    assert groups.ModElement(TOY, 2) != groups.ModElement(MOD, 2)


# -- secp256k1 exponentiation against the affine oracle --------------------------


def affine_pow(P, e):
    """Affine double-and-add, the former CurvePoint.__pow__: the test oracle."""
    e %= P.group.q
    acc, add = P.group.identity, P
    while e:
        if e & 1:
            acc = acc * add
        add = add * add
        e >>= 1
    return acc


def to_affine(X, Y, Z):
    p = CURVE.p
    if Z % p == 0:
        return CURVE.identity
    zi = pow(Z, -1, p)
    return groups.CurvePoint(CURVE, X * zi * zi % p, Y * zi**3 % p)


HASHED = CURVE.hash_to_group(b"zorro.test.variable-base")
BASES = {"g": CURVE.g, "gamma": CURVE.gamma, "hashed": HASHED, "identity": CURVE.identity}
EDGE_SCALARS = [0, 1, 2, 15, 16, 17, CURVE.q - 1, CURVE.q, CURVE.q + 1, -1]


@pytest.mark.parametrize("name", BASES)
def test_curve_exp_matches_affine_oracle(name):
    base = BASES[name]
    rng = random.Random(41)
    for e in EDGE_SCALARS + [rng.getrandbits(256) for _ in range(6)]:
        assert base ** e == affine_pow(base, e), (name, e)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(e=st.integers(min_value=-(2**256), max_value=2**256), name=st.sampled_from(sorted(BASES)))
def test_curve_exp_matches_affine_oracle_on_drawn_scalars(e, name):
    assert BASES[name] ** e == affine_pow(BASES[name], e)


def test_curve_exp_is_affine_at_rest():
    P = HASHED ** 12345
    assert isinstance(P.x, int) and CURVE.contains(P)
    assert CURVE.decode_element(CURVE.encode_element(P)) == P
    assert hash(P) == hash(affine_pow(HASHED, 12345))
    # only the generators g and gamma get a table
    assert CURVE._fixed_base_table(HASHED) is None
    CURVE.g ** 3
    assert CURVE._fixed_base_table(CURVE.g) is CURVE._tables[CURVE.g.x, CURVE.g.y] is not None


def test_reading_gamma_builds_no_table():
    # a fresh instance: the registered one has built its tables already
    fresh = groups.CurveGroup("secp256k1", **groups._SECP256K1)
    assert fresh.gamma == CURVE.gamma
    assert fresh._tables == {(fresh.g.x, fresh.g.y): None, (fresh.gamma.x, fresh.gamma.y): None}
    fresh.multi_exp([(HASHED, 3)])
    assert set(fresh._tables.values()) == {None}
    fresh.gamma ** 5
    assert fresh._tables[fresh.g.x, fresh.g.y] is None
    assert fresh._tables[fresh.gamma.x, fresh.gamma.y] is not None


# -- the g table: GLV halves in signed radix-256 digits ---------------------------


def _halves(k):
    return CURVE._glv_split(k % CURVE.q)


def _rows(k):
    return len(groups._signed_digits(abs(k), 8))


def _g_table_scalars():
    """Scalars whose GLV halves reach every branch of the g-table loop."""
    q, lam = CURVE.q, CURVE.lam
    out = [0, 1, 2, q - 1, q - 2]
    # within 2^128 of 0 or q: one half, positive or negative
    out += [2**128 - 1, 2**127, 2**128 - 2**120, q - 2**128 + 1, q - 2**127, q - 12345]
    for i in (0, 1, 7, 14, 15):
        d128 = 128 << (8 * i)  # a digit of exactly +128 in row i; -128 from q - d128
        out += [d128, q - d128, d128 + (1 << (8 * i + 8)), d128 - 1, q - d128 - 1]
        out += [d128 * lam % q, -d128 * lam % q]  # the same digits in the lam half
    every_128 = sum(128 << (8 * i) for i in range(16))
    out += [every_128, q - every_128, every_128 * lam % q, -every_128 * lam % q]
    rng = random.Random(14)
    drawn = [rng.randrange(q) for _ in range(3000)]
    out.append(next(k for k in drawn if _rows(_halves(k)[0]) == 17))  # carry into row 16
    out.append(next(k for k in drawn if _rows(_halves(k)[1]) == 17))
    out += [k for k in drawn if all(h < 0 for h in _halves(k))][:3]  # both halves negative
    out += drawn[:6]
    return out


G_TABLE_SCALARS = _g_table_scalars()


def test_g_table_scalars_reach_every_branch():
    halves = [_halves(k) for k in G_TABLE_SCALARS]
    assert any(k1 and not k2 and k1 < 0 for k1, k2 in halves)  # single negative half
    assert any(k1 and not k2 and k1 > 0 for k1, k2 in halves)
    assert any(k1 < 0 and k2 < 0 for k1, k2 in halves)
    for side in (0, 1):
        assert any(_rows(h[side]) == groups._G_ROWS for h in halves)
        digits = [(h[side] > 0, groups._signed_digits(abs(h[side]), 8)) for h in halves]
        for positive in (True, False):  # +128 and, in a negative half, -128
            assert any(pos == positive and 128 in ds for pos, ds in digits), (side, positive)
    assert max(_rows(h) for pair in halves for h in pair) == groups._G_ROWS


@pytest.mark.parametrize("name", ["g", "gamma"])
def test_fixed_base_table_shape_and_reuse(name):
    P = BASES[name]
    table = CURVE._fixed_base_table(P)
    assert len(table) == groups._G_ROWS == 17
    assert all(len(row) == 128 for row in table)
    assert CURVE._fixed_base_table(P) is table
    P ** 12345
    assert CURVE._tables[P.x, P.y] is table
    for i, d in ((0, 1), (0, 128), (1, 1), (16, 77), (16, 128)):
        assert groups.CurvePoint(CURVE, *table[i][d - 1]) == affine_pow(P, d << (8 * i))


@pytest.mark.parametrize("name", ["g", "gamma"])
def test_fixed_base_table_is_every_multiple_the_oracle_builds(name):
    # row i holds d * 256^i * P for d = 1..128: the oracle adds 256^i * P each step
    base = BASES[name]
    for row in CURVE._fixed_base_table(base):
        multiple = CURVE.identity
        for entry in row:
            multiple = multiple * base
            assert groups.CurvePoint(CURVE, *entry) == multiple
        base = multiple * multiple  # 256 * 256^i * P


def test_g_and_gamma_alone_skip_the_variable_base_loop(monkeypatch):
    def loop(bases, scalars):
        raise AssertionError(f"variable-base loop run for {len(bases)} bases")

    monkeypatch.setattr(CURVE, "_buckets", loop)
    g, gamma = CURVE.g, CURVE.gamma
    assert g ** 12345 == affine_pow(g, 12345)
    assert gamma ** 12345 == affine_pow(gamma, 12345)
    pairs = [(g, 7), (CURVE.identity, 5), (HASHED, CURVE.q), (g, -2)]
    assert CURVE.multi_exp(pairs) == affine_pow(g, 5)
    assert CURVE.multi_exp([(g, 3), (g, -3)]) is CURVE.identity
    # a Pedersen commitment g^u * gamma^v, and gamma's terms summed before its table is read
    pedersen = [(gamma, 2**250 + 3), (g, CURVE.q - 9), (gamma, -3)]
    assert CURVE.multi_exp(pedersen) == affine_pow(g, -9) * affine_pow(gamma, 2**250)
    assert CURVE.multi_exp([(gamma, 4), (g, 2), (gamma, -4)]) == affine_pow(g, 2)


@pytest.mark.parametrize("k", G_TABLE_SCALARS[::4])
def test_gamma_pow_on_table_edge_scalars(k):
    assert CURVE.gamma ** k == affine_pow(CURVE.gamma, k)


@pytest.mark.parametrize("k", G_TABLE_SCALARS)
def test_g_pow_on_table_edge_scalars(k):
    assert CURVE.g ** k == affine_pow(CURVE.g, k)


A_HASHED = 2**200 + 12345
HASHED_POWER = affine_pow(HASHED, A_HASHED)


def test_g_multi_exp_on_table_edge_scalars():
    # g with one more variable base
    for k in G_TABLE_SCALARS:
        expected = affine_pow(CURVE.g, k) * HASHED_POWER
        assert CURVE.multi_exp([(CURVE.g, k), (HASHED, A_HASHED)]) == expected, k
        # two g terms sum before the table is read
        assert CURVE.multi_exp([(CURVE.g, k - 5), (HASHED, A_HASHED), (CURVE.g, 5)]) == expected


@pytest.mark.parametrize("count", [20, 70])
def test_g_merged_with_many_bases(count):
    # CURVE_MANY[j] = g ** (1000 + j), so the product is one power of g for the oracle
    q = CURVE.q
    rng = random.Random(count)
    for k in G_TABLE_SCALARS[::7]:
        es = [rng.randrange(q) for _ in range(count)]
        pairs = [(CURVE.g, k)] + list(zip(CURVE_MANY, es))
        total = k + sum((1000 + j) * e for j, e in enumerate(es))
        assert CURVE.multi_exp(pairs) == affine_pow(CURVE.g, total), k


def test_affine_sums_edge_branches():
    p, x, y = CURVE.p, HASHED.x, HASHED.y
    Q = CURVE.g ** 7
    lam_P = (CURVE.beta * x % p, y)  # lam * HASHED: another x, the same y
    left = [(x, y), (x, y), None, (x, y), None, (x, y), (x, y)]
    right = [(x, y), (x, p - y), (x, y), None, None, (Q.x, Q.y), lam_P]
    sums = [s and groups.CurvePoint(CURVE, *s) for s in groups._affine_sums(left, right, p)]
    assert sums == [
        HASHED * HASHED,  # P + P doubles
        None,  # P + (-P)
        HASHED, HASHED, None,  # the identity on either side, or both
        HASHED * Q,
        HASHED * groups.CurvePoint(CURVE, *lam_P),
    ]
    assert groups._affine_sums([], [], p) == []


def test_mixed_add_edge_branches():
    p, x, y = CURVE.p, HASHED.x, HASHED.y
    # HASHED in Jacobian form with Z = 5, so the inputs are not trivially equal
    X, Y, Z = x * 25 % p, y * 125 % p, 5
    assert to_affine(*groups._jmadd(X, Y, Z, x, y, p)) == HASHED * HASHED  # P + P doubles
    assert to_affine(*groups._jmadd(X, Y, Z, x, -y % p, p)) == CURVE.identity  # P + (-P)
    assert groups._jmadd(*groups._J_IDENTITY, x, y, p) == (x, y, 1)  # identity accumulator
    assert to_affine(*groups._jdouble(*groups._J_IDENTITY, p)) == CURVE.identity
    Q = CURVE.g ** 7
    assert to_affine(*groups._jmadd(X, Y, Z, Q.x, Q.y, p)) == HASHED * Q



# -- multi_exp against products of single powers ----------------------------------

P = HASHED
MULTI_CASES = {
    "empty": [],
    "identity bases": [(CURVE.identity, 5), (P, 7), (CURVE.identity, CURVE.q - 1)],
    "P with its inverse": [(P, 123456789), (P.inverse(), 123456789)],
    "repeated base": [(P, 3), (P, 2**200 + 1), (P, CURVE.q - 5)],
    "g mixed in": [(CURVE.g, 2**255 - 19), (P, 77), (CURVE.gamma, -3), (CURVE.g, 5)],
    "edge scalars": [
        (P, 0), (CURVE.gamma, 1), (CURVE.g, CURVE.q - 1), (P, CURVE.q), (CURVE.gamma, -1),
    ],
    "all zero": [(P, 0), (CURVE.g, CURVE.q), (CURVE.gamma, -CURVE.q)],
}


def curve_product(pairs):
    out = CURVE.identity
    for base, e in pairs:
        out = out * affine_pow(base, e)
    return out


def mod_product(group, pairs):
    out = group.identity
    for base, e in pairs:
        out = out * base ** e
    return out


@pytest.mark.parametrize("case", MULTI_CASES)
@pytest.mark.parametrize("batch", ["all windows", "one window"])
def test_curve_multi_exp_matches_affine_oracle(case, batch, monkeypatch):
    if batch == "one window":
        monkeypatch.setattr(groups, "_BUCKET_BATCH", 1)
    pairs = MULTI_CASES[case]
    result = CURVE.multi_exp(pairs)
    assert result == curve_product(pairs), case
    assert CURVE.contains(result)


def test_curve_multi_exp_returns_the_identity_object():
    assert CURVE.multi_exp([]) is CURVE.identity
    assert CURVE.multi_exp([(P, 9), (P.inverse(), 9)]) is CURVE.identity


@pytest.mark.parametrize("group", [TOY, MOD], ids=lambda g: g.group_id)
def test_mod_multi_exp_matches_product_of_powers(group):
    g, h = group.g, group.gamma
    for pairs in ([], [(g, 0)], [(g, 1), (h, group.q - 1)], [(g, group.q), (h, -1), (g, 5)],
                  [(h, 3), (h.inverse(), 3)], [(group.identity, 4), (g, 2)]):
        assert group.multi_exp(pairs) == mod_product(group, pairs), pairs


def test_mod_multi_exp_skips_zero_exponents(monkeypatch):
    # the curve rule too: a term whose exponent is 0 mod q costs nothing,
    # and a term at exponent 1 mod q is its base, with no **
    calls = []
    power = groups.ModElement.__pow__
    monkeypatch.setattr(groups.ModElement, "__pow__", lambda a, e: calls.append(e) or power(a, e))
    assert MOD.multi_exp([(MOD.g, 0), (MOD.gamma, MOD.q), (MOD.g, -MOD.q)]) is MOD.identity
    assert MOD.multi_exp([(MOD.gamma, 0), (MOD.g, 1)]) is MOD.g
    assert MOD.multi_exp([(MOD.g, MOD.q + 1), (MOD.gamma, 1)]) == MOD.g * MOD.gamma
    assert calls == []


CURVE_BASES = sorted(BASES)
CURVE_MANY = [CURVE.g ** (1000 + k) for k in range(80)]


def _lam(P):
    """lam * P, as the GLV endomorphism gives it: (beta * x, y)."""
    return groups.CurvePoint(CURVE, CURVE.beta * P.x % CURVE.p, P.y)


def _bucket_cases():
    """Terms (log of the base to g, base, exponent) over at least 32
    variable bases, each case reaching an edge of the affine bucket sums:
    equal x in one bucket, or a window with nothing left."""
    q, lam, rng = CURVE.q, CURVE.lam, random.Random(32)
    many = [(1000 + j, P) for j, P in enumerate(CURVE_MANY[:40])]
    cases = {}
    # one base twice at one exponent lands twice in each of its buckets: P + P
    cases["repeated bases"] = [(a, P, e) for a, P in many for e in [rng.randrange(q)] * 2]
    cases["repeated bases"] += [(a, P, rng.randrange(q)) for a, P in many[:8]]
    # P and -P at one exponent cancel in each bucket: P + (-P)
    cases["negations"] = [
        term for a, P in many for e in [rng.randrange(q)]
        for term in ((a, P, e), (-a, P.inverse(), e if a % 2 else rng.randrange(q)))
    ]
    # lam * P = (beta * x, y) at P's lam half k2 shares its buckets (P + P),
    # and at -k2 cancels it (P + (-P))
    cases["lam halves"] = []
    for a, P in many:
        e = rng.randrange(q)
        k2 = CURVE._glv_split(e)[1]
        cases["lam halves"] += [(a, P, e), (a * lam, _lam(P), k2 if a % 2 else -k2)]
    cases["identity bases"] = [(a, P, rng.randrange(q)) for a, P in many]
    cases["identity bases"] += [(0, CURVE.identity, e) for e in (1, 5, q - 1, 2**200)]
    # every window's buckets cancel: the identity
    cases["all windows cancel"] = [
        term for a, P in many for e in [rng.randrange(q)]
        for term in ((a, P, e), (-a, P.inverse(), e))
    ]
    # exponents below 2^128 are one half each; equal low 64 bits cancel the
    # low windows, and exponents below 2^16 leave the high windows to pairs
    # that cancel
    cases["low windows cancel"] = [
        term for a, P in many for e in [rng.getrandbits(120)]
        for term in ((a, P, e), (-a, P.inverse(), e + (rng.getrandbits(50) << 64)))
    ]
    cases["high windows cancel"] = [(a, P, rng.getrandbits(16)) for a, P in many[:20]] + [
        term for a, P in many[20:] for e in [rng.getrandbits(128)]
        for term in ((a, P, e), (-a, P.inverse(), e))
    ]
    return cases


BUCKET_CASES = _bucket_cases()


@pytest.mark.parametrize("case", BUCKET_CASES)
@pytest.mark.parametrize("batch", ["all windows", "one window"])
def test_curve_multi_exp_on_bucket_edges_matches_affine_oracle(case, batch, monkeypatch):
    if batch == "one window":
        monkeypatch.setattr(groups, "_BUCKET_BATCH", 1)
    terms, q = BUCKET_CASES[case], CURVE.q
    pairs = [(P, e) for _, P, e in terms]
    assert len({P for P, e in pairs if e % q and not P.is_identity}) >= 32
    expected = affine_pow(CURVE.g, sum(a * e for a, _, e in terms))
    assert CURVE.multi_exp(pairs) == expected, case
    if case == "all windows cancel":
        assert CURVE.multi_exp(pairs) is CURVE.identity


# the window width each case is summed at, and the edges it reaches there
BUCKET_EDGES = {
    "repeated bases": (6, {"P + P"}),
    "negations": (6, {"P + (-P)"}),
    "lam halves": (5, {"P + P", "P + (-P)"}),
    "identity bases": (5, set()),  # the identity terms make no point
    "all windows cancel": (6, {"P + (-P)", "every window empty"}),
    "low windows cancel": (5, {"P + (-P)", "low windows empty"}),
    "high windows cancel": (5, {"P + (-P)", "high windows empty"}),
}


@pytest.mark.parametrize("case", BUCKET_CASES)
def test_each_bucket_case_reaches_its_edges_at_its_width(case, monkeypatch):
    # _bucket_width picks each case's width; the bucket sums (inside
    # _sum_pairwise) add a pair of equal x, and the window totals (the last
    # _affine_sums) leave windows empty, as the case is built to make them
    terms, q = BUCKET_CASES[case], CURVE.q
    width, affine_sums, sum_pairwise = groups._bucket_width, groups._affine_sums, groups._sum_pairwise
    widths, bucket_pairs, outputs, inside = [], [], [], []

    def recording_width(points, bits):
        widths.append((points, width(points, bits)))
        return widths[-1][1]

    def recording_sums(left, right, p):
        if inside:
            bucket_pairs.extend((P, Q) for P, Q in zip(left, right) if P and Q)
        outputs.append(affine_sums(left, right, p))
        return outputs[-1]

    def marked(lists, p):
        inside.append(True)
        sum_pairwise(lists, p)
        inside.pop()

    monkeypatch.setattr(groups, "_bucket_width", recording_width)
    monkeypatch.setattr(groups, "_affine_sums", recording_sums)
    monkeypatch.setattr(groups, "_sum_pairwise", marked)
    CURVE.multi_exp([(P, e) for _, P, e in terms])
    halves = sum(
        1 for _, P, e in terms if e % q and not P.is_identity
        for k in CURVE._glv_split(e % q) if k
    )
    empty = [total is None for total in outputs[-1]]
    edges = {
        "P + P": any(P == Q for P, Q in bucket_pairs),
        "P + (-P)": any(P[0] == Q[0] and P[1] != Q[1] for P, Q in bucket_pairs),
        "every window empty": all(empty),
        "low windows empty": empty[0] and not all(empty),
        "high windows empty": empty[-1] and not all(empty),
    }
    expected_width, expected_edges = BUCKET_EDGES[case]
    assert widths == [(halves, expected_width)]
    assert {edge for edge, reached in edges.items() if reached} >= expected_edges


def test_bucket_width_follows_its_cost_model():
    # (points + 2^c) * ceil(bits / c): one base keeps 2-bit windows, each
    # party's 27-point round-1 fold takes 4 and the 279-point vote ledger
    # fold 6
    assert [groups._bucket_width(n, 128) for n in (1, 2, 27, 279)] == [2, 2, 4, 6]
    assert [groups._bucket_width(n, 129) for n in (1, 2, 27, 279)] == [2, 2, 4, 6]


# -- Pedersen commitments in lockstep ---------------------------------------------


def _lift_batches(group):
    """Batches of (u, v) pairs for group.lift, each an edge of the lockstep
    walk: empty, the identity, one base alone, exponents outside [0, q),
    30 drawn pairs, and a batch longer than one party's 45 l1 lifts."""
    q, rng = group.q, random.Random(33)
    drawn = [(group.random_scalar(rng), group.random_scalar(rng)) for _ in range(30)]
    return {
        "empty": [],
        "identity": [(0, 0), (q, -q)],
        "one base": [(5, 0), (0, 7), (q - 1, 0), (0, q - 1), (1, 0), (0, 1)],
        "outside [0, q)": [(q + 3, 2 * q - 1), (-1, -2), (-(2**300) - 5, 2**300), (q, 9)],
        "drawn": drawn,
        "longer than 45": drawn + [(-u, v) for u, v in drawn] + [(0, 0)] * 3,
    }


@pytest.mark.parametrize("group", ALL, ids=lambda g: g.group_id)
def test_lift_matches_multi_exp_pair_by_pair(group):
    for name, pairs in _lift_batches(group).items():
        expected = [group.multi_exp(((group.g, u), (group.gamma, v))) for u, v in pairs]
        assert group.lift(pairs) == expected, name


def test_curve_lift_matches_the_affine_oracle():
    # independent of multi_exp: g^u * gamma^v from repeated affine additions
    rng = random.Random(34)
    pairs = [(rng.getrandbits(24), rng.getrandbits(24)) for _ in range(3)]
    pairs += [(0, 0), (CURVE.q - 1, 1)]
    lifted = CURVE.lift(pairs)
    assert lifted[3] is CURVE.identity
    for (u, v), point in zip(pairs, lifted):
        assert point == affine_pow(CURVE.g, u) * affine_pow(CURVE.gamma, v), (u, v)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.sampled_from(CURVE_BASES), st.booleans(),
                  st.integers(min_value=-(2**256), max_value=2**256)),
        min_size=1, max_size=4,
    )
)
def test_curve_multi_exp_matches_affine_oracle_on_drawn_terms(terms):
    pairs = [(BASES[name].inverse() if neg else BASES[name], e) for name, neg, e in terms]
    assert CURVE.multi_exp(pairs) == curve_product(pairs)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    group=st.sampled_from([TOY, MOD]),
    terms=st.lists(st.tuples(st.integers(0, 2**41), st.integers(-(2**42), 2**42)), max_size=4),
)
def test_mod_multi_exp_matches_product_of_powers_on_drawn_terms(group, terms):
    pairs = [(group.g ** k, e) for k, e in terms]
    assert group.multi_exp(pairs) == mod_product(group, pairs)


# -- GLV split and signed digits ------------------------------------------------------

SPLIT_SCALARS = [0, 1, 2, CURVE.q - 1, CURVE.q - 2, CURVE.lam, CURVE.q - CURVE.lam,
                 2**128, 2**128 - 1, CURVE.q >> 1, (CURVE.q >> 1) + 1]


def test_glv_constants():
    p, q, beta, lam = CURVE.p, CURVE.q, CURVE.beta, CURVE.lam
    assert pow(beta, 3, p) == 1 != beta
    assert pow(lam, 3, q) == 1 != lam
    for pt in (CURVE.g, HASHED):
        assert affine_pow(pt, lam) == groups.CurvePoint(CURVE, beta * pt.x % p, pt.y)


def _check_split(k):
    k1, k2 = CURVE._glv_split(k)
    assert (k1 + k2 * CURVE.lam - k) % CURVE.q == 0, k
    assert abs(k1) < 2**129 and abs(k2) < 2**129, (k, k1, k2)


def test_glv_split_on_edge_scalars():
    for k in SPLIT_SCALARS:
        _check_split(k)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(k=st.integers(min_value=0, max_value=CURVE.q - 1))
def test_glv_split_on_drawn_scalars(k):
    _check_split(k)


@pytest.mark.parametrize("c", [2, 3, 4, 5, 7])
def test_signed_digits(c):
    rng = random.Random(c)
    for k in [0, 1, (1 << c) - 1, 1 << (c - 1), (1 << (c - 1)) + 1, CURVE.q - 1]:
        _check_signed_digits(k, c)
    for _ in range(50):
        _check_signed_digits(rng.getrandbits(130), c)


def _check_signed_digits(k, c):
    digits = groups._signed_digits(k, c)
    assert sum(d << (c * i) for i, d in enumerate(digits)) == k
    assert all(-(1 << (c - 1)) < d <= 1 << (c - 1) for d in digits), digits
    assert not digits or digits[-1] != 0
