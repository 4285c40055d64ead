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
    # only the generator g gets a table
    assert CURVE._fixed_base_table(HASHED) is None
    assert CURVE._fixed_base_table(CURVE.gamma) is None
    CURVE.g ** 3
    assert CURVE._fixed_base_table(CURVE.g) is CURVE._g_table is not None


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

