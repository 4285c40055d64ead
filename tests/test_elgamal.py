import random

from zorro.dlog import DlogWindow, bsgs
from zorro.elgamal import Ciphertext, encrypt_exp, hom_mul
from zorro.encoding import Reader
from zorro import groups

TOY = groups.toy_group()
MOD = groups.test_group()


def decrypt_point(c: Ciphertext, sk: int):
    """Test oracle: strip the pad with the secret key, giving g^m = B / A^sk."""
    return c.B / c.A ** sk


def component_pow(c: Ciphertext, k: int) -> Ciphertext:
    """Component-wise power: the plaintext scales by k."""
    return Ciphertext(c.A ** k, c.B ** k)


def keys(group, rng):
    """A key pair (sk, pk = g^sk) for the decryption oracle."""
    sk = group.random_scalar(rng)
    return sk, group.g ** sk


def toy_dlog(element):
    # brute-force oracle over the 11-element group
    for m in range(11):
        if TOY.g ** m == element:
            return m
    raise AssertionError("not a group element")


def test_encrypt_known_vector():
    # sk = 3, pk = 2^3 = 8: E[1] with r=2 is (2^2, 2 * 8^2 mod 23) = (4, 13)
    pk = TOY.g ** 3
    ct = encrypt_exp(TOY, 1, 2, pk)
    assert (ct.A.value, ct.B.value) == (4, 13)
    assert decrypt_point(ct, 3) == TOY.g  # 13 * (4^3)^-1 mod 23 = 2


def test_encrypt_zero_zero():
    pk = TOY.g ** 5
    ct = encrypt_exp(TOY, 0, 0, pk)
    assert ct.A == TOY.identity and ct.B == TOY.identity


def test_decrypt_of_zero_is_identity():
    rng = random.Random(2)
    sk, pk = keys(MOD, rng)
    ct = encrypt_exp(MOD, 0, MOD.random_scalar(rng), pk)
    assert decrypt_point(ct, sk) == MOD.identity


def test_negative_message_roundtrip():
    rng = random.Random(3)
    sk, pk = keys(MOD, rng)
    ct = encrypt_exp(MOD, -1, MOD.random_scalar(rng), pk)
    point = decrypt_point(ct, sk)
    assert bsgs(MOD, point, DlogWindow(-5, 5)) == -1


def test_homomorphic_addition():
    rng = random.Random(4)
    sk, pk = keys(TOY, rng)
    e1 = encrypt_exp(TOY, 1, TOY.random_scalar(rng), pk)
    e2 = encrypt_exp(TOY, 1, TOY.random_scalar(rng), pk)
    assert toy_dlog(decrypt_point(hom_mul(e1, e2), sk)) == 2
    assert toy_dlog(decrypt_point(component_pow(e1, 4), sk)) == 4
    assert component_pow(e1, 0) == Ciphertext(TOY.identity, TOY.identity)


def test_homomorphism_randomized():
    rng = random.Random(5)
    sk, pk = keys(MOD, rng)
    window = DlogWindow(-64, 64)
    for _ in range(25):
        a, b = rng.randrange(-16, 17), rng.randrange(-16, 17)
        ca = encrypt_exp(MOD, a, MOD.random_scalar(rng), pk)
        cb = encrypt_exp(MOD, b, MOD.random_scalar(rng), pk)
        got = bsgs(MOD, decrypt_point(hom_mul(ca, cb), sk), window)
        assert got == a + b
        k = rng.randrange(0, 4)
        assert bsgs(MOD, decrypt_point(component_pow(ca, k), sk), window) == k * a


def test_rerandomization_neutral():
    rng = random.Random(6)
    sk, pk = keys(MOD, rng)
    ct = encrypt_exp(MOD, 7, MOD.random_scalar(rng), pk)
    refreshed = hom_mul(ct, encrypt_exp(MOD, 0, MOD.random_scalar(rng), pk))
    assert refreshed != ct
    assert decrypt_point(refreshed, sk) == decrypt_point(ct, sk)


def test_ciphertext_serialization():
    rng = random.Random(8)
    sk, pk = keys(MOD, rng)
    ct = encrypt_exp(MOD, 3, MOD.random_scalar(rng), pk)
    reader = Reader(ct.to_bytes(MOD))
    assert Ciphertext.read_from(MOD, reader) == ct
    reader.expect_end()

