"""Exponential ElGamal: messages live in the exponent so ciphertexts add.

A ciphertext for m under public key pk is (g^r, g^m * pk^r).  Multiplying
ciphertexts adds plaintexts; recovering m after decryption is a small
discrete log (see zorro.dlog).  Randomness is always supplied by the
caller, never drawn internally: the aggregation protocol needs exact
control of it (round-1 secrets are reused, digit randomness must recompose
to that of the ciphertexts the digits spell).
"""

from dataclasses import dataclass

from .encoding import Record
from .errors import KeyMismatch


@dataclass(frozen=True)
class Keypair:
    """Long-term key: pk = g^sk.

    The constructor refuses a pair that breaks pk = g^sk with KeyMismatch, so
    provers holding a Keypair may compute under pk from sk's discrete log;
    the invariant is checked once per key, never once per proof.
    """

    sk: int
    pk: object

    def __post_init__(self):
        if self.pk != self.pk.group.g ** self.sk:
            raise KeyMismatch("public key is not g ** sk")

    @classmethod
    def generate(cls, group, rng):
        sk = group.random_scalar(rng)
        return cls(sk, group.g ** sk)


@dataclass(frozen=True)
class Ciphertext(Record):
    A: object
    B: object


def encrypt_exp(group, m: int, r: int, pk) -> Ciphertext:
    """Encrypt m in the exponent of the group generator: (g^r, g^m * pk^r).

    Negative m is represented as q + m, so decryption over a symmetric
    window recovers the signed value.
    """
    return Ciphertext(group.g ** r, group.multi_exp(((group.g, m), (pk, r))))


def hom_mul(c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    """Component-wise product; plaintexts add."""
    return Ciphertext(c1.A * c2.A, c1.B * c2.B)
