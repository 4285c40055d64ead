"""Exponential ElGamal: messages live in the exponent so ciphertexts add.

A ciphertext for m under public key pk is (g^r, g^m * pk^r).  Multiplying
ciphertexts adds plaintexts; recovering m after decryption is a small
discrete log (see zorro.dlog).  Randomness is always supplied by the
caller, never drawn internally: the aggregation protocol needs exact
control of it (round-1 secrets are reused as encryption randomness).
"""

from dataclasses import dataclass

from .encoding import Record


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
