"""Exponential ElGamal: messages live in the exponent so ciphertexts add.

A ciphertext for m under a pad h is (g^r, g^m * h^r).  No party holds a
key: a slot's pad is a quotient of the other parties' round-1 elements
(protocol.derive_pads), whose discrete log no single party knows, and the
pads cancel in the product of every party's g^m * h^r (protocol.tally).
Recovering m is a small discrete log (see zorro.dlog).  Randomness is
always supplied by the caller, never drawn internally: the aggregation
protocol needs exact control of it (round-1 secrets are reused as
encryption randomness).
"""

from dataclasses import dataclass

from .encoding import Record


@dataclass(frozen=True)
class Ciphertext(Record):
    A: object
    B: object


def encrypt_exp(group, m: int, r: int, h) -> Ciphertext:
    """Encrypt m in the exponent of the group generator under the pad h:
    (g^r, g^m * h^r).

    Negative m is represented as q + m, so decryption over a symmetric
    window recovers the signed value.
    """
    return Ciphertext(group.g ** r, group.multi_exp(((group.g, m), (h, r))))
