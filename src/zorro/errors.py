"""Exception types shared across the package."""


class ZorroError(Exception):
    """Base class for all errors raised by this package."""


class MalformedEncoding(ZorroError):
    """Byte string cannot be parsed as the requested object."""


class NotInSubgroup(MalformedEncoding):
    """Decoded value is not a member of the prime-order group."""


class EntropyFailure(ZorroError):
    """The caller-supplied randomness source is missing or broken."""


class NotInWindow(ZorroError):
    """No exponent in the search window maps to the target element."""


class BoundExceeded(ZorroError):
    """Witness vector violates the norm bound; prover refuses."""


class NegativeEntry(ZorroError):
    """Witness vector contains a negative entry under a non-negative policy."""


class KeyMismatch(ZorroError):
    """Statement ciphertexts are not consistent with the claimed public key."""


class MissingPost(ZorroError):
    """A required ledger post from some party is absent."""

    def __init__(self, party, round):
        super().__init__(f"party {party} missing from round {round}")
        self.party = party
        self.round = round


class LedgerRejected(ZorroError):
    """A ledger post fails a public check; `party` and `check` name it."""

    def __init__(self, party, check, message):
        super().__init__(message)
        self.party = party
        self.check = check


class DuplicatePost(ZorroError):
    """A party attempted to post twice in the same round (equivocation)."""


class ChainBroken(ZorroError):
    """Ledger hash chain does not verify; `seq` names the first bad entry."""

    def __init__(self, seq, reason=""):
        super().__init__(f"ledger chain broken at seq {seq}" + (f": {reason}" if reason else ""))
        self.seq = seq
        self.reason = reason


class IllegalBallot(ZorroError):
    """Ballot violates the cumulative-voting rules."""


class NegativeCount(ZorroError):
    """Count matrix contains a negative entry."""


class CapExceeded(ZorroError):
    """Count matrix total exceeds the per-user cap."""


class ZeroClassCount(ZorroError):
    """A class label has zero tallied samples, so its conditionals are undefined."""


class SingularGram(ZorroError):
    """Tallied Gram matrix is not invertible."""


class ShapeMismatch(ZorroError):
    """Operand shapes do not conform."""


class EmptyDataset(ZorroError):
    """Statistic requested over zero samples."""
