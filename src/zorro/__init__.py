"""Self-tallying multi-party vector aggregation over a public ledger.

n mutually distrusting parties publish encrypted integer vectors with
zero-knowledge validity proofs; anyone can verify every contribution and
recover the exact vector sum without a trusted tallier.  Reduction helpers
map common joint-training statistics onto that primitive.
"""

from .dlog import DlogWindow, bsgs
from .elgamal import Ciphertext, encrypt_exp, hom_mul
from .groups import get_group, prod_group, test_group, toy_group
from .ledger import Ledger, LedgerEntry, LedgerHeader
from .protocol import (
    ProtocolConfig,
    Round1Post,
    Round1Secret,
    Round2Post,
    derive_pads,
    round1_generate,
    round2_generate,
    tally,
    verify_contribution,
    verify_ledger,
    verify_round1,
)
from .rangeproof import (
    BoundPolicy,
    L1RangeProof,
    L2RangeProof,
    prove_l1,
    prove_l2,
    verify_l1,
    verify_l2,
    verify_reencryption_link,
)
from .sigma import (
    BitProof,
    DhTupleProof,
    DlogProof,
    FsTranscript,
    SquareProof,
    lift_proofs,
    prove_bit,
    prove_dh_tuple,
    prove_dlog,
    prove_square,
    verify_bit,
    verify_dh_tuple,
    verify_dlog,
    verify_square,
)

__version__ = "0.1.0"
