"""Baby-step/giant-step recovery of small exponents.

Self-tallying ends with g^T for a sum T confined to a known window, so a
meet-in-the-middle search with a sqrt-size table is enough.  The baby table
depends only on (group, table width); it is memoized because a tally asks
for m exponents against the same window.
"""

import math
from dataclasses import dataclass

from .errors import NotInWindow

# The widest baby-step table a tally may build: 2^22 entries, about 0.5 GB on
# secp256k1.  No mod41 window reaches it (q < 2^41, so sqrt(q) < 2^21).
MAX_BABY_STEPS = 1 << 22


@dataclass(frozen=True)
class DlogWindow:
    """Closed interval [lo, hi] the exponent is known to lie in."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty window [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    @property
    def baby_steps(self) -> int:
        """The width of bsgs's baby-step table for this window: ceil(sqrt(size))."""
        return math.isqrt(self.size - 1) + 1

    def check_width(self):
        """ValueError unless bsgs may search this window: its baby-step table
        must not exceed MAX_BABY_STEPS."""
        if self.baby_steps > MAX_BABY_STEPS:
            raise ValueError(
                f"a window of {self.size} values needs {self.baby_steps} baby steps, "
                f"over {MAX_BABY_STEPS}"
            )


_tables = {}


def _baby_table(group, width: int):
    key = (group.group_id, width)
    table = _tables.get(key)
    if table is not None:
        return table
    table = {}
    step = group.identity
    for j in range(width):
        # first j wins: in tiny groups g^j cycles and the smallest j is the
        # canonical representative
        table.setdefault(group.encode_element(step), j)
        step = step * group.g
    _tables[key] = table
    return table


def bsgs(group, target, window: DlogWindow) -> int:
    """Return the unique m in `window` with g^m = target.

    Raises NotInWindow when no such exponent exists, which downstream
    signals a corrupted tally or a wrong bound; ValueError, before any
    table is built, when the window is too wide to search.
    """
    window.check_width()
    n, width = window.size, window.baby_steps
    table = _baby_table(group, width)
    # search g^(m - lo) in [0, n)
    shifted = target * group.g ** (-window.lo % group.q) if window.lo else target
    giant = (group.g ** width).inverse()
    block = shifted
    for i in range(0, n, width):
        j = table.get(group.encode_element(block))
        if j is not None and i + j < n:
            return window.lo + i + j
        block = block * giant
    raise NotInWindow(f"target has no logarithm in [{window.lo}, {window.hi}]")
