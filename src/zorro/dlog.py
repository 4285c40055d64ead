"""Baby-step/giant-step recovery of small exponents.

Self-tallying ends with g^T for a sum T confined to a known window, so a
meet-in-the-middle search with a sqrt-size table is enough.  The baby table
depends only on (group, table width); it is memoized because a tally asks
for m exponents against the same window.
"""

import math
from dataclasses import dataclass

from .errors import NotInWindow


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
    signals a corrupted tally or a wrong bound.
    """
    n = window.size
    width = math.isqrt(n - 1) + 1 if n > 1 else 1
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
