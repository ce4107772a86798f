"""The pairs i < j of n items, walked in bounded blocks.

The benchmark's pair engine (ecology) decides object pairs block by block,
and the streak scan (careers) scores the intervals of a career as the pairs
of its shifted boundaries. Both hold one block's arrays at a time, so their
memory does not grow with the number of pairs. This module, careers and
ecology are the three that import numpy, and only the commands that do
array work load them.
"""

from __future__ import annotations

import numpy as np

# Most pairs a block holds unless the caller gives a size. The pair engine's
# arrays are pairs x cues, so this bounds its memory whatever n is; the
# streak scan gives a smaller size of its own (careers._SCAN_BLOCK).
PAIR_BLOCK = 2**16


def pair_blocks(n: int, size: int | None = None):
    """The pairs i < j of n items in np.triu_indices order (i ascending,
    then j ascending), as (i, j) index arrays of at most `size` pairs each
    (PAIR_BLOCK unless given), without ever holding all of them."""
    size = size or PAIR_BLOCK
    rows = np.arange(n - 1)
    starts = rows * (2 * n - rows - 1) // 2  # flat index of pair (r, r + 1)
    total = n * (n - 1) // 2
    for first in range(0, total, size):
        last = min(first + size, total)
        r0, r1 = np.searchsorted(starts, [first, last - 1], side="right") - 1
        # where each row the block spans begins within the block
        begins = np.maximum(starts[r0:r1 + 1], first) - first
        i = np.repeat(rows[r0:r1 + 1], np.diff(begins, append=last - first))
        yield i, np.arange(first, last) - starts.take(i) + i + 1
