"""Cell runs shared by the grid-layout families (Flood, SPRIG).

Both families sort their points by cell id, then by an in-cell sort
key, and cut the sorted order into one contiguous run per cell.  One
``np.diff`` over the sorted id rows finds every run boundary at once.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cell_runs"]


def cell_runs(sorted_ids: np.ndarray) -> list[tuple[tuple[int, ...], int, int]]:
    """``(cell id, start, end)`` for each run of equal rows of ``sorted_ids``.

    ``sorted_ids`` is an ``(n, g)`` integer array whose equal rows are
    adjacent; ids come back as tuples of Python ints, in row order.
    """
    n = sorted_ids.shape[0]
    if n == 0:
        return []
    cuts = (np.flatnonzero(np.diff(sorted_ids, axis=0).any(axis=1)) + 1).tolist()
    starts = [0, *cuts]
    return list(zip(map(tuple, sorted_ids[starts].tolist()), starts, [*cuts, n]))
