"""Exact integer kernels of the orthogonal-frame scan.

`enumerate_cliques` walks cliques with Python ints as vertex bitsets;
`fixed_counts` counts shared mask positions per frame with numpy.
"""

from __future__ import annotations

from array import array

import numpy as np


def enumerate_cliques(adj: np.ndarray, k: int, cap: int):
    """k-cliques of the graph given by boolean matrix adj, capped at cap rows.

    Returns (frames, truncated); frames has shape (m, k) with m <= cap,
    each row in increasing vertex order and the rows in lexicographic
    order.  truncated is True once cap rows have been found, so a capped
    scan returns the lexicographic prefix of the full one.
    """
    if k == 0:
        return np.zeros((1, 0), dtype=np.int32), False
    upper = np.triu(np.asarray(adj, dtype=bool), 1)
    # nbr[v]: bitset of the neighbours of v with a higher index
    nbr = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in upper]
    flat = array("i")  # the frames found so far, row after row
    full = cap * k
    last = k - 1

    def rec(chosen: tuple[int, ...], cands: int) -> bool:
        """Extend chosen by the vertices of cands in order; True once capped."""
        depth = len(chosen)
        while cands.bit_count() > last - depth:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            if depth == last:
                flat.extend(chosen)
                flat.append(v)
                if len(flat) >= full:
                    return True
            elif rec(chosen + (v,), cands & nbr[v]):
                return True
        return False

    truncated = rec((), (1 << upper.shape[0]) - 1)
    return np.array(flat, dtype=np.int32).reshape(-1, k), truncated


def fixed_counts(zero_masks: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Per frame, count the mask positions shared by every row of the frame.

    zero_masks: (n_rows, n_positions) bool; frames: (m, k) int32.
    """
    m = frames.shape[0]
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    if frames.shape[1] == 0:
        return np.full(m, zero_masks.shape[1], dtype=np.int64)
    out = np.empty(m, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(1, zero_masks.shape[1] * frames.shape[1]))
    for start in range(0, m, chunk):
        sel = zero_masks[frames[start : start + chunk]]
        out[start : start + chunk] = sel.all(axis=1).sum(axis=1)
    return out
