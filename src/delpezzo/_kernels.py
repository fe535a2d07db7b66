"""Exact integer kernels of the orthogonal-frame scan, on packed bitsets.

A vertex set is a row of little-endian uint64 words in which bit v of the
row stands for vertex v.  `enumerate_cliques` grows all cliques one vertex
per level, a whole level at a time; `fixed_counts` ANDs the packed masks of
each frame's rows and counts the bits left.  The private helpers turn int
rows into the scan's input and its output into one frame per count.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 14  # parent rows unpacked to booleans at once


def _pack(rows: np.ndarray) -> np.ndarray:
    """Boolean rows (m, n) as little-endian uint64 bitsets (m, ceil(n / 64))."""
    m, n = rows.shape
    padded = np.zeros((m, -(-n // 64) * 64), dtype=bool)
    padded[:, :n] = rows
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def enumerate_cliques(adj: np.ndarray, k: int, cap: int):
    """k-cliques of the graph given by boolean matrix adj, capped at cap rows.

    Returns (frames, truncated); frames has shape (m, k) with m <= cap,
    each row in increasing vertex order and the rows in lexicographic
    order.  truncated is True when a clique exists beyond the cap rows, so
    a capped scan returns the lexicographic prefix of the full one.

    The scan always runs to the end and the cap only cuts its result: it
    holds one level of partial cliques at a time, at most as many as there
    are cliques of that size that can still grow to k vertices.  The
    largest supported case, the 120 positive roots of E8, has at most
    122850 frames for any k.
    """
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    if k == 0:
        return np.zeros((1, 0), dtype=np.int32), False
    upper = np.triu(np.asarray(adj, dtype=bool), 1)
    nbr = _pack(upper)  # nbr[v]: the neighbours of v with a higher index
    width = nbr.shape[1] * 64
    # one partial clique, the empty one, whose candidates are all vertices
    frames = np.zeros((1, 0), dtype=np.int32)
    cands = _pack(np.ones((1, upper.shape[0]), dtype=bool))
    for depth in range(k):
        # drop the partial cliques that cannot reach k vertices
        keep = np.bitwise_count(cands).sum(axis=1) >= k - depth
        frames, cands = frames[keep], cands[keep]
        if not frames.shape[0]:
            return np.zeros((0, k), dtype=np.int32), False
        parents, verts = [], []
        for start in range(0, frames.shape[0], _CHUNK):
            bits = np.unpackbits(cands[start : start + _CHUNK].view(np.uint8), axis=1, bitorder="little")
            # parents in order, each parent's vertices increasing: rows stay lexicographic
            p, v = np.divmod(np.flatnonzero(bits.view(bool)), width)
            parents.append(p + start)
            verts.append(v)
        rows = np.concatenate(parents)
        cols = np.concatenate(verts)
        frames = np.column_stack([frames[rows], cols.astype(np.int32)])
        if depth < k - 1:
            cands = cands[rows] & nbr[cols]
    return frames[:cap], frames.shape[0] > cap


def fixed_counts(zero_masks: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Per frame, count the mask positions shared by every row of the frame.

    zero_masks: (n_rows, n_positions) bool; frames: (m, k) int32.
    """
    m = frames.shape[0]
    if frames.shape[1] == 0:
        return np.full(m, zero_masks.shape[1], dtype=np.int64)
    packed = _pack(np.asarray(zero_masks, dtype=bool))
    shared = packed[frames[:, 0]]
    for col in range(1, frames.shape[1]):
        shared &= packed[frames[:, col]]
    return np.bitwise_count(shared).sum(axis=1, dtype=np.int64)


def _orthogonal(rows, gram, cols) -> np.ndarray:
    """Boolean matrix whose (i, j) entry says row i of rows is orthogonal to
    row j of cols under the int-row form gram."""
    a = np.array(rows, dtype=np.int64)
    b = np.array(cols, dtype=np.int64)
    return (a @ np.array(gram, dtype=np.int64) @ b.T) == 0


def _first_frames(counts: np.ndarray, frames: np.ndarray) -> list[tuple[int, list[int]]]:
    """Each distinct count, largest first, with the vertices of the first
    frame that has it."""
    values, first = np.unique(counts, return_index=True)  # increasing counts
    return [(c, frames[i].tolist()) for c, i in zip(values[::-1].tolist(), first[::-1].tolist())]
