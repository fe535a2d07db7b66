"""Exact integer kernels of the orthogonal-frame scan, on packed bitsets.

A vertex set is a row of little-endian uint64 words in which bit v of the
row stands for vertex v.  `enumerate_cliques` reads all k-cliques off
level k of `_cliques`, which builds each level from the one below it, a
whole level at a time; the one-entry cache keeps the last level built, so
asking for k = 0, 1, 2, ... in turn builds each level once.  `fixed_counts`
ANDs the packed masks of each frame's rows and counts the bits left.  The
private helpers turn int rows into the scan's input and its output into
one frame per count.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_CHUNK = 1 << 12  # rows unpacked to booleans, or ANDed, at once


def _pack(rows: np.ndarray) -> np.ndarray:
    """Boolean rows (m, n) as little-endian uint64 bitsets (m, ceil(n / 64))."""
    m, n = rows.shape
    padded = np.zeros((m, -(-n // 64) * 64), dtype=bool)
    padded[:, :n] = rows
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


@lru_cache(maxsize=1)
def _cliques(upper_bytes: bytes, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(frames, cands) for every k-clique of the n-vertex graph whose packed
    higher-index neighbour rows are upper_bytes.

    frames is (m, k) uint8, each row increasing and the rows in
    lexicographic order; cands[i] holds the vertices above the last of
    frames[i] that are adjacent to all of it.  Both are read-only.  Level k
    is sized from the popcounts of level k - 1 and filled _CHUNK parents at
    a time.
    """
    words = -(-n // 64)
    if k == 0:
        # one clique, the empty one, whose candidates are all vertices
        frames = np.zeros((1, 0), dtype=np.uint8)
        cands = _pack(np.ones((1, n), dtype=bool))
    else:
        parents, parent_cands = _cliques(upper_bytes, n, k - 1)
        nbr = np.frombuffer(upper_bytes, dtype="<u8").reshape(n, words)
        total = int(np.bitwise_count(parent_cands).sum())
        frames = np.empty((total, k), dtype=np.uint8)
        cands = np.empty((total, words), dtype=np.uint64)
        lo = 0
        for start in range(0, parents.shape[0], _CHUNK):
            bits = np.unpackbits(parent_cands[start : start + _CHUNK].view(np.uint8), axis=1, bitorder="little")
            # parents in order, each parent's vertices increasing: rows stay lexicographic
            p, v = np.divmod(np.flatnonzero(bits.view(bool)), words * 64)
            p += start
            hi = lo + p.shape[0]
            frames[lo:hi, :-1] = parents[p]
            frames[lo:hi, -1] = v
            np.bitwise_and(parent_cands[p], nbr[v], out=cands[lo:hi])
            lo = hi
    frames.flags.writeable = False
    cands.flags.writeable = False
    return frames, cands


def enumerate_cliques(adj: np.ndarray, k: int, cap: int):
    """k-cliques of the graph given by boolean matrix adj, capped at cap rows.

    Returns (frames, truncated); frames is a read-only uint8 array of shape
    (m, k) with m <= cap, each row in increasing vertex order and the rows
    in lexicographic order.  truncated is True when a clique exists beyond
    the cap rows, so a capped scan returns the lexicographic prefix of the
    full one.  At most 256 vertices fit a uint8 frame; the largest lattice
    here, E8, has 120 positive roots and at most 122850 frames for any k.

    The scan always builds the whole level k and the cap only cuts its
    result.  Levels are shared across k: the last level built stays cached,
    so a call for k + 1 on the same graph builds one level, and at most two
    levels and one chunk of the next are alive at once.
    """
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    if n > 256:
        raise ValueError(f"at most 256 vertices fit a uint8 frame, got {n}")
    frames, _ = _cliques(_pack(np.triu(adj, 1)).tobytes(), n, k)
    return frames[:cap], frames.shape[0] > cap


def fixed_counts(zero_masks: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Per frame, count the mask positions shared by every row of the frame.

    zero_masks: (n_rows, n_positions) bool; frames: (m, k) integer row
    indices, ANDed _CHUNK frames at a time.
    """
    m = frames.shape[0]
    if frames.shape[1] == 0:
        return np.full(m, zero_masks.shape[1], dtype=np.int64)
    packed = _pack(np.asarray(zero_masks, dtype=bool))
    out = np.empty(m, dtype=np.int64)
    for start in range(0, m, _CHUNK):
        rows = frames[start : start + _CHUNK]
        shared = packed[rows[:, 0]]
        for col in range(1, rows.shape[1]):
            shared &= packed[rows[:, col]]
        out[start : start + _CHUNK] = np.bitwise_count(shared).sum(axis=1)
    return out


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
