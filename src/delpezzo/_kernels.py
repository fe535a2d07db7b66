"""Exact integer kernels of the orthogonal-frame scan, on Python-int bitsets.

A vertex set is an int whose bit v stands for vertex v.  Level k of a trie
(`_Level`) holds the k-cliques of a graph in lexicographic order: each
clique's last vertex, and its candidate set (the vertices its children
add) as an index into the level's distinct sets, which are few: E8's
122850 4-frames have 4981 nonempty ones.  `fixed_counts` ANDs each
frame's mask onto its parent's shared bits.  The private helpers turn int
rows into the scan's input.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import accumulate, chain, compress, islice, repeat, takewhile
from operator import add, and_, itemgetter, mul, not_

_CHUNK = 1 << 12  # cliques joined, or ANDed, at once: a bytes join holds a buffer per item
_BINARY = b"0" + b"1" * 255  # a byte as the binary digit of its truth


def _bits(row) -> int:
    """A boolean row (in a bytes row, nonzero is True) as the int whose bit j is entry j."""
    raw = row if isinstance(row, bytes) else bytes(map(bool, row))
    return int(raw.translate(_BINARY)[::-1] or b"0", 2)


class _Level:
    """The k-cliques of a graph: clique i ends in vertex last[i] and has the
    candidate set cands[ids[i]] (cands[0] = 0); the children of a clique of
    `below` are consecutive, one per candidate.  `_counts` sets `shared`."""

    __slots__ = ("below", "last", "ids", "cands", "shared")

    def __init__(self, below, last: bytes, ids, cands: list[int]):
        self.below, self.last, self.ids, self.cands, self.shared = below, last, ids, cands, None

    def sizes(self):
        """Per clique, the number of its children."""
        return map(list(map(int.bit_count, self.cands)).__getitem__, self.ids)


def _grow(below: _Level, nbr: tuple[int, ...]) -> _Level:
    """The level above below: each distinct candidate set is expanded once,
    in the graph whose higher-index neighbours of vertex v are nbr[v]."""
    from array import array  # imported when a scan runs: importing the package loads no extension for it

    index = {0: 0}  # candidate set -> its index in the new level
    kids_last, kids = [], []  # per candidate set of below: its vertices, and the sets they leave
    for c in below.cands:
        verts, rest = [], c
        while rest:
            low = rest & -rest
            verts.append(low.bit_length() - 1)
            rest ^= low
        kids_last.append(bytes(verts))
        kids.append(array("I", [index.setdefault(c & nbr[v], len(index)) for v in verts]).tobytes())
    last, ids = bytearray(), array("I")
    for start in range(0, len(below.ids), _CHUNK):
        part = below.ids[start : start + _CHUNK]
        last += b"".join(map(kids_last.__getitem__, part))
        ids.frombytes(b"".join(map(kids.__getitem__, part)))
    return _Level(below, bytes(last), ids, list(index))


@lru_cache(maxsize=1)
def _cliques(nbr: tuple[int, ...], k: int) -> _Level:
    """Level k of the graph; the last level built stays cached, so asking
    for k = 0, 1, 2, ... in turn builds each level once."""
    if k == 0:
        # one clique, the empty one, whose candidates are all vertices
        return _Level(None, b"", [1 if nbr else 0], [0, (1 << len(nbr)) - 1])
    return _grow(_cliques(nbr, k - 1), nbr)


class _Frames:
    """The cliques of a level, read-only: len(), shape (len, k), and
    frames[i], the vertices of clique i as an increasing list."""

    __slots__ = ("_level", "_k")

    def __init__(self, level: _Level, k: int):
        self._level, self._k = level, k

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self._k

    def __len__(self) -> int:
        return len(self._level.ids)

    def __getitem__(self, i: int) -> list[int]:
        i, row, level = range(len(self))[i], [], self._level
        while level.below is not None:
            row.append(level.last[i])
            # the parent is the first clique below whose children end after i
            i = sum(1 for _ in takewhile(i.__ge__, accumulate(level.below.sizes())))
            level = level.below
        return row[::-1]


def enumerate_cliques(adj, k: int, cap=None) -> tuple[_Frames, bool]:
    """All k-cliques of the graph given by the square boolean rows adj, in
    lexicographic order (see `_Frames`), and False: no clique is left out.
    `cap` is ignored; perfbench/micro.py passes it.  At most 256 vertices
    fit a byte; E8 has 120 positive roots and at most 122850 frames for
    any k."""
    n = len(adj)
    if n > 256:
        raise ValueError(f"at most 256 vertices fit a byte, got {n}")
    rows = list(map(_bits, adj))
    if any(row >> n for row in rows):
        raise ValueError("adj must be square")
    return _Frames(_cliques(tuple(row >> v + 1 << v + 1 for v, row in enumerate(rows)), k), k), False


def _counts(level: _Level, key: tuple[tuple[int, ...], int]) -> list[int]:
    """Per clique of level, how many bits of everything the masks of its
    vertices share, for key = (masks, everything).  The level below gives
    up its shared bits as they are used; level keeps those with children."""
    (masks, everything), below = key, level.below
    if below is None:
        level.shared = key, deque([everything] if level.ids[0] else [])
        return [everything.bit_count()]
    if below.shared is None or below.shared[0] != key:
        _counts(below, key)
    above = below.shared[1]
    below.shared = None
    # each parent's shared bits once per child, as (bits,) * size
    parents = map(mul, zip(map(deque.popleft, repeat(above, len(above)))), filter(None, below.sizes()))
    ands = map(and_, chain.from_iterable(parents), map(masks.__getitem__, level.last))
    has_kids = iter(level.ids)
    counts, shared = [], deque()
    while chunk := list(islice(ands, _CHUNK)):
        counts += map(int.bit_count, chunk)
        shared += compress(chunk, islice(has_kids, len(chunk)))
    level.shared = key, shared
    return counts


def fixed_counts(zero_masks, frames: _Frames) -> list[int]:
    """Per frame of enumerate_cliques, count the positions shared by the
    zero_masks rows (booleans, one per vertex) of all its vertices."""
    width = len(zero_masks[0]) if len(zero_masks) else 0
    return _counts(frames._level, (tuple(map(_bits, zero_masks)), (1 << width) - 1))


def _orthogonal(rows, gram, cols) -> list[bytes]:
    """Boolean rows whose entry (i, j) says row i of rows is orthogonal to
    row j of cols under the int-row form gram."""
    images = list(zip(*[[sum(map(mul, g, col)) for g in gram] for col in cols]))  # [i][j]: (gram col_j)_i
    out = []
    for row in rows:
        dots = repeat(0, len(cols))
        for x, image in filter(itemgetter(0), zip(row, images)):
            dots = map(add, dots, map(mul, image, repeat(x)))
        out.append(bytes(map(not_, dots)))
    return out
