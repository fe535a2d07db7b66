from array import array
from itertools import combinations, islice

import numpy as np
import pytest

from delpezzo import _kernels
from delpezzo._kernels import enumerate_cliques, fixed_counts
from delpezzo.picard import PicardLattice, enumerate_exceptional
from delpezzo.weyl import _positive_roots, frame_matrix


def _rows(frames):
    """Every frame as a list of vertices, read off the clique trie level by
    level (indexing walks down from each frame alone)."""
    rows, level = [[]], frames._level
    levels = []
    while level.below is not None:
        levels.append(level)
        level = level.below
    for level in reversed(levels):
        kids = iter(level.last)
        rows = [row + [v] for row, size in zip(rows, level.below.sizes()) for v in islice(kids, size)]
    return rows


def _data(degree):
    lat = PicardLattice(degree)
    pos = np.array(_positive_roots(lat), dtype=np.int64)
    adj = (pos @ lat.gram @ pos.T) == 0
    lines = np.array([e.coords for e in enumerate_exceptional(lat)], dtype=np.int64)
    masks = (pos @ lat.gram @ lines.T) == 0
    return lat, pos, adj, masks


def _cliques_by_combinations(adj, k):
    """k-subsets in lexicographic order, kept when pairwise adjacent."""
    rows = adj.tolist()
    return [
        list(c)
        for c in combinations(range(len(rows)), k)
        if all(rows[a][b] for a, b in combinations(c, 2))
    ]


def _cliques_by_recursion(adj, k):
    """The depth-first scan with Python ints as vertex bitsets."""
    if k == 0:
        return [[]]
    upper = np.triu(np.asarray(adj, dtype=bool), 1)
    nbr = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in upper]
    flat = array("i")
    last = k - 1

    def rec(chosen, cands):
        depth = len(chosen)
        while cands.bit_count() > last - depth:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            if depth == last:
                flat.extend(chosen)
                flat.append(v)
            else:
                rec(chosen + (v,), cands & nbr[v])

    rec((), (1 << upper.shape[0]) - 1)
    return [flat[i : i + k].tolist() for i in range(0, len(flat), k)]


def _fixed_counts_by_bools(zero_masks, frames):
    """Shared mask positions per frame, one boolean gather per frame."""
    zero_masks = np.asarray(zero_masks, dtype=bool)
    if not frames or not frames[0]:
        return [zero_masks.shape[1]] * len(frames)
    return zero_masks[np.array(frames)].all(axis=1).sum(axis=1).tolist()


def _random_graph(rng, n):
    upper = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.6), 1)
    return upper | upper.T


def _assert_same_scan(got, ref, k):
    frames, truncated = got
    assert frames.shape == (len(ref), k) and len(frames) == len(ref)
    assert _rows(frames) == ref
    assert [frames[i] for i in range(0, len(ref), 1 + len(ref) // 7)] == ref[:: 1 + len(ref) // 7]
    assert truncated is False


def _check_against_recursion(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(0, 41))
        adj = _random_graph(rng, n)
        for k in range(7):
            _assert_same_scan(enumerate_cliques(adj, k), _cliques_by_recursion(adj, k), k)


def test_cliques_match_the_recursion_on_random_graphs():
    _check_against_recursion(np.random.default_rng(20261018), 40)


def test_cliques_match_the_recursion_across_chunks(monkeypatch):
    _kernels._cliques.cache_clear()  # a cached level was built with the full chunk
    monkeypatch.setattr(_kernels, "_CHUNK", 3)
    _check_against_recursion(np.random.default_rng(7), 12)


def test_cached_levels_belong_to_their_graph():
    """Two graphs of one size asked in turn: each scan is its own graph's."""
    rng = np.random.default_rng(11)
    graphs = [_random_graph(rng, 30) for _ in range(2)]
    assert graphs[0].tobytes() != graphs[1].tobytes()
    for k in (1, 2, 3, 3, 4, 2, 5):
        for adj in graphs:
            _assert_same_scan(enumerate_cliques(adj, k), _cliques_by_recursion(adj, k), k)


def test_cached_levels_in_any_order():
    """E8 asked for k out of order gives each k's scan, and a cold k = 8
    equals a warm one."""
    _, _, adj, _ = _data(1)
    for k in (8, 3, 5, 3):
        _assert_same_scan(enumerate_cliques(adj, k), _cliques_by_recursion(adj, k), k)
    warm, _ = enumerate_cliques(adj, 8)
    _kernels._cliques.cache_clear()
    cold, _ = enumerate_cliques(adj, 8)
    assert cold.shape == (2025, 8)
    assert _rows(cold) == _rows(warm)


@pytest.mark.parametrize(
    "degree, sizes",
    [
        (3, [1, 36, 270, 540, 135, 0, 0]),
        (2, [1, 63, 945, 4095, 4725, 2835, 945, 135]),
        (1, [1, 120, 3780, 37800, 122850, 113400, 56700, 16200, 2025]),
    ],
)
def test_frames_per_k_of_e6_e7_e8(degree, sizes):
    """The number of k-frames of orthogonal positive roots, k = 0..r, as
    the numpy scan counted them."""
    _, _, adj, _ = _data(degree)
    assert [len(enumerate_cliques(adj, k)[0]) for k in range(len(sizes))] == sizes


def test_scanned_frames_are_read_only():
    _, _, adj, _ = _data(3)
    for k in (2, 3):
        frames, _ = enumerate_cliques(adj, k)
        first = frames[0]
        with pytest.raises(TypeError):
            frames[0] = [0] * k
        with pytest.raises(AttributeError):
            frames.shape = (1, k)
        first[0] = -1  # a row is the caller's copy
        assert frames[0][0] != -1 and frames[0] == _cliques_by_combinations(adj, k)[0]


def test_frames_index_like_a_sequence():
    _, _, adj, _ = _data(3)
    frames, _ = enumerate_cliques(adj, 3)
    rows = _cliques_by_combinations(adj, 3)
    assert frames[-1] == rows[-1] and frames[-len(rows)] == rows[0]
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            frames[i]


def test_frames_hold_at_most_256_vertices():
    frames, truncated = enumerate_cliques(np.zeros((256, 256), dtype=bool), 1)
    assert [row[0] for row in _rows(frames)] == list(range(256)) and not truncated
    with pytest.raises(ValueError):
        enumerate_cliques(np.zeros((257, 257), dtype=bool), 1)


def test_adjacency_must_be_square():
    with pytest.raises(ValueError):
        enumerate_cliques(np.ones((3, 4), dtype=bool), 1)
    # a row shorter than the graph has no edge beyond it
    frames, _ = enumerate_cliques([[False, True], [True]], 2)
    assert _rows(frames) == [[0, 1]]


def test_fixed_counts_match_the_boolean_gather():
    """Random graphs and masks, with k asked upwards (each level counted
    onto the one below), again, downwards and with other masks."""
    rng = np.random.default_rng(5)
    for width in (0, 1, 63, 64, 65, 127, 128, 240):
        n = int(rng.integers(1, 30))
        adj = _random_graph(rng, n)
        masks = [rng.random((n, width)) < rng.uniform(0.3, 0.95) for _ in range(2)]
        for k in (0, 1, 2, 3, 4, 4, 2, 5, 3):
            frames, _ = enumerate_cliques(adj, k)
            for m in masks:
                counts = fixed_counts(m, frames)
                assert counts == _fixed_counts_by_bools(m, _rows(frames)), (width, k)


def test_fixed_counts_across_chunks(monkeypatch):
    monkeypatch.setattr(_kernels, "_CHUNK", 3)
    rng = np.random.default_rng(9)
    adj = _random_graph(rng, 25)
    masks = rng.random((25, 70)) < 0.7
    for k in range(6):
        frames, _ = enumerate_cliques(adj, k)
        assert fixed_counts(masks, frames) == _fixed_counts_by_bools(masks, _rows(frames)), k


def test_clique_paths_agree():
    for degree, ks in ((3, range(0, 7)), (2, range(0, 4))):
        _, _, adj, _ = _data(degree)
        for k in ks:
            frames, truncated = enumerate_cliques(adj, k)
            assert not truncated
            assert _rows(frames) == _cliques_by_combinations(adj, k), (degree, k)


def test_clique_cap_is_ignored():
    """Any cap, even one below the level's size, gives the whole level."""
    _, _, adj, masks = _data(2)
    full, _ = enumerate_cliques(adj, 3)
    for cap in (0, 1, 10, 10**7):
        frames, truncated = enumerate_cliques(adj, 3, cap)
        assert frames.shape == (4095, 3) and truncated is False
        assert _rows(frames) == _rows(full)
        assert fixed_counts(masks, frames) == fixed_counts(masks, full)


def _count_fixed_lines(lat, mat):
    """Fixed lines by comparing each line with its image under the matrix."""
    lines = np.array([e.coords for e in enumerate_exceptional(lat)], dtype=np.int64)
    images = lines @ mat.T
    return int((images == lines).all(axis=1).sum())


def test_fixed_count_paths_agree():
    lat, pos, adj, masks = _data(2)
    frames, _ = enumerate_cliques(adj, 3)
    counts = fixed_counts(masks, frames)
    expected = [_count_fixed_lines(lat, np.array(frame_matrix(lat, pos[f]))) for f in _rows(frames)]
    assert counts == expected


def test_orthogonal_rows_match_the_matrix_product():
    lat, pos, adj, masks = _data(1)
    lines = [e.coords for e in enumerate_exceptional(lat)]
    assert _kernels._orthogonal(pos.tolist(), lat.gram, pos.tolist()) == [bytes(row) for row in adj]
    assert _kernels._orthogonal(pos.tolist(), lat.gram, lines) == [bytes(row) for row in masks]


def test_edge_cases():
    _, _, adj, masks = _data(2)
    empty, truncated = enumerate_cliques(adj, 0)
    assert empty.shape == (1, 0) and _rows(empty) == [[]] and not truncated
    assert fixed_counts(masks, empty) == [masks.shape[1]]
    frames, truncated = enumerate_cliques(np.zeros((0, 0), dtype=bool), 0)
    assert _rows(frames) == [[]] and not truncated
    assert enumerate_cliques(np.zeros((0, 0), dtype=bool), 1)[0].shape == (0, 1)
    assert fixed_counts(np.zeros((0, 5), dtype=bool), enumerate_cliques([], 1)[0]) == []
