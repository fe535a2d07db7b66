from array import array
from itertools import combinations

import numpy as np
import pytest

from delpezzo import _kernels
from delpezzo._kernels import enumerate_cliques, fixed_counts
from delpezzo.picard import PicardLattice, enumerate_exceptional
from delpezzo.weyl import _positive_roots, frame_matrix


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
    found = [
        c
        for c in combinations(range(len(rows)), k)
        if all(rows[a][b] for a, b in combinations(c, 2))
    ]
    return np.array(found, dtype=np.int32).reshape(len(found), k)


def _cliques_by_recursion(adj, k, cap):
    """The depth-first scan with Python ints as vertex bitsets."""
    if k == 0:
        return np.zeros((1, 0), dtype=np.int32), False
    upper = np.triu(np.asarray(adj, dtype=bool), 1)
    nbr = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in upper]
    flat = array("i")
    full = cap * k
    last = k - 1

    def rec(chosen, cands):
        depth = len(chosen)
        while cands.bit_count() > last - depth:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            if depth == last:
                if len(flat) == full:
                    return True
                flat.extend(chosen)
                flat.append(v)
            elif rec(chosen + (v,), cands & nbr[v]):
                return True
        return False

    truncated = rec((), (1 << upper.shape[0]) - 1)
    return np.array(flat, dtype=np.int32).reshape(-1, k), truncated


def _fixed_counts_by_bools(zero_masks, frames):
    """Shared mask positions per frame, one boolean gather per chunk of frames."""
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


def _random_graph(rng, n):
    upper = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.6), 1)
    return upper | upper.T


def _assert_same_scan(got, want):
    (frames, truncated), (ref, ref_truncated) = got, want
    assert frames.dtype == np.uint8
    assert frames.shape == ref.shape
    assert frames.flags.c_contiguous
    assert frames.tolist() == ref.tolist()
    assert truncated is ref_truncated


def _check_against_recursion(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(0, 41))
        adj = _random_graph(rng, n)
        for k in range(7):
            total = _cliques_by_recursion(adj, k, 10**6)[0].shape[0]
            for cap in sorted({1, 2, max(1, total - 1), max(1, total), total + 1, 10**6}):
                _assert_same_scan(enumerate_cliques(adj, k, cap), _cliques_by_recursion(adj, k, cap))


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
            _assert_same_scan(enumerate_cliques(adj, k, 10**6), _cliques_by_recursion(adj, k, 10**6))


def test_cached_levels_in_any_order():
    """E8 asked for k out of order gives each k's scan, and a cold k = 8
    equals a warm one."""
    _, _, adj, _ = _data(1)
    for k in (8, 3, 5, 3):
        _assert_same_scan(enumerate_cliques(adj, k, 10**6), _cliques_by_recursion(adj, k, 10**6))
    warm, _ = enumerate_cliques(adj, 8, 10**6)
    _kernels._cliques.cache_clear()
    cold, _ = enumerate_cliques(adj, 8, 10**6)
    assert cold.shape == (2025, 8)
    assert cold.tobytes() == warm.tobytes()


def test_scanned_frames_are_read_only():
    _, _, adj, _ = _data(3)
    for k in (2, 3):
        frames, _ = enumerate_cliques(adj, k, 10**6)
        assert not frames.flags.writeable
        with pytest.raises(ValueError):
            frames[0, 0] = 1
    cached = _kernels._cliques(_kernels._pack(np.triu(adj, 1)).tobytes(), adj.shape[0], 3)
    assert not any(a.flags.writeable for a in cached)


def test_frames_hold_at_most_256_vertices():
    frames, truncated = enumerate_cliques(np.zeros((256, 256), dtype=bool), 1, 300)
    assert frames[:, 0].tolist() == list(range(256)) and not truncated
    with pytest.raises(ValueError):
        enumerate_cliques(np.zeros((257, 257), dtype=bool), 1, 300)


def test_fixed_counts_match_the_boolean_gather():
    rng = np.random.default_rng(5)
    for width in (0, 1, 63, 64, 65, 127, 128, 240):
        n_rows = int(rng.integers(1, 30))
        masks = rng.random((n_rows, width)) < rng.uniform(0.3, 0.95)
        for k in range(5):
            frames = rng.integers(0, n_rows, size=(int(rng.integers(0, 50)), k)).astype(np.int32)
            counts = fixed_counts(masks, frames)
            assert counts.dtype == np.int64
            assert counts.tolist() == _fixed_counts_by_bools(masks, frames).tolist(), (width, k)


def test_clique_paths_agree():
    for degree, ks in ((3, range(0, 7)), (2, range(0, 4))):
        _, _, adj, _ = _data(degree)
        for k in ks:
            frames, truncated = enumerate_cliques(adj, k, 10**6)
            assert not truncated
            assert frames.dtype == np.uint8
            assert frames.tolist() == _cliques_by_combinations(adj, k).tolist(), (degree, k)


def test_clique_cap_truncates():
    _, _, adj, _ = _data(2)
    frames, truncated = enumerate_cliques(adj, 3, 10)
    assert truncated and frames.shape == (10, 3)
    full, _ = enumerate_cliques(adj, 3, 10**6)
    assert np.array_equal(frames, full[:10])


def test_clique_cap_flags_only_a_clique_beyond_it():
    _, pos, adj, _ = _data(3)
    assert len(pos) == 36  # E6 has 36 positive roots, the 1-cliques
    frames, truncated = enumerate_cliques(adj, 1, 36)
    assert frames.shape == (36, 1) and not truncated
    frames, truncated = enumerate_cliques(adj, 1, 35)
    assert frames.shape == (35, 1) and truncated
    for k in range(2, 5):
        total = len(_cliques_by_combinations(adj, k))
        assert not enumerate_cliques(adj, k, total)[1]
        assert enumerate_cliques(adj, k, total - 1)[1]


def test_clique_cap_must_be_positive():
    _, _, adj, _ = _data(3)
    for k in (0, 1):
        with pytest.raises(ValueError):
            enumerate_cliques(adj, k, 0)


def _count_fixed_lines(lat, mat):
    """Fixed lines by comparing each line with its image under the matrix."""
    lines = np.array([e.coords for e in enumerate_exceptional(lat)], dtype=np.int64)
    images = lines @ mat.T
    return int((images == lines).all(axis=1).sum())


def test_fixed_count_paths_agree():
    lat, pos, adj, masks = _data(2)
    frames, _ = enumerate_cliques(adj, 3, 10**6)
    counts = fixed_counts(masks, frames)
    expected = [_count_fixed_lines(lat, np.array(frame_matrix(lat, pos[f]))) for f in frames]
    assert counts.dtype == np.int64
    assert counts.tolist() == expected


def test_edge_cases():
    _, _, adj, masks = _data(2)
    empty, truncated = enumerate_cliques(adj, 0, 10)
    assert empty.shape == (1, 0) and not truncated
    assert list(fixed_counts(masks, empty)) == [masks.shape[1]]
    assert fixed_counts(masks, np.zeros((0, 2), dtype=np.int32)).shape == (0,)
