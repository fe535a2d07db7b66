from itertools import combinations

import numpy as np
import pytest

from delpezzo._kernels import enumerate_cliques, fixed_counts
from delpezzo.picard import PicardLattice, enumerate_exceptional
from delpezzo.weyl import _count_fixed_lines, _positive_roots, frame_matrix


def _data(degree):
    lat = PicardLattice(degree)
    pos = _positive_roots(lat)
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


def test_clique_paths_agree():
    for degree, ks in ((3, range(0, 7)), (2, range(0, 4))):
        _, _, adj, _ = _data(degree)
        for k in ks:
            frames, truncated = enumerate_cliques(adj, k, 10**6)
            assert not truncated
            assert frames.dtype == np.int32
            assert np.array_equal(frames, _cliques_by_combinations(adj, k)), (degree, k)


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


def test_fixed_count_paths_agree():
    lat, pos, adj, masks = _data(2)
    frames, _ = enumerate_cliques(adj, 3, 10**6)
    counts = fixed_counts(masks, frames)
    expected = [_count_fixed_lines(lat, frame_matrix(lat, pos[f])) for f in frames]
    assert counts.dtype == np.int64
    assert counts.tolist() == expected


def test_edge_cases():
    _, _, adj, masks = _data(2)
    empty, truncated = enumerate_cliques(adj, 0, 10)
    assert empty.shape == (1, 0) and not truncated
    assert list(fixed_counts(masks, empty)) == [masks.shape[1]]
    assert fixed_counts(masks, np.zeros((0, 2), dtype=np.int32)).shape == (0,)
