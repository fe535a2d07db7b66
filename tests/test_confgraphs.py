import numpy as np
import pytest

from delpezzo import colorgraph
from delpezzo.confgraphs import (
    DP5_PATTERNS,
    SIGMA_PATTERNS,
    build_graph,
    colored_automorphisms,
    dp5_sigma_isometry,
    hexagon_minimal_subgroups,
    hexagon_sigma_isometry,
    hexagon_vertex_order,
    subgroup_name,
    vertex_permutation_isometry,
    _dihedral_subgroups,
)
from delpezzo.minimality import find_contractible_set
from delpezzo.picard import PicardLattice, UnsupportedDegree
from delpezzo.weyl import close_group, identity


def _names(graph):
    out = []
    for v in graph.vertices:
        c = v.coords
        if c[0] == 0:
            out.append(f"e{list(c[1:]).index(1) + 1}")
        else:
            ij = [i + 1 for i, x in enumerate(c[1:]) if x == -1]
            out.append("d" + "".join(str(i) for i in ij))
    return out


def test_uncolored_petersen_automorphisms():
    lat = PicardLattice(5)
    graph = build_graph(lat, identity(lat))
    assert all(flag for flag in graph.real_flags)
    aut = colored_automorphisms(graph)
    assert aut.order == 120


def test_pi21_coloring_and_automorphisms():
    lat = PicardLattice(5)
    graph = build_graph(lat, dp5_sigma_isometry(lat, "fig_a"))
    names = _names(graph)
    reals = {names[b[0]] for b, f in zip(graph.blocks, graph.real_flags) if f}
    assert reals == {"d12", "e1", "e2", "d34"}
    aut = colored_automorphisms(graph)
    # the published alpha and beta (index maps (12)(34) and (12)) are present
    def index_perm(mapping):
        perm = []
        for i, n in enumerate(names):
            kind, idx = n[0], n[1:]
            img = kind + "".join(sorted(str(mapping.get(int(ch), int(ch))) for ch in idx))
            perm.append(names.index(img))
        return tuple(perm)

    alpha = index_perm({1: 2, 2: 1, 3: 4, 4: 3})
    beta = index_perm({1: 2, 2: 1})
    assert alpha in aut.elements
    assert beta in aut.elements
    # the block-respecting group is the full centralizer of sigma in S_5,
    # of order 12: it also contains quadratic-transformation symmetries
    assert aut.order == 12
    # closure and containment in the uncolored group
    for p in aut.elements:
        for q in aut.elements:
            assert colorgraph.compose(p, q) in aut.elements


def test_pi02_coloring_and_automorphisms():
    lat = PicardLattice(5)
    graph = build_graph(lat, dp5_sigma_isometry(lat, "fig_b"))
    names = _names(graph)
    reals = {names[b[0]] for b, f in zip(graph.blocks, graph.real_flags) if f}
    assert reals == {"d12", "d34"}
    aut = colored_automorphisms(graph)
    assert aut.order == 8


def test_generators_generate():
    lat = PicardLattice(5)
    graph = build_graph(lat, dp5_sigma_isometry(lat, "fig_b"))
    aut = colored_automorphisms(graph)
    n = len(graph.vertices)
    span = colorgraph.close_permutations(list(aut.generators), n)
    assert span == set(aut.elements)


def test_hexagon_patterns():
    lat = PicardLattice(6)
    expected_reals = {"split": 6, "fig_a": 0, "fig_b": 2, "fig_c": 0}
    for pattern in SIGMA_PATTERNS:
        sigma = hexagon_sigma_isometry(lat, pattern)
        graph = build_graph(lat, sigma)
        reals = sum(1 for f in graph.real_flags if f)
        assert reals == expected_reals[pattern]
        # underlying graph is always the 6-cycle
        assert all(sum(row) == 2 for row in graph.adjacency)


def test_vertex_permutations_extend_to_every_vertex():
    lat = PicardLattice(6)
    verts = [np.array(v.coords) for v in hexagon_vertex_order(lat)]
    symmetries = {tuple((a + s * i) % 6 for i in range(6)) for a in range(6) for s in (1, -1)}
    assert len(symmetries) == 12
    for perm in sorted(symmetries):
        m = np.array(vertex_permutation_isometry(lat, perm).matrix)
        for i in range(6):
            assert np.array_equal(m @ verts[i], verts[perm[i]])


def test_hexagon_minimal_subgroup_lists():
    split = sorted(d["name"] for d in hexagon_minimal_subgroups("split"))
    assert split == sorted(["<r>", "<r^2,s>", "<r,s>"])
    fig_a = sorted(d["name"] for d in hexagon_minimal_subgroups("fig_a"))
    assert fig_a == sorted(["<r>", "<r^2>", "<r^2,s>", "<r^2,rs>", "<r,s>"])
    with pytest.raises(ValueError):
        hexagon_minimal_subgroups("nonsense")


def test_trivial_subgroup_never_minimal_with_real_vertex():
    for pattern in ("split", "fig_b"):
        names = {d["name"] for d in hexagon_minimal_subgroups(pattern)}
        assert "<1>" not in names


def test_scan_agrees_with_lattice_contraction():
    """Two independent code paths: the vertex-level hexagon scan and the
    lattice-level contraction search must agree on all 64 pairs."""
    lat = PicardLattice(6)
    for pattern in SIGMA_PATTERNS:
        sigma_iso = hexagon_sigma_isometry(lat, pattern)
        minimal_names = {d["name"] for d in hexagon_minimal_subgroups(pattern)}
        for sub in _dihedral_subgroups():
            gens = [vertex_permutation_isometry(lat, p) for p in sub] + [sigma_iso]
            group = close_group(lat, gens)
            want_minimal = subgroup_name(sub) in minimal_names
            assert (find_contractible_set(group) is None) == want_minimal


def test_unsupported_degree():
    lat = PicardLattice(4)
    with pytest.raises(UnsupportedDegree):
        build_graph(lat, identity(lat))
    with pytest.raises(UnsupportedDegree):
        hexagon_vertex_order(lat)
    with pytest.raises(UnsupportedDegree):
        dp5_sigma_isometry(lat, "split")


def test_dp5_patterns_validated():
    lat = PicardLattice(5)
    with pytest.raises(ValueError):
        dp5_sigma_isometry(lat, "fig_c")
    assert set(DP5_PATTERNS) == {"split", "fig_a", "fig_b"}


def _blocks_by_pairing(perm):
    """Singleton and two-element sigma-blocks in order of their least vertex."""
    blocks, flags, seen = [], [], set()
    for v, w in enumerate(perm):
        if v in seen:
            continue
        blocks.append((v,) if w == v else (v, w))
        flags.append(w == v)
        seen.update((v, w))
    return tuple(blocks), tuple(flags)


def test_blocks_are_the_sigma_orbits():
    patterns = [(6, p, hexagon_sigma_isometry) for p in SIGMA_PATTERNS]
    patterns += [(5, p, dp5_sigma_isometry) for p in DP5_PATTERNS]
    assert len(patterns) == 7
    for degree, pattern, make in patterns:
        lat = PicardLattice(degree)
        sigma = make(lat, pattern)
        graph = build_graph(lat, sigma)
        expected = _blocks_by_pairing(sigma.permutation(graph.vertices))
        assert (graph.blocks, graph.real_flags) == expected, pattern
