"""Incidence graphs of exceptional classes with Galois-orbit colorings.

Degree 6 gives the hexagon of six lines, degree 5 the Petersen graph of
ten.  The real structure colors vertices into singleton (real) blocks and
conjugate pairs; automorphisms must preserve adjacency and map blocks to
blocks of the same reality flag.  The hexagon subgroup scan reproduces the
minimal-subgroup lists of the degree-6 classification.
"""

from __future__ import annotations

from . import colorgraph
from .picard import LatticeClass, PicardLattice, UnsupportedDegree, enumerate_exceptional
from .weyl import Isometry

SIGMA_PATTERNS = ("split", "fig_a", "fig_b", "fig_c")


class PermGroup:
    """A set of vertex permutations closed under composition."""

    __slots__ = ("elements", "generators")

    def __init__(self, elements: tuple[tuple[int, ...], ...], generators: tuple[tuple[int, ...], ...]):
        self.elements, self.generators = elements, generators

    @property
    def order(self) -> int:
        return len(self.elements)


class ColoredIncidenceGraph:
    """adjacency: 0/1, symmetric, zero diagonal; blocks: the sigma-orbits as
    index tuples; real_flags: per block, True for singleton (real) blocks."""

    __slots__ = ("vertices", "adjacency", "blocks", "real_flags")

    def __init__(self, vertices: tuple[LatticeClass, ...], adjacency, blocks, real_flags):
        self.vertices, self.adjacency, self.blocks, self.real_flags = vertices, adjacency, blocks, real_flags

    def block_of(self) -> dict[int, int]:
        return {v: i for i, blk in enumerate(self.blocks) for v in blk}


def build_graph(lat: PicardLattice, sigma: Isometry) -> ColoredIncidenceGraph:
    """Graph of all exceptional classes, colored by sigma-orbits."""
    if lat.degree not in (5, 6):
        raise UnsupportedDegree("configuration graphs live on degrees 5 and 6")
    lines = enumerate_exceptional(lat)
    # a line meets itself -1 times, so the diagonal is zero
    adjacency = tuple(tuple(int(lat.intersection(a, b) == 1) for b in lines) for a in lines)
    perm = sigma.permutation(lines)
    for v, w in enumerate(perm):
        if perm[w] != v:
            raise ValueError("sigma does not act as an involution on the lines")
    blocks = tuple(tuple(orbit) for orbit in colorgraph._orbits([perm], len(lines)))
    flags = tuple(len(blk) == 1 for blk in blocks)
    return ColoredIncidenceGraph(tuple(lines), adjacency, blocks, flags)


def colored_automorphisms(graph: ColoredIncidenceGraph) -> PermGroup:
    """All adjacency-preserving maps sending blocks to blocks of equal flag."""
    n = len(graph.vertices)
    block_of = graph.block_of()
    colors = [("real" if graph.real_flags[block_of[v]] else "pair") for v in range(n)]
    raw = colorgraph.automorphisms(graph.adjacency, colors)
    # keep the maps that send sigma-orbit blocks to blocks (flags already match)
    elements = []
    pair_partner = {}
    for blk in graph.blocks:
        if len(blk) == 2:
            pair_partner[blk[0]] = blk[1]
            pair_partner[blk[1]] = blk[0]
    for p in raw:
        if all(p[pair_partner[v]] == pair_partner[p[v]] for v in pair_partner):
            elements.append(p)
    elements = tuple(sorted(elements))
    return PermGroup(elements, tuple(colorgraph.generating_subset(elements)))


# ---------------------------------------------------------------------------
# hexagon of degree 6: subgroup scan against the four Galois actions


def hexagon_vertex_order(lat: PicardLattice) -> list[LatticeClass]:
    """The six lines in cyclic order around the hexagon."""
    if lat.degree != 6:
        raise UnsupportedDegree("the hexagon lives on degree 6")
    lines = enumerate_exceptional(lat)
    order = [0]
    prev = None
    while len(order) < 6:
        v = order[-1]
        nxt = [w for w in range(6) if w != prev and lat.intersection(lines[v], lines[w]) == 1]
        prev = v
        order.append(nxt[0])
    return [lines[i] for i in order]


_R = (1, 2, 3, 4, 5, 0)  # rotation i -> i+1
_S = (1, 0, 5, 4, 3, 2)  # edge reflection (no fixed vertex)


def _hexagon_sigma(pattern: str) -> tuple[int, ...]:
    if pattern == "split":
        return (0, 1, 2, 3, 4, 5)
    if pattern == "fig_a":  # antipodal map: torus form
        return (3, 4, 5, 0, 1, 2)
    if pattern == "fig_b":  # vertex reflection, two real lines
        return (0, 5, 4, 3, 2, 1)
    if pattern == "fig_c":  # edge reflection, no real line: sphere form
        return (1, 0, 5, 4, 3, 2)
    raise ValueError(f"unknown sigma pattern {pattern!r} (want one of {SIGMA_PATTERNS})")


def hexagon_sigma_isometry(lat: PicardLattice, pattern: str) -> Isometry:
    """The lattice involution realizing a named Galois action on the hexagon."""
    return vertex_permutation_isometry(lat, _hexagon_sigma(pattern))


def vertex_permutation_isometry(lat: PicardLattice, perm: tuple[int, ...]) -> Isometry:
    """Extend a hexagon symmetry to the unique lattice isometry."""
    from .exactnum import _solve

    verts = hexagon_vertex_order(lat)
    # M v_i = v_perm(i) for the first four vertices: row k of M solves
    # sum_j x_j v_i[j] = v_perm(i)[k] for i < 4
    src = [v.coords for v in verts[:4]]
    dst = [[verts[perm[i]].coords[k] for i in range(4)] for k in range(4)]
    mat = _solve(src, dst)
    if mat is None or any(c.denominator != 1 for row in mat for c in row):
        raise ValueError("vertex permutation does not extend integrally")
    return Isometry(lat, [[int(c) for c in row] for row in mat])


DP5_PATTERNS = ("split", "fig_a", "fig_b")


def dp5_sigma_isometry(lat: PicardLattice, pattern: str) -> Isometry:
    """Galois action for the three degree-5 forms, as a basis permutation.

    split: four real points; fig_a: two real points and a conjugate pair
    (four real lines); fig_b: two conjugate pairs (two real lines).
    """
    if lat.degree != 5:
        raise UnsupportedDegree("dp5 sigma patterns live on degree 5")
    point_perm = {
        "split": (1, 2, 3, 4),
        "fig_a": (1, 2, 4, 3),
        "fig_b": (2, 1, 4, 3),
    }.get(pattern)
    if point_perm is None:
        raise ValueError(f"unknown sigma pattern {pattern!r} (want one of {DP5_PATTERNS})")
    mat = [[0] * 5 for _ in range(5)]
    mat[0][0] = 1
    for i, j in enumerate(point_perm, start=1):
        mat[j][i] = 1
    return Isometry(lat, mat)


def _dihedral_subgroups():
    """All subgroups of D_6 = <r, s> acting on hexagon positions."""
    ident = tuple(range(6))
    elements = set()
    frontier = [ident]
    elements.add(ident)
    while frontier:
        cur = frontier.pop()
        for g in (_R, _S):
            nxt = colorgraph.compose(g, cur)
            if nxt not in elements:
                elements.add(nxt)
                frontier.append(nxt)
    subs = set()
    elems = sorted(elements)
    for a in elems:
        for b in elems:
            subs.add(tuple(sorted(colorgraph.close_permutations([a, b], 6))))
    return sorted(subs, key=lambda s: (len(s), s))


def _word_table() -> dict[tuple[int, ...], str]:
    words = {}
    rot = tuple(range(6))
    for a in range(6):
        words[rot] = {0: "1", 1: "r"}.get(a, f"r^{a}")
        words[colorgraph.compose(rot, _S)] = {0: "s", 1: "rs"}.get(a, f"r^{a}s")
        rot = colorgraph.compose(_R, rot)
    return words


_WORDS = _word_table()
_REFL_RANK = {"s": 0, "rs": 1, "r^2s": 2, "r^3s": 3, "r^4s": 4, "r^5s": 5}


def subgroup_name(sub) -> str:
    """Canonical generator word for a subgroup of D_6."""
    rotations = [p for p in sub if "s" not in _WORDS[p]]
    reflections = [p for p in sub if "s" in _WORDS[p]]
    rot_gen = {1: "1", 2: "r^3", 3: "r^2", 6: "r"}[len(rotations)]
    if not reflections:
        return f"<{rot_gen}>"
    refl = _WORDS[sorted(reflections, key=lambda p: _REFL_RANK[_WORDS[p]])[0]]
    if rot_gen == "1":
        return f"<{refl}>"
    return f"<{rot_gen},{refl}>"


def hexagon_minimal_subgroups(sigma_pattern: str) -> list[dict]:
    """Subgroups of D_6 whose combined action with sigma admits no invariant
    set of pairwise-disjoint hexagon vertices.

    Exhaustive over all 16 subgroups; the combined action is the permutation
    closure of the subgroup together with the Galois involution.
    """
    sigma = _hexagon_sigma(sigma_pattern)
    results = []
    for sub in _dihedral_subgroups():
        combined = colorgraph.close_permutations(list(sub) + [sigma], 6)
        minimal = True
        for orbit in colorgraph._orbits(sorted(combined), 6):
            if all((i - j) % 6 not in (1, 5) for i in orbit for j in orbit if i != j):
                minimal = False
                break
        if minimal:
            results.append(
                {
                    "name": subgroup_name(sub),
                    "order": len(sub),
                    "elements": [list(p) for p in sorted(sub)],
                }
            )
    return results
