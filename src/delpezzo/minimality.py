"""Invariant Picard rank, minimality tests, and Lefschetz Euler numbers.

The invariant rank is the rank of the common fixed sublattice, computed
exactly from the generators; the tests check it against the character
formula rk Pic^(Gamma x G) = 1 + (1/|G|) sum tr(g* on K-perp).  Minimality
of del Pezzo actions is certified by the absence of an invariant set of
pairwise-disjoint exceptional classes.
"""

from __future__ import annotations

from itertools import combinations

from .colorgraph import _orbits
from .exactnum import _echelon
from .picard import LatticeClass, enumerate_exceptional
from .weyl import Isometry, IsometryGroup


def invariant_rank(group: IsometryGroup) -> int:
    """Rank of the common fixed space: the lattice rank minus the rank of the
    generators' stacked (M - I).  A group and any generating set of it fix
    the same vectors."""
    rows = [
        [x - (i == j) for j, x in enumerate(row)]
        for g in group.generators
        for i, row in enumerate(g.matrix)
    ]
    return group.lattice.rank - len(_echelon(rows)[1])


def find_contractible_set(group: IsometryGroup) -> list[LatticeClass] | None:
    """A nonempty invariant set of pairwise-disjoint exceptional classes.

    Invariant sets are unions of orbits, and a union is pairwise disjoint
    only if each constituent orbit is, so scanning orbits is exhaustive.
    Returns the smallest qualifying orbit (lexicographic tie-break),
    or None: absence certifies minimality for del Pezzo actions.
    """
    lat = group.lattice
    lines = enumerate_exceptional(lat)
    candidates = [
        orbit
        for orbit in _orbits(group.permutations, len(lines))
        if all(lat.intersection(lines[a], lines[b]) == 0 for a, b in combinations(orbit, 2))
    ]
    if not candidates:
        return None
    best = min(candidates, key=lambda idx: (len(idx), idx))
    return [lines[i] for i in best]


def lefschetz_euler(g: Isometry) -> int:
    """Euler characteristic of the fixed locus: trace on K-perp plus 3."""
    return g.trace() - 1 + 3
