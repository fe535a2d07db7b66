"""Invariant Picard rank, minimality tests, and Lefschetz Euler numbers.

The invariant rank is the rank of the common fixed sublattice, computed
exactly from the generators; the tests check it against the character
formula rk Pic^(Gamma x G) = 1 + (1/|G|) sum tr(g* on K-perp).  Minimality
of del Pezzo actions is certified by the absence of an invariant set of
pairwise-disjoint exceptional classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .colorgraph import _orbits
from .exactnum import _echelon
from .picard import LatticeClass, PicardLattice, enumerate_exceptional
from .weyl import Isometry, IsometryGroup


@dataclass(frozen=True)
class ActionContext:
    """A finite group of lattice isometries, optionally with a marked real
    structure sigma (an order <= 2 member of the group)."""

    lattice: PicardLattice
    group: IsometryGroup
    sigma: Isometry | None = None

    def __post_init__(self):
        if self.group.lattice != self.lattice:
            raise ValueError("group lives on a different lattice")
        if self.sigma is not None:
            if not (self.sigma * self.sigma).is_identity():
                raise ValueError("sigma must have order at most 2")
            if self.sigma not in self.group:
                raise ValueError("sigma must be a member of the group")


def invariant_rank(ctx: ActionContext) -> int:
    """Rank of the common fixed space: the lattice rank minus the rank of the
    generators' stacked (M - I).  A group and any generating set of it fix
    the same vectors."""
    rows = [
        [x - (i == j) for j, x in enumerate(row)]
        for g in ctx.group.generators
        for i, row in enumerate(g.matrix)
    ]
    return ctx.lattice.rank - len(_echelon(rows)[1])


def is_strongly_minimal(ctx: ActionContext) -> bool:
    return invariant_rank(ctx) == 1


def find_contractible_set(ctx: ActionContext) -> list[LatticeClass] | None:
    """A nonempty invariant set of pairwise-disjoint exceptional classes.

    Invariant sets are unions of orbits, and a union is pairwise disjoint
    only if each constituent orbit is, so scanning orbits is exhaustive.
    Returns the smallest qualifying orbit (lexicographic tie-break),
    or None: absence certifies minimality for del Pezzo actions.
    """
    lat = ctx.lattice
    lines = enumerate_exceptional(lat)
    candidates = [
        orbit
        for orbit in _orbits(ctx.group.permutations, len(lines))
        if all(lat.intersection(lines[a], lines[b]) == 0 for a, b in combinations(orbit, 2))
    ]
    if not candidates:
        return None
    best = min(candidates, key=lambda idx: (len(idx), idx))
    return [lines[i] for i in best]


def lefschetz_euler(g: Isometry) -> int:
    """Euler characteristic of the fixed locus: trace on K-perp plus 3."""
    return g.trace() - 1 + 3
