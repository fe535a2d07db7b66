"""Invariant Picard rank, minimality tests, and Lefschetz Euler numbers.

The invariant rank comes from the character formula
rk Pic^(Gamma x G) = 1 + (1/|G|) sum tr(g* on K-perp); the independent
oracle computes the rank of the common fixed sublattice by exact kernel
computation.  Minimality of del Pezzo actions is certified by the absence
of an invariant set of pairwise-disjoint exceptional classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactnum import _echelon
from .picard import LatticeClass, PicardLattice, UnsupportedDegree, enumerate_exceptional
from .weyl import Isometry, IsometryGroup


class NonIntegralRank(ArithmeticError):
    """The trace average is not an integer: the input set is not a group."""


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
            if not np.array_equal(self.sigma.np @ self.sigma.np, np.eye(self.lattice.rank, dtype=np.int64)):
                raise ValueError("sigma must have order at most 2")
            if not self.group.contains_matrix(self.sigma.np):
                raise ValueError("sigma must be a member of the group")


def invariant_rank(ctx: ActionContext) -> int:
    """1 + average trace on K-perp over the whole group, exactly."""
    traces = np.einsum("nii->n", ctx.group.matrices) - 1
    total = int(traces.sum())
    avg = Fraction(total, ctx.group.order)
    if avg.denominator != 1:
        raise NonIntegralRank(
            f"trace sum {total} not divisible by group order {ctx.group.order}"
        )
    return 1 + int(avg)


def fixed_sublattice_rank(ctx: ActionContext) -> int:
    """Rank of the common fixed space, via the kernel of stacked (M - I).

    The fixed space of the group equals the fixed space of any generating
    set; all elements are stacked at desk scale, generators otherwise.
    """
    d = ctx.lattice.rank
    if ctx.group.order <= 256:
        mats = ctx.group.matrices
    else:
        gens = [g.np for g in ctx.group.generators]
        mats = np.stack(gens) if gens else np.eye(d, dtype=np.int64)[None]
    rows = []
    eye = np.eye(d, dtype=np.int64)
    for m in mats:
        rows.extend((m - eye).tolist())
    return d - len(_echelon(rows)[1])


def is_strongly_minimal(ctx: ActionContext) -> bool:
    return invariant_rank(ctx) == 1


def find_contractible_set(ctx: ActionContext) -> list[LatticeClass] | None:
    """A nonempty invariant set of pairwise-disjoint exceptional classes.

    Invariant sets are unions of orbits, and a union is pairwise disjoint
    only if each constituent orbit is, so scanning orbits is exhaustive.
    Returns the smallest qualifying orbit (lexicographic tie-break),
    or None: absence certifies minimality for del Pezzo actions.
    """
    if ctx.lattice.degree > 7:
        raise UnsupportedDegree("contraction search needs degree <= 7")
    lines = enumerate_exceptional(ctx.lattice)
    arr = np.array([e.coords for e in lines], dtype=np.int64)
    index = {e.coords: i for i, e in enumerate(lines)}
    gens = [g.np for g in ctx.group.generators]
    if not gens:
        gens = [np.eye(ctx.lattice.rank, dtype=np.int64)]
    perms = []
    for m in gens:
        images = arr @ m.T
        perms.append(np.array([index[tuple(int(x) for x in row)] for row in images]))
    n = len(lines)
    seen = [False] * n
    gram = arr @ ctx.lattice.gram @ arr.T
    candidates = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for p in perms:
                w = int(p[v])
                if w not in orbit:
                    orbit.add(w)
                    stack.append(w)
        for v in orbit:
            seen[v] = True
        idx = sorted(orbit)
        block = gram[np.ix_(idx, idx)]
        off = block - np.diag(np.diag(block))
        if not off.any():
            candidates.append(idx)
    if not candidates:
        return None
    best = min(candidates, key=lambda idx: (len(idx), idx))
    return [lines[i] for i in best]


def lefschetz_euler(g: Isometry) -> int:
    """Euler characteristic of the fixed locus: trace on K-perp plus 3."""
    return int(np.trace(g.np)) - 1 + 3
