"""Integer isometries of the Picard lattice fixing the canonical class.

Matrices are tuples of int rows.  Covers reflections, groups held as a base
and strong generating set of their permutation of the lines, trace and
characteristic-polynomial fingerprints on the orthogonal complement of K,
the anti-identity on that complement (Geiser/Bertini lattice action), the
orthogonal-frame survey of involutions, and a fingerprint lookup for the
named conjugacy classes used in the degree 1-4 classifications.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain
from math import prod

from .colorgraph import _perm_inverse, _transversal
from .picard import (
    DimensionMismatch,
    LatticeClass,
    PicardLattice,
    UnsupportedDegree,
    _exceptional_cached,
    _ints,
    enumerate_exceptional,
    enumerate_roots,
    tritangent_trios,
)
from .realroots import _pdivmod, _poly_mul


class NotARoot(ValueError):
    pass


class NotAnIsometry(ValueError):
    pass


def _eye(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _matmul(a, b) -> tuple[tuple[int, ...], ...]:
    """The product of two int-row matrices."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a)


def _apply(mat, v) -> tuple[int, ...]:
    return tuple(sum(map(operator.mul, row, v)) for row in mat)


class Isometry:
    """Integer matrix, held as int rows, acting on column coordinate vectors;
    it preserves the intersection form and fixes K, which every construction
    checks."""

    __slots__ = ("lattice", "matrix")

    def __init__(self, lattice: PicardLattice, matrix):
        n = lattice.rank
        try:
            rows = [list(row) for row in matrix]
        except TypeError:
            rows = None
        if rows is None or len(rows) != n or any(len(row) != n for row in rows):
            raise NotAnIsometry(f"matrix must be {n}x{n}")
        flat = _ints(chain.from_iterable(rows), NotAnIsometry, "matrix entries must be integers")
        mat = tuple(flat[i : i + n] for i in range(0, n * n, n))
        g = lattice.gram
        if _matmul(_matmul(tuple(zip(*mat)), g), mat) != g:
            raise NotAnIsometry("matrix does not preserve the intersection form")
        k = lattice.canonical.coords
        if _apply(mat, k) != k:
            raise NotAnIsometry("matrix does not fix the canonical class")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, *_):
        raise AttributeError("Isometry is immutable")

    def apply(self, c: LatticeClass) -> LatticeClass:
        if len(c.coords) != self.lattice.rank:
            raise DimensionMismatch(f"classes must have {self.lattice.rank} coordinates")
        return LatticeClass(_apply(self.matrix, c.coords))

    def trace(self) -> int:
        return sum(row[i] for i, row in enumerate(self.matrix))

    def permutation(self, classes) -> tuple[int, ...]:
        """The index in `classes` of each class's image.

        Raises ValueError when an image is not among the classes.
        """
        coords = [c.coords for c in classes]
        index = {c: i for i, c in enumerate(coords)}
        cols = list(zip(*coords))  # cols[j]: coordinate j of every class
        rows = []
        for mrow in self.matrix:
            # coordinate i of every image, from the nonzero entries of row i
            row = None
            for m, col in zip(mrow, cols):
                if m:
                    term = col if m == 1 else [m * x for x in col]
                    row = term if row is None else list(map(operator.add, row, term))
            rows.append(row or ())  # () when there are no classes
        try:
            return tuple(index[image] for image in zip(*rows))
        except KeyError as exc:
            raise ValueError(f"the image {exc.args[0]} is not among the classes") from None

    def __mul__(self, other: "Isometry") -> "Isometry":
        return Isometry(self.lattice, _matmul(self.matrix, other.matrix))

    def inverse(self) -> "Isometry":
        # M^T G M = G and G^-1 = G for G = diag(1, -1, ..., -1) give M^-1 = G M^T G
        g = self.lattice.gram
        return Isometry(self.lattice, _matmul(_matmul(g, tuple(zip(*self.matrix))), g))

    def is_identity(self) -> bool:
        return self.matrix == _eye(self.lattice.rank)

    def __eq__(self, other):
        return (
            isinstance(other, Isometry)
            and other.lattice == self.lattice
            and other.matrix == self.matrix
        )

    def __hash__(self):
        return hash((self.lattice.degree, self.matrix))

    def __repr__(self):
        return f"Isometry(degree={self.lattice.degree}, {self.matrix})"


def identity(lat: PicardLattice) -> Isometry:
    return Isometry(lat, _eye(lat.rank))


def reflection(lat: PicardLattice, root: LatticeClass) -> Isometry:
    """Reflection v -> v + (v.s) s in a root s (s^2 = -2, s.K = 0)."""
    if lat.selfint(root) != -2 or lat.k_degree(root) != 0:
        raise NotARoot(f"{root} is not a root on degree {lat.degree}")
    s = root.coords
    gs = _apply(lat.gram, s)
    mat = [[(i == j) + x * y for j, y in enumerate(gs)] for i, x in enumerate(s)]
    return Isometry(lat, mat)


class IsometryGroup:
    """A finite group of isometries, held as a base and strong generating set
    of its permutation of the lines (Sims 1970).

    The lines span the lattice over Q on degrees <= 7, so an isometry is
    known by how it permutes them.  `permutations[k]` is the permutation of
    the lines by `generators[k]`.  `transversals[i]` maps each point of the
    orbit of `base[i]` under the stabilizer of `base[:i]` to an element
    taking `base[i]` there; the order is the product of these orbit lengths.
    """

    def __init__(self, lattice: PicardLattice, generators, permutations, base, transversals):
        self.lattice = lattice
        self.generators = tuple(generators)
        self.permutations = tuple(permutations)
        self.base = tuple(base)
        self.transversals = tuple(transversals)
        self.order = prod(len(t) for t in self.transversals)

    def __repr__(self):
        return f"IsometryGroup(degree={self.lattice.degree}, order={self.order})"


def _sift(perm, base, transversals, start):
    """Strip perm by the transversals of levels start, start+1, ...: the
    residue and the level whose orbit missed it (len(base) if none did)."""
    for i in range(start, len(base)):
        u = transversals[i].get(perm[base[i]])
        if u is None:
            return perm, i
        inv = _perm_inverse(u)
        perm = tuple(inv[x] for x in perm)
    return perm, len(base)


def _schreier_sims(gens, n):
    """Base and transversals of the group the permutations gens generate.

    Deterministic Schreier-Sims (Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005, 4.4.2), with the generators as the
    Schreier generators of a level -1.  Going down from the last level,
    every Schreier generator of a level must sift to the identity through
    the levels below it; one that does not becomes a strong generator of
    the levels down to where its sift stopped (a new base point if it
    fixes the whole base), and the check resumes at that level.
    """
    ident = tuple(range(n))
    base, level_gens, transversals = [], [], []

    def schreier_generators(i):
        reps = transversals[i]
        for u in reps.values():
            for s in level_gens[i]:
                su = tuple(s[x] for x in u)
                v = reps[su[base[i]]]
                if su != v:
                    inv = _perm_inverse(v)
                    yield tuple(inv[x] for x in su)

    i = -1
    while True:
        for h in gens if i < 0 else schreier_generators(i):
            h, j = _sift(h, base, transversals, i + 1)
            if j < len(base) or h != ident:
                break
        else:
            if i < 0:
                return base, transversals
            i -= 1
            continue
        if j == len(base):
            base.append(next(x for x in range(n) if h[x] != x))
            level_gens.append([])
            transversals.append(None)
        for lvl in range(i + 1, j + 1):
            level_gens[lvl].append(h)
            transversals[lvl] = _transversal(base[lvl], level_gens[lvl], n)
        i = j


def close_group(lat: PicardLattice, gens, *, cap=None) -> IsometryGroup:
    """The generated group, built by Schreier-Sims on the generators'
    permutations of the lines without listing an element, so W(E8) is the
    costliest input.  `cap` is ignored; perfbench/micro.py passes it."""
    gens = tuple(gens)
    for g in gens:
        if g.lattice != lat:
            raise NotAnIsometry("generator lives on a different lattice")
    if lat.degree > 7:
        raise UnsupportedDegree("group closure acts on the lines and needs degree <= 7")
    lines = _exceptional_cached(lat.degree)
    perms = [g.permutation(lines) for g in gens]
    return IsometryGroup(lat, gens, perms, *_schreier_sims(perms, len(lines)))


# ---------------------------------------------------------------------------
# fingerprints


@dataclass(frozen=True)
class ElementFingerprint:
    trace_kperp: int
    charpoly_kperp: tuple[int, ...]  # ascending coefficients, monic
    fixed_line_count: int
    order: int
    fixed_trio_count: int | None = None  # populated on degree 3 only

    def charpoly_str(self) -> str:
        terms = []
        deg = len(self.charpoly_kperp) - 1
        for i in range(deg, -1, -1):
            c = self.charpoly_kperp[i]
            if c == 0:
                continue
            mono = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if i == 0:
                terms.append(f"{c:+d}")
            elif c == 1:
                terms.append(f"+{mono}")
            elif c == -1:
                terms.append(f"-{mono}")
            else:
                terms.append(f"{c:+d}*{mono}")
        s = "".join(terms)
        return s[1:] if s.startswith("+") else s


def _charpoly_int(m) -> tuple[int, ...]:
    """det(xI - M) of int rows by Faddeev-LeVerrier, ascending coeffs.

    For an integer matrix the k-th trace is divisible by k, so every
    division is exact.
    """
    n = len(m)
    desc = [1]  # coefficients of x^n, x^(n-1), ...
    acc = m
    for k in range(1, n + 1):
        if k > 1:
            shifted = [[x + desc[-1] * (i == j) for j, x in enumerate(row)] for i, row in enumerate(acc)]
            acc = _matmul(m, shifted)
        coeff, rem = divmod(-sum(acc[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError("integer matrix has non-integer charpoly")
        desc.append(coeff)
    return tuple(reversed(desc))


def element_order(g: Isometry) -> int:
    """The least k >= 1 with g^k = 1, which exists: g preserves the negative
    definite form on the orthogonal complement of K, as K^2 > 0."""
    eye = _eye(g.lattice.rank)
    power, k = g.matrix, 1
    while power != eye:
        power = _matmul(power, g.matrix)
        k += 1
    return k


def fingerprint(lat: PicardLattice, g: Isometry) -> ElementFingerprint:
    """Trace/charpoly on the orthogonal complement of K, order, fixed lines
    and (degree 3) fixed tritangent trios, read off the line permutation."""
    full = _charpoly_int(g.matrix)
    kperp, r, _ = _pdivmod(full, (-1, 1))  # K contributes the eigenvalue-1 factor
    if r:
        raise ArithmeticError("non-exact polynomial division")
    lines = enumerate_exceptional(lat)
    perm = g.permutation(lines)
    trios = None
    if lat.degree == 3:
        index = {c.coords: i for i, c in enumerate(lines)}
        trios = 0
        for trio in tritangent_trios(lat):
            idx = {index[t.coords] for t in trio}
            trios += {perm[i] for i in idx} == idx
    return ElementFingerprint(
        trace_kperp=g.trace() - 1,
        charpoly_kperp=tuple(kperp),
        fixed_line_count=sum(i == j for i, j in enumerate(perm)),
        order=element_order(g),
        fixed_trio_count=trios,
    )


def minus_on_kperp(lat: PicardLattice) -> Isometry:
    """v -> (2/d)(v.K)K - v: the Geiser (d=2) or Bertini (d=1) lattice action."""
    if lat.degree not in (1, 2):
        raise UnsupportedDegree("minus_on_kperp is integral only on degrees 1 and 2")
    scale = 2 // lat.degree
    k = lat.canonical.coords
    gk = _apply(lat.gram, k)
    return Isometry(lat, [[scale * x * y - (i == j) for j, y in enumerate(gk)] for i, x in enumerate(k)])


def simple_roots(lat: PicardLattice) -> list[LatticeClass]:
    """Standard simple system: e_0-e_1-e_2-e_3 and e_i-e_(i+1)."""
    r = lat.r
    roots = []
    if r >= 3:
        roots.append(LatticeClass((1, -1, -1, -1) + (0,) * (r - 3)))
    for i in range(1, r):
        c = [0] * (r + 1)
        c[i], c[i + 1] = 1, -1
        roots.append(LatticeClass(tuple(c)))
    return roots


@lru_cache(maxsize=None)
def full_weyl_group(degree: int) -> IsometryGroup:
    """The group the simple reflections generate, on degrees 1..7."""
    lat = PicardLattice(degree)
    gens = [reflection(lat, s) for s in simple_roots(lat)]
    return close_group(lat, gens)


# ---------------------------------------------------------------------------
# involution frames: products of reflections in k pairwise-orthogonal roots


@dataclass(frozen=True)
class FrameScan:
    fingerprints: tuple[ElementFingerprint, ...]
    frames_examined: int
    exhausted: bool


def _positive_roots(lat: PicardLattice) -> list[tuple[int, ...]]:
    """The roots whose first nonzero coordinate is positive, as int rows."""
    return [s.coords for s in enumerate_roots(lat) if next(x for x in s.coords if x) > 0]


def frame_matrix(lat: PicardLattice, roots) -> tuple[tuple[int, ...], ...]:
    """Product of the commuting reflections in the given orthogonal roots,
    I + sum_i s_i (G s_i)^T, as int rows.  The roots may be any rows of
    integers, array rows included."""
    mat = [list(row) for row in _eye(lat.rank)]
    for s in roots:
        s = _ints(s, ValueError, "roots must be rows of integers")
        gs = _apply(lat.gram, s)
        for i, x in enumerate(s):
            if x:
                mat[i] = [a + x * y for a, y in zip(mat[i], gs)]
    return tuple(map(tuple, mat))


def involution_frames(lat: PicardLattice, k: int, budget: int = 200000) -> FrameScan:
    """Distinct fingerprints of products of reflections in k orthogonal roots.

    The scan is exhaustive when the number of frames is within budget;
    otherwise it covers the lexicographic prefix of budget frames, and
    `exhausted` is False to flag possible under-reporting.
    """
    if not 0 <= k <= lat.r:
        raise ValueError(f"k must be in 0..{lat.r}")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    if k == 0:
        return FrameScan((fingerprint(lat, identity(lat)),), 1, True)
    from . import _kernels

    pos = _positive_roots(lat)
    frames, truncated = _kernels.enumerate_cliques(_kernels._orthogonal(pos, lat.gram, pos), k, budget)
    # lines orthogonal to a root are exactly the lines fixed by its reflection
    lines = [e.coords for e in enumerate_exceptional(lat)]
    counts = _kernels.fixed_counts(_kernels._orthogonal(pos, lat.gram, lines), frames)
    fps = []
    for c, frame in _kernels._first_frames(counts, frames):
        iso = Isometry(lat, frame_matrix(lat, [pos[i] for i in frame]))
        fp = fingerprint(lat, iso)
        if fp.fixed_line_count != c:
            raise ArithmeticError(
                f"frame kernel counted {c} fixed lines, the fingerprint {fp.fixed_line_count}"
            )
        fps.append(fp)
    return FrameScan(tuple(fps), len(frames), not truncated)


# ---------------------------------------------------------------------------
# named conjugacy classes (fingerprint lookup rows from the classification
# tables; primed labels are attached from fixed-line data, never predicted)

_NAMED = {
    # degree: {(order, trace, lines): label} with lines=None as wildcard
    3: {
        (1, 6, 27): "id",
        (2, 4, 15): "A_1",
        (2, 2, 7): "A_1^2",
        (2, 0, 3): "A_1^3",
        (2, -2, 3): "A_1^4",
        (3, 3, None): "A_2",
        (3, 0, None): "A_2^2",
        (3, -3, None): "A_2^3",
    },
    4: {
        (1, 5, 16): "id",
        (2, 3, 8): "A_1",
        (2, 1, 4): "A_1^2",
        (2, 1, 0): "A_1^2'",
        (2, -1, 0): "A_1^3",
    },
    2: {
        (1, 7, 56): "id",
        (2, 5, 32): "A_1",
        (2, 3, 16): "A_1^2",
        (2, 1, 8): "A_1^3''",
        (2, 1, 0): "A_1^3'",
        (2, -1, 0): "A_1^4'",
        (2, -7, 0): "A_1^7",
    },
    1: {
        (1, 8, 240): "id",
        (2, 6, 126): "A_1",
        (2, 4, 60): "A_1^2",
        (2, 2, 26): "A_1^3",
        (2, 0, 8): "A_1^4''",
        (2, 0, 24): "A_1^4'",
        (2, -2, 6): "A_1^5",
        (2, -4, 4): "A_1^6",
        (2, -6, 2): "A_1^7",
        (2, -8, 0): "A_1^8",
        (3, 5, None): "A_2",
        (3, 2, None): "A_2^2",
        (3, -1, None): "A_2^3",
    },
}

# order-4 classes in W(E_7) are pinned by their spectra; the poly keys are
# ascending coefficients of the characteristic polynomial on the complement
# of K.  (A_3xA_1)' and (A_3xA_1)'' share every datum the tables provide.
def _poly_from_factors(*factors):
    return tuple(reduce(_poly_mul, factors, (1,)))


_X_MINUS_1 = (-1, 1)
_X_PLUS_1 = (1, 1)
_X2_PLUS_1 = (1, 0, 1)

_NAMED_ORDER4_E7 = {
    _poly_from_factors(_X2_PLUS_1, _X2_PLUS_1, _X_PLUS_1, _X_PLUS_1, _X_MINUS_1): "A_3^2",
    _poly_from_factors(
        _X2_PLUS_1, _X_PLUS_1, _X_PLUS_1, _X_PLUS_1, _X_MINUS_1, _X_MINUS_1
    ): "A_3xA_1^2",
    _poly_from_factors(
        _X2_PLUS_1, _X2_PLUS_1, _X_PLUS_1, _X_MINUS_1, _X_MINUS_1
    ): "D_4(a_1)xA_1",
    _poly_from_factors(
        _X2_PLUS_1, _X_PLUS_1, _X_PLUS_1, _X_MINUS_1, _X_MINUS_1, _X_MINUS_1
    ): "(A_3xA_1)'|(A_3xA_1)''",
}


def classify_named(lat: PicardLattice, g: Isometry) -> str | None:
    """Label from the paper's named classes, or None when no row matches."""
    fp = fingerprint(lat, g)
    if lat.degree == 2 and fp.order == 4:
        return _NAMED_ORDER4_E7.get(fp.charpoly_kperp)
    table = _NAMED.get(lat.degree, {})
    exact = table.get((fp.order, fp.trace_kperp, fp.fixed_line_count))
    if exact is not None:
        return exact
    return table.get((fp.order, fp.trace_kperp, None))
