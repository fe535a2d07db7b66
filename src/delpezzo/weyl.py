"""Integer isometries of the Picard lattice fixing the canonical class.

Covers reflection construction, group closure with a hard cap, trace and
characteristic-polynomial fingerprints on the orthogonal complement of K,
the anti-identity on that complement (Geiser/Bertini lattice action), the
orthogonal-frame survey of involutions, and a fingerprint lookup for the
named conjugacy classes used in the degree 1-4 classifications.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import _kernels
from .exactnum import _poly_mul
from .picard import (
    LatticeClass,
    PicardLattice,
    UnsupportedDegree,
    enumerate_exceptional,
    enumerate_roots,
    tritangent_trios,
)
from .realroots import _pdivmod


class NotARoot(ValueError):
    pass


class NotAnIsometry(ValueError):
    pass


class CapExceeded(ValueError):
    def __init__(self, partial_size: int, cap: int):
        super().__init__(f"group closure exceeded cap {cap} (reached {partial_size})")
        self.partial_size = partial_size
        self.cap = cap


class Isometry:
    """Integer matrix acting on column coordinate vectors, preserving the
    intersection form and fixing K."""

    __slots__ = ("lattice", "matrix", "_np")

    def __init__(self, lattice: PicardLattice, matrix, _validate: bool = True):
        arr = np.asarray(matrix)
        if arr.shape != (lattice.rank, lattice.rank):
            raise NotAnIsometry(f"matrix must be {lattice.rank}x{lattice.rank}")
        if arr.dtype.kind not in "iu":  # floats and strings are not truncated to ints
            raise NotAnIsometry("matrix entries must be integers")
        arr = arr.astype(np.int64, copy=False)
        if _validate:
            g = lattice.gram
            if not np.array_equal(arr.T @ g @ arr, g):
                raise NotAnIsometry("matrix does not preserve the intersection form")
            k = np.array(lattice.canonical.coords, dtype=np.int64)
            if not np.array_equal(arr @ k, k):
                raise NotAnIsometry("matrix does not fix the canonical class")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "matrix", tuple(tuple(int(x) for x in row) for row in arr))
        object.__setattr__(self, "_np", arr)

    def __setattr__(self, *_):
        raise AttributeError("Isometry is immutable")

    @property
    def np(self) -> np.ndarray:
        return self._np

    def apply(self, c: LatticeClass) -> LatticeClass:
        return LatticeClass(tuple(int(x) for x in self._np @ np.array(c.coords)))

    def trace(self) -> int:
        return int(np.trace(self._np))

    def permutation(self, classes) -> tuple[int, ...]:
        """The index in `classes` of each class's image.

        Raises ValueError when an image is not among the classes.
        """
        index = {c.coords: i for i, c in enumerate(classes)}
        images = np.array([c.coords for c in classes], dtype=np.int64).reshape(-1, self.lattice.rank)
        try:
            return tuple(index[tuple(row)] for row in (images @ self._np.T).tolist())
        except KeyError as exc:
            raise ValueError(f"the image {exc.args[0]} is not among the classes") from None

    def __mul__(self, other: "Isometry") -> "Isometry":
        return Isometry(self.lattice, self._np @ other._np, _validate=False)

    def inverse(self) -> "Isometry":
        # M^T G M = G and G^-1 = G for G = diag(1, -1, ..., -1) give M^-1 = G M^T G
        g = self.lattice.gram
        inv = g @ self._np.T @ g
        if not np.array_equal(self._np @ inv, np.eye(self.lattice.rank, dtype=np.int64)):
            raise NotAnIsometry("matrix does not preserve the intersection form")
        return Isometry(self.lattice, inv, _validate=False)

    def is_identity(self) -> bool:
        return np.array_equal(self._np, np.eye(self.lattice.rank, dtype=np.int64))

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
    return Isometry(lat, np.eye(lat.rank, dtype=np.int64), _validate=False)


def reflection(lat: PicardLattice, root: LatticeClass) -> Isometry:
    """Reflection v -> v + (v.s) s in a root s (s^2 = -2, s.K = 0)."""
    if lat.selfint(root) != -2 or lat.k_degree(root) != 0:
        raise NotARoot(f"{root} is not a root on degree {lat.degree}")
    s = np.array(root.coords, dtype=np.int64)
    mat = np.eye(lat.rank, dtype=np.int64) + np.outer(s, lat.gram @ s)
    return Isometry(lat, mat, _validate=False)


class IsometryGroup:
    """Finite group of isometries with cached closure, deterministic order."""

    def __init__(self, lattice: PicardLattice, generators, matrices: np.ndarray):
        self.lattice = lattice
        self.generators = tuple(generators)
        self._raw = matrices  # (order, rank, rank) integers, canonically sorted
        self.order = matrices.shape[0]

    @cached_property
    def matrices(self) -> np.ndarray:
        """The elements as an (order, rank, rank) int64 array, built on first use."""
        return np.asarray(self._raw, dtype=np.int64)

    def elements(self):
        for i in range(self.order):
            yield Isometry(self.lattice, self.matrices[i], _validate=False)

    def __contains__(self, iso: Isometry) -> bool:
        return iso.lattice == self.lattice and bool((self.matrices == iso.np).all(axis=(1, 2)).any())

    def trace_sum(self) -> int:
        """The sum of the traces of all elements."""
        return int(np.einsum("nii->", self.matrices))

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"IsometryGroup(degree={self.lattice.degree}, order={self.order})"


def _check_int8(arr: np.ndarray) -> None:
    if arr.size and (arr.min() < -128 or arr.max() > 127):
        raise ArithmeticError("group closure: a matrix entry does not fit int8")


def close_group(lat: PicardLattice, gens, cap: int = 100000) -> IsometryGroup:
    """Closure of the generated group, or CapExceeded carrying the partial size.

    Each element is held only as its int8 byte key.  An isometry fixing K
    has entries of absolute value at most 17 (reached on degree 1, where
    17 e_0 - 6(e_1 + ... + e_8) is an image of e_0), so an entry outside
    int8 raises ArithmeticError.  On entries in [-128, 127] the int8 byte
    order of two matrices equals the byte order of their little-endian int64
    `tobytes()`, so `matrices` is sorted exactly as by the int64 keys.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    gens = tuple(gens)
    for g in gens:
        if g.lattice != lat:
            raise NotAnIsometry("generator lives on a different lattice")
    d = lat.rank
    step = d * d
    gen_arr = np.stack([g.np for g in gens]) if gens else np.zeros((0, d, d), dtype=np.int64)
    _check_int8(gen_arr)
    gen_arr = gen_arr.astype(np.int32)  # int8-range factors: |product entry| <= 9 * 128^2
    frontier = np.eye(d, dtype=np.int32)[None]
    seen = {frontier.astype(np.int8).tobytes()}
    while gens:
        prods = np.matmul(gen_arr[:, None], frontier[None]).reshape(-1, d, d)
        _check_int8(prods)
        buf = prods.astype(np.int8).tobytes()
        fresh = []
        for i in range(prods.shape[0]):
            key = buf[i * step : (i + 1) * step]
            if key not in seen:
                seen.add(key)
                fresh.append(i)
                if len(seen) > cap:
                    raise CapExceeded(len(seen), cap)
        if not fresh:
            break
        frontier = prods[fresh]
    keys = b"".join(sorted(seen))
    seen.clear()  # free the keys; `matrices` builds the int64 copy only when read
    return IsometryGroup(lat, gens, np.frombuffer(keys, dtype=np.int8).reshape(-1, d, d))


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


def _charpoly_int(mat: np.ndarray) -> tuple[int, ...]:
    """det(xI - M) by Faddeev-LeVerrier over Python ints, ascending coeffs.

    For an integer matrix the k-th trace is divisible by k, so every
    division is exact.
    """
    n = mat.shape[0]
    m = [[int(x) for x in row] for row in mat]
    desc = [1]  # coefficients of x^n, x^(n-1), ...
    prod = m
    for k in range(1, n + 1):
        if k > 1:
            shifted = [
                [x + desc[-1] * (i == j) for j, x in enumerate(row)] for i, row in enumerate(prod)
            ]
            cols = list(zip(*shifted))
            prod = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in m]
        coeff, rem = divmod(-sum(prod[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError("integer matrix has non-integer charpoly")
        desc.append(coeff)
    return tuple(reversed(desc))


def element_order(g: Isometry, cap: int = 1000) -> int:
    eye = np.eye(g.lattice.rank, dtype=np.int64)
    power = g.np.copy()
    for k in range(1, cap + 1):
        if np.array_equal(power, eye):
            return k
        power = power @ g.np
    raise ArithmeticError(f"element order exceeds {cap}")


def fingerprint(lat: PicardLattice, g: Isometry) -> ElementFingerprint:
    """Trace/charpoly on the orthogonal complement of K, order, fixed lines
    and (degree 3) fixed tritangent trios, read off the line permutation."""
    full = _charpoly_int(g.np)
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
    k = np.array(lat.canonical.coords, dtype=np.int64)
    gk = lat.gram @ k
    mat = scale * np.outer(k, gk) - np.eye(lat.rank, dtype=np.int64)
    return Isometry(lat, mat)


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
def full_weyl_group(degree: int, cap: int = 60000) -> IsometryGroup:
    """Closure of the simple reflections (desk scale for degrees >= 3)."""
    lat = PicardLattice(degree)
    gens = [reflection(lat, s) for s in simple_roots(lat)]
    return close_group(lat, gens, cap=cap)


# ---------------------------------------------------------------------------
# involution frames: products of reflections in k pairwise-orthogonal roots


@dataclass(frozen=True)
class FrameScan:
    fingerprints: tuple[ElementFingerprint, ...]
    frames_examined: int
    exhausted: bool


def _positive_roots(lat: PicardLattice) -> np.ndarray:
    roots = np.array([s.coords for s in enumerate_roots(lat)], dtype=np.int64)
    keep = []
    for row in roots:
        for x in row:
            if x > 0:
                keep.append(row)
                break
            if x < 0:
                break
    return np.stack(keep)


def frame_matrix(lat: PicardLattice, roots: np.ndarray) -> np.ndarray:
    """Product of the commuting reflections in the given orthogonal roots:
    I + sum_i s_i (G s_i)^T."""
    mat = np.eye(lat.rank, dtype=np.int64)
    for s in roots:
        mat += np.outer(s, lat.gram @ s)
    return mat


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
    pos = _positive_roots(lat)
    adj = (pos @ lat.gram @ pos.T) == 0
    frames, truncated = _kernels.enumerate_cliques(adj, k, budget)
    # lines orthogonal to a root are exactly the lines fixed by its reflection
    lines = np.array([e.coords for e in enumerate_exceptional(lat)], dtype=np.int64)
    zero_masks = (pos @ lat.gram @ lines.T) == 0
    counts = _kernels.fixed_counts(zero_masks, frames)
    # return_index gives each count's first frame, in increasing count order
    values, first = np.unique(counts, return_index=True)
    fps = []
    for c, idx in zip(values[::-1].tolist(), first[::-1].tolist()):
        mat = frame_matrix(lat, pos[frames[idx]])
        iso = Isometry(lat, mat, _validate=False)
        fp = fingerprint(lat, iso)
        if fp.fixed_line_count != c:
            raise ArithmeticError(
                f"frame kernel counted {c} fixed lines, the fingerprint {fp.fixed_line_count}"
            )
        fps.append(fp)
    return FrameScan(tuple(fps), frames.shape[0], not truncated)


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
