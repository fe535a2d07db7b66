"""Picard lattice Z^(1,r) of a degree-d del Pezzo surface.

Basis e_0, e_1, ..., e_r with intersection form diag(1, -1, ..., -1) and
canonical class K = (-3; 1, ..., 1).  Roots are the classes with s^2 = -2,
s.K = 0; exceptional classes satisfy e^2 = -1, e.K = -1.  Enumerations are
bounded brute force with coefficient bounds derived from the norm
constraints, returned in a canonical sorted order.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache


class DimensionMismatch(ValueError):
    pass


class UnsupportedDegree(ValueError):
    pass


def _ints(values, error, message: str, n: int | None = None) -> tuple[int, ...]:
    """values as a tuple of n ints, else error(message): the one integer rule for
    values from outside.  Entries go through operator.index, so a float, string
    or None is refused, never truncated, and so is a bool (JSON true is not 1)."""
    try:
        values = tuple(values)
        out = tuple(map(operator.index, values))
    except TypeError:
        raise error(message) from None
    if bool in map(type, values) or (n is not None and len(out) != n):
        raise error(message)
    return out


class LatticeClass:
    """Integer divisor class in coordinates (e_0, e_1, ..., e_r)."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        object.__setattr__(self, "coords", _ints(coords, ValueError, "class coordinates must be integers"))

    def __setattr__(self, *_):
        raise AttributeError("LatticeClass is immutable")

    def __eq__(self, other):
        return isinstance(other, LatticeClass) and other.coords == self.coords

    def __hash__(self):
        return hash((self.coords,))

    def __add__(self, other: "LatticeClass") -> "LatticeClass":
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch("rank mismatch")
        return LatticeClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LatticeClass") -> "LatticeClass":
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch("rank mismatch")
        return LatticeClass(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LatticeClass":
        return LatticeClass(tuple(-a for a in self.coords))

    def __mul__(self, k: int) -> "LatticeClass":
        return LatticeClass(tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def __repr__(self):
        return f"({'; '.join(str(c) for c in self.coords)})"


class PicardLattice:
    """The lattice Z^(1,r) for a del Pezzo surface of degree d = 9 - r."""

    def __init__(self, degree: int):
        if not 1 <= degree <= 9:
            raise UnsupportedDegree(f"degree must be in 1..9, got {degree}")
        self.degree = degree
        self.r = 9 - degree
        self.rank = self.r + 1
        diag = (1,) + (-1,) * self.r  # gram is int rows; an array's @ takes them as an operand
        self.gram = tuple(tuple(diag[i] * (i == j) for j in range(self.rank)) for i in range(self.rank))
        self.canonical = LatticeClass((-3,) + (1,) * self.r)
        self.basis = [
            LatticeClass(tuple(1 if j == i else 0 for j in range(self.rank)))
            for i in range(self.rank)
        ]

    def __repr__(self):
        return f"PicardLattice(degree={self.degree})"

    def __eq__(self, other):
        return isinstance(other, PicardLattice) and other.degree == self.degree

    def __hash__(self):
        return hash(("PicardLattice", self.degree))

    def intersection(self, a: LatticeClass, b: LatticeClass) -> int:
        if len(a.coords) != self.rank or len(b.coords) != self.rank:
            raise DimensionMismatch(
                f"classes must have {self.rank} coordinates on degree {self.degree}"
            )
        total = a.coords[0] * b.coords[0]
        for x, y in zip(a.coords[1:], b.coords[1:]):
            total -= x * y
        return total

    def selfint(self, a: LatticeClass) -> int:
        return self.intersection(a, a)

    def k_degree(self, a: LatticeClass) -> int:
        return self.intersection(a, self.canonical)


def _enumerate_classes(r: int, self_int: int, k_int: int) -> list[LatticeClass]:
    """All (a; b_1..b_r) with a^2 - sum b_i^2 = self_int, -3a - sum b_i = k_int.

    The e_0 coefficient is bounded by Cauchy-Schwarz applied to the b-part:
    (3a + k)^2 = (sum b_i)^2 <= r (a^2 - self_int), a quadratic inequality in
    a with positive leading coefficient 9 - r > 0.  Its discriminant is
    8r(9 - r) for roots and 4r(10 - r) for (-1)-classes, never negative.
    """
    out = []
    lead = 9 - r
    disc = 36 * k_int * k_int - 4 * lead * (k_int * k_int + r * self_int)
    half_width = math.isqrt(disc) + 1
    a_lo = (-6 * k_int - half_width) // (2 * lead) - 1
    a_hi = (-6 * k_int + half_width) // (2 * lead) + 1
    vec = [0] * r

    def rec(i: int, a: int, s_left: int, q_left: int):
        m = r - i
        if q_left < 0 or s_left * s_left > m * q_left:
            return
        if m == 0:
            if s_left == 0 and q_left == 0:
                out.append(LatticeClass((a, *vec)))
            return
        bound = math.isqrt(q_left)
        for b in range(-bound, bound + 1):
            vec[i] = b
            rec(i + 1, a, s_left - b, q_left - b * b)
        vec[i] = 0

    for a in range(a_lo, a_hi + 1):
        rec(0, a, -k_int - 3 * a, a * a - self_int)
    return sorted(out, key=lambda c: c.coords)


@lru_cache(maxsize=None)
def _roots_cached(degree: int) -> tuple[LatticeClass, ...]:
    r = 9 - degree
    return tuple(_enumerate_classes(r, -2, 0))


@lru_cache(maxsize=None)
def _exceptional_cached(degree: int) -> tuple[LatticeClass, ...]:
    r = 9 - degree
    return tuple(_enumerate_classes(r, -1, -1))


def enumerate_roots(lat: PicardLattice) -> list[LatticeClass]:
    """The root system Delta_r = {s : s^2 = -2, s.K = 0}."""
    if not 1 <= lat.degree <= 7:
        raise UnsupportedDegree("roots are enumerated for degrees 1..7")
    return list(_roots_cached(lat.degree))


def enumerate_exceptional(lat: PicardLattice) -> list[LatticeClass]:
    """All classes with e^2 = -1 and e.K = -1."""
    if not 1 <= lat.degree <= 7:
        raise UnsupportedDegree("exceptional classes are enumerated for degrees 1..7")
    return list(_exceptional_cached(lat.degree))


def tritangent_trios(lat: PicardLattice) -> list[frozenset[LatticeClass]]:
    """Unordered triples of exceptional classes summing to -K (degree 3 only)."""
    if lat.degree != 3:
        raise UnsupportedDegree("tritangent trios live on degree 3")
    lines = enumerate_exceptional(lat)
    index = {e.coords: i for i, e in enumerate(lines)}
    minus_k = -lat.canonical
    trios = set()
    for i, a in enumerate(lines):
        for j in range(i + 1, len(lines)):
            b = lines[j]
            if lat.intersection(a, b) != 1:
                continue
            c = minus_k - a - b
            k = index.get(c.coords)
            if k is not None and k > j:
                trios.add(frozenset((a, b, lines[k])))
    return sorted(trios, key=lambda t: sorted(x.coords for x in t))


def incidence_matrix(lat: PicardLattice, classes: list[LatticeClass]) -> tuple[tuple[int, ...], ...]:
    """Pairwise intersection numbers as int rows."""
    return tuple(tuple(lat.intersection(a, b) for b in classes) for a in classes)
