"""Degree-1 specialization: anticanonical model w^2 = z^3 + f4 z + f6,
singular-fiber classification over the real line, the connectedness
heuristic from fiber Euler characteristics, certification of the minimal
rows of the degree-1 classification, and star-of-David configurations of
(-1)-classes for order-3 elements of type A_2^2.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING

from . import realroots
from .colorgraph import _orbits
from .exactnum import _solve
from .picard import LatticeClass, PicardLattice, enumerate_exceptional

if TYPE_CHECKING:
    from .invforms import BinaryForm, PointGroup2D
    from .weyl import Isometry


class NonSquarefreeDiscriminant(ValueError):
    pass


class NotTypeA2Squared(ValueError):
    pass


class DP1Surface:
    """Coefficients of the reduced model w^2 = z^3 + f4(x,y) z + f6(x,y);
    disc is discriminant(self)."""

    __slots__ = ("f4", "f6", "disc")

    def __init__(self, f4: BinaryForm, f6: BinaryForm):
        if f4.degree != 4 or f6.degree != 6:
            raise ValueError("need forms of degrees 4 and 6")
        if not (f4.is_rational() and f6.is_rational()):
            raise ValueError("coefficients must be rational")
        self.f4, self.f6 = f4, f6
        self.disc = discriminant(self)
        if self.disc.is_zero():
            raise ValueError("identically-zero discriminant: every fiber is singular")


def discriminant(s: DP1Surface) -> BinaryForm:
    """The degree-12 form 4 f4^3 + 27 f6^2.

    With f4 = A/d4 and f6 = B/d6 for integer coefficient lists A and B, it
    is (4 A^3 d6^2 + 27 B^2 d4^3) / (d4^3 d6^2), multiplied out over the
    integers.
    """
    from .invforms import BinaryForm

    a, d4 = _integral(s.f4)
    b, d6 = _integral(s.f6)
    a3 = realroots._poly_mul(realroots._poly_mul(a, a), a)
    b2 = realroots._poly_mul(b, b)
    u, v = 4 * d6**2, 27 * d4**3
    den = d4**3 * d6**2
    return BinaryForm.from_rational([Fraction(u * x + v * y, den) for x, y in zip(a3, b2)])


def _integral(form: BinaryForm) -> tuple[list[int], int]:
    """(integer coefficients, d) with form = coefficients / d."""
    coeffs = form.rational_coeffs()
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _dehomogenize(form: BinaryForm) -> tuple[tuple[int, ...], int]:
    """(F(t, 1) in primitive integer form, ascending in t = x/y;
    multiplicity of the root at infinity)."""
    poly = realroots._reduce(_integral(form)[0][::-1])  # coefficients run x^k ... y^k
    return poly, form.degree - len(poly) + 1 if poly else form.degree


class FiberReport:
    """location: an isolating interval or "infinity"; kind: "acnode",
    "crunode" or "cusp"."""

    __slots__ = ("location", "kind")

    def __init__(self, location: tuple[Fraction, Fraction] | str, kind: str):
        self.location, self.kind = location, kind


def classify_fibers(s: DP1Surface) -> list[FiberReport]:
    """Real singular fibers with exact kinds.

    A root t of the discriminant gives z^3 + pz + q = (z - r)^2 (z + 2r)
    with q = 2r^3, so the node has two real branches iff r > 0: the kind is
    crunode for f6(t) > 0, acnode for f6(t) < 0, cusp when f4 and f6 share
    the root.  Cusp roots are allowed (the discriminant vanishes there to
    order exactly two); any other multiple root raises.
    """
    disc, inf_mult = _dehomogenize(s.disc)
    f4d, f4_inf = _dehomogenize(s.f4)
    f6d, f6_inf = _dehomogenize(s.f6)
    cusp = realroots.squarefree_part(realroots.poly_gcd(f4d, f6d))
    reports: list[FiberReport] = []
    # finite cusp roots
    cusp_intervals = realroots.isolate_real_roots(cusp) if len(cusp) > 1 else []
    residual = disc
    if len(cusp) > 1:
        for _ in range(2):
            q, r, _ = realroots._pdivmod(residual, cusp)
            # f4 and f6 vanish at each cusp root, so 4 f4^3 + 27 f6^2 does to order >= 2
            if r:
                raise ArithmeticError("cusp^2 leaves a remainder in the discriminant")
            residual = realroots._reduce(q)
    if not realroots.is_squarefree(residual):
        raise NonSquarefreeDiscriminant("discriminant has a non-cusp multiple root")
    if len(realroots.poly_gcd(residual, cusp)) > 1:
        raise NonSquarefreeDiscriminant("cusp root of unexpected multiplicity")
    located: list[tuple[tuple[int, ...], tuple[Fraction, Fraction], str]] = []
    for interval in cusp_intervals:
        located.append((cusp, interval, "cusp"))
    for interval in realroots.isolate_real_roots(residual):
        sign = realroots.sign_at_root(residual, interval, f6d)
        located.append((residual, interval, "crunode" if sign > 0 else "acnode"))
    # shrink until the reported intervals are pairwise disjoint
    changed = True
    while changed:
        changed = False
        for i in range(len(located)):
            for j in range(i + 1, len(located)):
                (pi, (alo, ahi), ki), (pj, (blo, bhi), kj) = located[i], located[j]
                if ahi > blo and bhi > alo:
                    located[i] = (pi, realroots.tighten_interval(pi, (alo, ahi), (ahi - alo) / 4), ki)
                    located[j] = (pj, realroots.tighten_interval(pj, (blo, bhi), (bhi - blo) / 4), kj)
                    changed = True
    located.sort(key=lambda t: t[1])
    reports.extend(FiberReport(interval, kind) for _, interval, kind in located)
    # the point at infinity [1:0]
    if inf_mult == 0:
        pass
    elif f4_inf >= 1 and f6_inf >= 1:
        if inf_mult != 2:
            raise NonSquarefreeDiscriminant("cusp at infinity of unexpected multiplicity")
        reports.append(FiberReport("infinity", "cusp"))
    elif inf_mult == 1:
        lead = s.f6.rational_coeffs()[0]  # f6(1, 0)
        reports.append(FiberReport("infinity", "crunode" if lead > 0 else "acnode"))
    else:
        raise NonSquarefreeDiscriminant("multiple discriminant root at infinity")
    return reports


def _euler_verdict(reports: list[FiberReport]) -> tuple[int, str]:
    """(acnodes - crunodes, verdict); negative Euler number certifies a
    connected real locus (hence rationality), anything else is inconclusive."""
    euler = sum(1 for r in reports if r.kind == "acnode") - sum(
        1 for r in reports if r.kind == "crunode"
    )
    return euler, ("rational" if euler < 0 else "inconclusive")


# ---------------------------------------------------------------------------
# minimal rows of the degree-1 classification table

TABLE8_ROWS = {
    # label: (2D point group acting on (x, y), Bertini present in the lift a
    # priori; for nontrivial groups the lift contains it iff -id is present)
    "Z/2": None,
    "Z/4": "z4",
    "Z/6": "z6",
    "(Z/2)^2": "d2",
    "D_4": "d4",
    "D_6": "d6",
}


def table8_certify(group: PointGroup2D | None, s: DP1Surface, bertini_in_lift: bool = False) -> bool:
    """True iff (f4, f6) lie in the group's invariant families and the lifted
    group contains the Bertini involution (via -id, or the explicit flag for
    the group generated by the Bertini involution alone)."""
    from .invforms import in_span, invariant_subspace

    if group is None:
        return bool(bertini_in_lift)
    has_bertini = bertini_in_lift or group.contains_minus_identity()
    if not has_bertini:
        return False
    fam4 = invariant_subspace(group, 4)
    fam6 = invariant_subspace(group, 6)
    return in_span(s.f4, fam4) and in_span(s.f6, fam6)


def table8_certify_row(label: str, s: DP1Surface) -> bool:
    from .invforms import group_from_label

    if label not in TABLE8_ROWS:
        raise ValueError(f"unknown table row {label!r}")
    key = TABLE8_ROWS[label]
    if key is None:
        return table8_certify(None, s, bertini_in_lift=True)
    return table8_certify(group_from_label(key), s)


# ---------------------------------------------------------------------------
# star configurations for type A_2^2 elements


class StarConfiguration:
    """Six (-1)-classes H_1..H_6 with H_i.H_(i+1) = 0, H_i.H_(i+2) = 2,
    H_i.H_(i+3) = 3 and H_i + H_(i+3) = -2K."""

    __slots__ = ("classes", "pointwise_fixed")

    def __init__(self, classes: tuple[LatticeClass, ...], pointwise_fixed: bool):
        self.classes, self.pointwise_fixed = classes, pointwise_fixed

    def validate(self, lat: PicardLattice) -> None:
        h = self.classes
        if len(h) != 6:
            raise ValueError("a star configuration has six classes")
        minus2k = -2 * lat.canonical
        for i in range(6):
            if lat.intersection(h[i], h[(i + 1) % 6]) != 0:
                raise ValueError("adjacent classes must be disjoint")
            if lat.intersection(h[i], h[(i + 2) % 6]) != 2:
                raise ValueError("next-nearest classes must meet twice")
            if lat.intersection(h[i], h[(i + 3) % 6]) != 3:
                raise ValueError("opposite classes must meet three times")
            if (h[i] + h[(i + 3) % 6]).coords != minus2k.coords:
                raise ValueError("opposite classes must sum to -2K")


def a22_element(lat: PicardLattice) -> Isometry:
    """A reference order-3 element of type A_2^2: the product of Coxeter
    rotations of two orthogonal A_2 root subsystems e_1-e_2, e_2-e_3 and
    e_4-e_5, e_5-e_6."""
    from .weyl import reflection

    if lat.degree != 1:
        raise ValueError("the reference element lives on degree 1")

    def root(i, j):
        c = [0] * 9
        c[i], c[j] = 1, -1
        return LatticeClass(tuple(c))

    r1 = reflection(lat, root(1, 2))
    r2 = reflection(lat, root(2, 3))
    r3 = reflection(lat, root(4, 5))
    r4 = reflection(lat, root(5, 6))
    return r1 * r2 * r3 * r4


def find_star_configurations(g: Isometry) -> list[StarConfiguration]:
    """For an order-3 element of type A_2^2: the two pointwise-fixed stars
    and the two stars rotated by g, pairwise asynchronized; also verifies
    the block form I_4 + [[-1,-1],[1,0]] + [[-1,-1],[1,0]] of g on the basis
    built from adjacent star classes."""
    from .weyl import _poly_from_factors, fingerprint, minus_on_kperp

    lat = g.lattice
    if lat.degree != 1:
        raise NotTypeA2Squared("star configurations live on degree 1")
    fp = fingerprint(lat, g)
    # order 3, trace 2 and charpoly (x^2+x+1)^2 (x-1)^4 on K-perp
    a22 = _poly_from_factors((1, 1, 1), (1, 1, 1), *[(-1, 1)] * 4)
    if (fp.order, fp.trace_kperp, fp.charpoly_kperp) != (3, 2, a22):
        raise NotTypeA2Squared("element is not of type A_2^2 with trace 2")
    lines = enumerate_exceptional(lat)
    perm = g.permutation(lines)
    beta_perm = minus_on_kperp(lat).permutation(lines)

    def meet(i: int, j: int) -> int:
        return lat.intersection(lines[i], lines[j])

    fixed = [i for i in range(len(lines)) if perm[i] == i]
    if len(fixed) != 12:
        raise NotTypeA2Squared(f"expected 12 fixed classes, found {len(fixed)}")

    stars: list[StarConfiguration] = []
    # pointwise-fixed stars: the hexagons of the disjointness graph on the
    # 12, each walked from its smallest class towards its smaller neighbour
    disjoint = {i: [j for j in fixed if meet(i, j) == 0] for i in fixed}
    if any(len(nbrs) != 2 for nbrs in disjoint.values()):
        raise NotTypeA2Squared("fixed classes do not split into two stars")
    remaining = set(fixed)
    while remaining:
        start = min(remaining)
        cycle, nxt = [start], disjoint[start][0]
        while nxt != start:
            a, b = disjoint[nxt]
            cycle.append(nxt)
            nxt = b if a == cycle[-2] else a
        if len(cycle) != 6:
            raise NotTypeA2Squared("fixed classes do not split into two stars")
        remaining -= set(cycle)
        stars.append(StarConfiguration(tuple(lines[i] for i in cycle), pointwise_fixed=True))
    # faithful stars: g-orbits {e, ge, g^2 e} of mutually twice-meeting
    # classes; a star is an orbit together with its Bertini image, so each
    # star arises from two orbits and is deduplicated by its index set
    star_sets: set[frozenset[int]] = set()
    for orbit in _orbits([perm], len(lines)):
        if len(orbit) == 1:
            continue
        e = orbit[0]
        ge, gge = perm[e], perm[perm[e]]
        if meet(e, ge) == meet(e, gge) == meet(ge, gge) == 2:
            ordered = [e, beta_perm[gge], ge, beta_perm[e], gge, beta_perm[ge]]
            key = frozenset(ordered)
            if key in star_sets:
                continue
            star_sets.add(key)
            stars.append(
                StarConfiguration(tuple(lines[j] for j in ordered), pointwise_fixed=False)
            )
    if sum(1 for s in stars if not s.pointwise_fixed) != 2 or len(stars) != 4:
        raise NotTypeA2Squared("expected exactly two fixed and two rotated stars")
    for s in stars:
        s.validate(lat)
    # pairwise asynchronized: every cross intersection is 1
    for a in range(4):
        for b in range(a + 1, 4):
            for ha in stars[a].classes:
                for hb in stars[b].classes:
                    if lat.intersection(ha, hb) != 1:
                        raise NotTypeA2Squared("stars are not pairwise asynchronized")
    if star_block_matrix(lat, g, stars) != _A22_BLOCK_MATRIX:
        raise NotTypeA2Squared("block matrix of g on the star basis is unexpected")
    return stars


def star_basis(lat: PicardLattice, stars: list[StarConfiguration]) -> tuple[tuple[int, ...], ...]:
    """Rows: H_1 + K and H_2 + K for each star (a basis of K-perp over Q)."""
    return tuple((s.classes[i] + lat.canonical).coords for s in stars for i in range(2))


def star_block_matrix(lat: PicardLattice, g: Isometry, stars) -> tuple[tuple[int, ...], ...]:
    """Matrix of g on the star basis, columns = images of basis vectors."""
    basis = star_basis(lat, stars)  # 8 rows of length 9, spanning K-perp
    images = [g.apply(LatticeClass(row)).coords for row in basis]
    # row k of mat solves basis^T x = images[k]
    mat = _solve(list(zip(*basis)), images)
    if mat is None or any(c.denominator != 1 for row in mat for c in row):
        raise NotTypeA2Squared("star classes do not span K-perp integrally")
    # column convention: g(b_j) = sum_i mat[i][j] b_i
    return tuple(zip(*(tuple(int(c) for c in row) for row in mat)))


# I_4 and two blocks [[-1, -1], [1, 0]]
_A22_BLOCK_MATRIX = (
    (1, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, -1, -1, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, -1, -1),
    (0, 0, 0, 0, 0, 0, 1, 0),
)
