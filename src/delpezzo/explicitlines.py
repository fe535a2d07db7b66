"""Exact coordinate models: the 27 lines on the Fermat and Clebsch cubics,
the 56 lines of the order-4 degree-2 example, twisted real structures, and
real line / real tritangent counts.

Cubic-surface lines are two-point spans with cyclotomic coordinates
(conductor 3 for Fermat, 5 for Clebsch); mixed-conductor arithmetic embeds
on demand.  Degree-2 "lines" live in weighted space and are stored by their
two defining equations w = q(x,y,z), l(x,y,z) = 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from .colorgraph import _orbits
from .exactnum import CycloNum, conj, cyclo_make


def _rat(x) -> CycloNum:
    return CycloNum.rational(x)


ZERO = _rat(0)
ONE = _rat(1)


def mat_rank(rows) -> int:
    """Rank of a matrix over cyclotomic numbers, fraction-free elimination."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        for i in range(rank + 1, len(rows)):
            if not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [pv * a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == min(len(rows), ncols):
            break
    return rank


class InvalidCocycle(ValueError):
    pass


class ProjSpaceLine:
    """Line in P^n spanned by two independent points."""

    __slots__ = ("ambient_dim", "span", "label")

    def __init__(self, ambient_dim: int, span, label: str = ""):
        self.ambient_dim, self.span, self.label = ambient_dim, span, label

    def meets(self, other: "ProjSpaceLine") -> bool:
        """Two distinct lines in P^n meet iff their four span points have rank 3."""
        stack = [list(self.span[0]), list(self.span[1]), list(other.span[0]), list(other.span[1])]
        return mat_rank(stack) <= 3

    def same_line(self, other: "ProjSpaceLine") -> bool:
        stack = [list(self.span[0]), list(self.span[1])]
        return (
            mat_rank(stack + [list(other.span[0])]) == 2
            and mat_rank(stack + [list(other.span[1])]) == 2
        )


class TwistedRealStructure:
    """automorphism o (coordinatewise conjugation); entries are cyclotomic."""

    __slots__ = ("matrix", "label")

    def __init__(self, matrix: tuple[tuple[CycloNum, ...], ...], label: str = ""):
        self.matrix, self.label = matrix, label
        m = matrix
        n = len(m)
        prod = [
            [sum((m[i][k] * conj(m[k][j]) for k in range(n)), ZERO) for j in range(n)]
            for i in range(n)
        ]
        diag = prod[0][0]
        if diag.is_zero():
            raise InvalidCocycle("degenerate twist matrix")
        for i in range(n):
            for j in range(n):
                want = diag if i == j else ZERO
                if prod[i][j] != want:
                    raise InvalidCocycle(
                        "automorphism composed with conjugation does not square to identity"
                    )

    def apply_point(self, pt) -> tuple[CycloNum, ...]:
        cpt = [conj(x) for x in pt]
        return tuple(
            sum((self.matrix[i][j] * cpt[j] for j in range(len(cpt))), ZERO)
            for i in range(len(self.matrix))
        )

    def apply_line(self, line: ProjSpaceLine) -> ProjSpaceLine:
        return ProjSpaceLine(
            line.ambient_dim,
            (self.apply_point(line.span[0]), self.apply_point(line.span[1])),
            line.label,
        )

    def fixes_line(self, line: ProjSpaceLine) -> bool:
        return line.same_line(self.apply_line(line))


def permutation_twist(n_coords: int, images_1based, label: str = "") -> TwistedRealStructure:
    """Twist by a coordinate permutation (coordinate i takes the value of
    coordinate images[i])."""
    mat = [[ZERO] * n_coords for _ in range(n_coords)]
    for i, j in enumerate(images_1based):
        mat[i][j - 1] = ONE
    return TwistedRealStructure(tuple(tuple(r) for r in mat), label)


# ---------------------------------------------------------------------------
# Fermat cubic x1^3 + x2^3 + x3^3 + x4^3 = 0


def _omega(k: int) -> CycloNum:
    return cyclo_make(3, k)


def fermat_lines() -> list[ProjSpaceLine]:
    """The alpha/beta/gamma families over Q(zeta_3), 27 lines in P^3."""
    lines = []
    for k in range(3):
        for j in range(3):
            # alpha_kj: x1 + w^k x4 = x2 + w^j x3 = 0
            p1 = (-_omega(k), ZERO, ZERO, ONE)
            p2 = (ZERO, -_omega(j), ONE, ZERO)
            lines.append(ProjSpaceLine(3, (p1, p2), f"alpha_{k}{j}"))
            # beta_kj: x1 + w^k x3 = x4 + w^j x2 = 0
            p1 = (-_omega(k), ZERO, ONE, ZERO)
            p2 = (ZERO, ONE, ZERO, -_omega(j))
            lines.append(ProjSpaceLine(3, (p1, p2), f"beta_{k}{j}"))
            # gamma_kj: x1 + w^k x2 = x4 + w^j x3 = 0
            p1 = (-_omega(k), ONE, ZERO, ZERO)
            p2 = (ZERO, ZERO, ONE, -_omega(j))
            lines.append(ProjSpaceLine(3, (p1, p2), f"gamma_{k}{j}"))
    return lines


FERMAT_TWISTS = {
    "id": (1, 2, 3, 4),
    "t12": (2, 1, 3, 4),
    "t1234": (2, 1, 4, 3),
}


def fermat_twist(name: str) -> TwistedRealStructure:
    if name not in FERMAT_TWISTS:
        raise ValueError(f"unknown Fermat twist {name!r}")
    return permutation_twist(4, FERMAT_TWISTS[name], name)


def fermat_cubic_value(pt) -> CycloNum:
    return sum((x * x * x for x in pt), ZERO)


# ---------------------------------------------------------------------------
# Clebsch diagonal cubic sum x_i = sum x_i^3 = 0 in P^4


def golden_ratio() -> CycloNum:
    """(1 + sqrt 5)/2 inside Q(zeta_5)."""
    return ONE + cyclo_make(5, 1) + cyclo_make(5, 4)


def clebsch_lines() -> list[ProjSpaceLine]:
    """15 lines L_ijk and 12 lines L_ijkl inside the hyperplane sum x = 0."""
    lines = []
    for i in range(1, 6):
        rest = [s for s in range(1, 6) if s != i]
        a = rest[0]
        for b in rest[1:]:
            c, d = [s for s in rest[1:] if s != b]
            # x_i = 0, x_a + x_b = 0, x_c + x_d = 0
            p1 = [ZERO] * 5
            p1[a - 1], p1[b - 1] = ONE, -ONE
            p2 = [ZERO] * 5
            p2[c - 1], p2[d - 1] = ONE, -ONE
            lines.append(ProjSpaceLine(4, (tuple(p1), tuple(p2)), f"L_{i}{a}{b}"))
    zeta = golden_ratio()
    for i, j in combinations(range(1, 5), 2):
        for k, l in permutations([s for s in range(1, 5) if s not in (i, j)]):
            # x_i + zeta x_j + x_k = 0, x_j + zeta x_i + x_l = 0,
            # zeta x_i + zeta x_j - x_5 = 0
            p1 = [ZERO] * 5
            p1[i - 1], p1[k - 1], p1[l - 1], p1[4] = ONE, -ONE, -zeta, zeta
            p2 = [ZERO] * 5
            p2[j - 1], p2[k - 1], p2[l - 1], p2[4] = ONE, -zeta, -ONE, zeta
            lines.append(ProjSpaceLine(4, (tuple(p1), tuple(p2)), f"L_{i}{j}{k}{l}"))
    return lines


CLEBSCH_TWISTS = {
    "id": (1, 2, 3, 4, 5),
    "t12": (2, 1, 3, 4, 5),
    "t1234": (2, 1, 4, 3, 5),
}


def clebsch_twist(name: str) -> TwistedRealStructure:
    if name not in CLEBSCH_TWISTS:
        raise ValueError(f"unknown Clebsch twist {name!r}")
    return permutation_twist(5, CLEBSCH_TWISTS[name], name)


def clebsch_cubic_value(pt) -> CycloNum:
    return sum((x * x * x for x in pt), ZERO)


def clebsch_hyperplane_value(pt) -> CycloNum:
    return sum(pt, ZERO)


# ---------------------------------------------------------------------------
# incidence, tritangent triples, real counts


def incidence_graph(lines: list[ProjSpaceLine]):
    """0/1 intersection matrix of a list of projective lines."""
    n = len(lines)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if lines[i].meets(lines[j]):
                mat[i][j] = mat[j][i] = 1
    return mat


def tritangent_triples(lines: list[ProjSpaceLine]) -> list[frozenset[int]]:
    """Pairwise-meeting triples; on a smooth cubic these are exactly the
    coplanar triples cut by tritangent planes."""
    adj = incidence_graph(lines)
    n = len(lines)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if not adj[i][j]:
                continue
            for k in range(j + 1, n):
                if adj[i][k] and adj[j][k]:
                    out.append(frozenset((i, j, k)))
    return out


def count_real_lines(lines: list[ProjSpaceLine], rs: TwistedRealStructure) -> int:
    return sum(1 for line in lines if rs.fixes_line(line))


def count_real_tritangents(lines: list[ProjSpaceLine], rs: TwistedRealStructure) -> int:
    """Number of coplanar triples stable under the twisted real structure."""
    triples = tritangent_triples(lines)
    image_index = [_line_index(lines, rs.apply_line(line)) for line in lines]
    return sum(frozenset(image_index[i] for i in tri) == tri for tri in triples)


# ---------------------------------------------------------------------------
# the degree-2 example w^2 = x^4 + 6x^2y^2 + y^4 - 2z^4 in P(1,1,1,2)

_I = cyclo_make(4, 1)


class WeightedLine:
    """Line on the degree-2 surface: w = q(x,y,z) on the plane line l = 0.

    q is stored as the 6 coefficients of (x^2, y^2, z^2, xy, xz, yz); l as
    the 3 coefficients of (x, y, z)."""

    __slots__ = ("w_form", "lin", "label")

    def __init__(self, w_form: tuple[CycloNum, ...], lin: tuple[CycloNum, ...], label: str = ""):
        self.w_form, self.lin, self.label = w_form, lin, label

    def eval_w(self, pt) -> CycloNum:
        x, y, z = pt
        q = self.w_form
        return (
            q[0] * x * x
            + q[1] * y * y
            + q[2] * z * z
            + q[3] * x * y
            + q[4] * x * z
            + q[5] * y * z
        )

    def plane_points(self) -> tuple[tuple[CycloNum, ...], tuple[CycloNum, ...]]:
        """Two independent points of the plane line l = 0."""
        a, b, c = self.lin
        if not a.is_zero():
            return ((-b / a, ONE, ZERO), (-c / a, ZERO, ONE))
        if not b.is_zero():
            return ((ONE, -a / b, ZERO), (ZERO, -c / b, ONE))
        return ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO))

    def same_line(self, other: "WeightedLine") -> bool:
        if not _parallel(self.lin, other.lin):
            return False
        p1, p2 = self.plane_points()
        mid = tuple(a + b for a, b in zip(p1, p2))
        return all(
            self.eval_w(pt) == other.eval_w(pt) for pt in (p1, p2, mid)
        )


def _parallel(u, v) -> bool:
    return all(
        (u[i] * v[j] - u[j] * v[i]).is_zero() for i in range(3) for j in range(i + 1, 3)
    )


def dp2_surface_value(x, y, z, w) -> CycloNum:
    return w * w - (x ** 4 + _rat(6) * x * x * y * y + y ** 4 - _rat(2) * z ** 4)


def dp2_example_lines() -> list[WeightedLine]:
    """The theta/eta/sigma/tau families: 56 lines over Q(zeta_8)."""
    sqrt2 = cyclo_make(8, 1) + cyclo_make(8, 7)
    i = _I
    lines = []
    # theta: w = +-sqrt2 i z^2, x = alpha1 y, alpha1 = i(+-1 +- sqrt2)
    for s in (ONE, -ONE):
        for e1 in (ONE, -ONE):
            for e2 in (ONE, -ONE):
                alpha1 = i * (e1 + e2 * sqrt2)
                q = (ZERO, ZERO, s * sqrt2 * i, ZERO, ZERO, ZERO)
                lin = (ONE, -alpha1, ZERO)
                lines.append(WeightedLine(q, lin, "theta"))
    # eta: w = +-(x^2 + 3y^2), z = alpha2 y and w = +-(3x^2 + y^2), z = alpha2 x
    alpha2s = [ONE + i, -(ONE + i), ONE - i, -(ONE - i)]  # alpha2^2 = +-2i
    for s in (ONE, -ONE):
        for a2 in alpha2s:
            lines.append(
                WeightedLine((s, _rat(3) * s, ZERO, ZERO, ZERO, ZERO), (ZERO, -a2, ONE), "eta")
            )
            lines.append(
                WeightedLine((_rat(3) * s, s, ZERO, ZERO, ZERO, ZERO), (-a2, ZERO, ONE), "eta")
            )
    # sigma: w = +-(1/sqrt2)(x-y)^2, z = alpha3(x+y) and the mirror
    inv_sqrt2 = ONE / sqrt2
    alpha3s = [inv_sqrt2, -inv_sqrt2, i * inv_sqrt2, -i * inv_sqrt2]  # alpha3^2 = +-1/2
    for s in (ONE, -ONE):
        for a3 in alpha3s:
            c = s * inv_sqrt2
            lines.append(
                WeightedLine((c, c, ZERO, -_rat(2) * c, ZERO, ZERO), (-a3, -a3, ONE), "sigma")
            )
            lines.append(
                WeightedLine((c, c, ZERO, _rat(2) * c, ZERO, ZERO), (-a3, a3, ONE), "sigma")
            )
    # tau: w = +-i(x^2 + 4ixy - y^2), z = alpha4(x + iy) and the mirror
    alpha4s = [ONE, -ONE, i, -i]  # alpha4^2 = +-1
    for s in (ONE, -ONE):
        for a4 in alpha4s:
            si = s * i
            lines.append(
                WeightedLine(
                    (si, -si, ZERO, _rat(4) * si * i, ZERO, ZERO), (-a4, -a4 * i, ONE), "tau"
                )
            )
            lines.append(
                WeightedLine(
                    (si, -si, ZERO, -_rat(4) * si * i, ZERO, ZERO), (-a4, a4 * i, ONE), "tau"
                )
            )
    return lines


def dp2_incidence(a: WeightedLine, b: WeightedLine) -> int:
    """Intersection number of two distinct lines: 2 for the pair over a common
    bitangent, else 1 or 0 by evaluation at the common plane point."""
    if _parallel(a.lin, b.lin):
        return 2
    u, v = a.lin, b.lin
    p = (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
    return 1 if a.eval_w(p) == b.eval_w(p) else 0


def dp2_incidence_matrix(lines: list[WeightedLine]):
    n = len(lines)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = dp2_incidence(lines[i], lines[j])
    return mat


def _subst_quadratic(q, m):
    """Coefficients of q((x,y,z) -> m @ (x,y,z)) for a 3x3 matrix m."""
    # symmetric matrix of q
    h = Fraction(1, 2)
    qm = [
        [q[0], q[3] * h, q[4] * h],
        [q[3] * h, q[1], q[5] * h],
        [q[4] * h, q[5] * h, q[2]],
    ]
    out = [[ZERO] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            acc = ZERO
            for a in range(3):
                for bidx in range(3):
                    acc = acc + m[a][i] * qm[a][bidx] * m[bidx][j]
            out[i][j] = acc
    return (
        out[0][0],
        out[1][1],
        out[2][2],
        out[0][1] + out[1][0],
        out[0][2] + out[2][0],
        out[1][2] + out[2][1],
    )


def _subst_linear(lin, m):
    return tuple(
        sum((lin[a] * m[a][j] for a in range(3)), ZERO) for j in range(3)
    )


def dp2_rotation(line: WeightedLine, w_sign: int) -> WeightedLine:
    """Image under [x:y:z:w] -> [-y:x:z:(+-)w] (substitute the inverse map)."""
    minv = [[ZERO, ONE, ZERO], [-ONE, ZERO, ZERO], [ZERO, ZERO, ONE]]
    q = _subst_quadratic(line.w_form, minv)
    if w_sign < 0:
        q = tuple(-c for c in q)
    return WeightedLine(q, _subst_linear(line.lin, minv), line.label)


def dp2_conjugate(line: WeightedLine) -> WeightedLine:
    return WeightedLine(
        tuple(conj(c) for c in line.w_form), tuple(conj(c) for c in line.lin), line.label
    )


def dp2_geiser(line: WeightedLine) -> WeightedLine:
    return WeightedLine(tuple(-c for c in line.w_form), line.lin, line.label)


def _line_index(lines, target) -> int:
    """The index of the first of lines that is the same line as target."""
    for i, other in enumerate(lines):
        if other.same_line(target):
            return i
    raise ValueError("image is not in the line set")


def dp2_orbit_report(w_sign: int = 1) -> dict:
    """Orbits of the order-4 rotation on the 56 lines, with disjointness and
    conjugation-stability flags (no disjoint orbit is real: minimality)."""
    lines = dp2_example_lines()
    perm = [_line_index(lines, dp2_rotation(l, w_sign)) for l in lines]
    conj_perm = [_line_index(lines, dp2_conjugate(l)) for l in lines]
    inc = dp2_incidence_matrix(lines)
    orbits = []
    for orbit in _orbits([perm], len(lines)):
        disjoint = all(inc[i][j] == 0 for i in orbit for j in orbit if i != j)
        stable = {conj_perm[i] for i in orbit} == set(orbit)
        orbits.append(
            {
                "indices": orbit,
                "size": len(orbit),
                "pairwise_disjoint": disjoint,
                "conjugation_stable": stable,
            }
        )
    return {
        "w_sign": w_sign,
        "orbits": orbits,
        "disjoint_real_orbits": [
            o for o in orbits if o["pairwise_disjoint"] and o["conjugation_stable"]
        ],
    }
