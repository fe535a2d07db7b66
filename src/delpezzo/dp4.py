"""Degree-4 specialization: the sign-vector group A, the five real forms and
their Galois patterns on conic-bundle pairs, 6x6 lattice matrices, minimality
criteria (star condition, delta/epsilon counts), subgroup enumeration, and
the cyclic block characteristic of a real pencil of quadrics.

Conventions.  An automorphism is a pair (a, tau) with a in
A = {a in (Z/2)^5 : sum a_i = 0} and tau a permutation of the five pairs of
conic bundles; the product is (a, tau)(b, ups) = (a + tau.b, tau ups) with
(tau.b)_i = b_{tau^{-1}(i)}.  A form's real structure sigma is such a pair
too (its flip vector may have odd weight), and every computation here uses
this group law alone; matrices are for display and tests.  Searches run on
int codes perm_index * 32 + sign_bits and on Python-int bitsets of codes.

On the basis e_0 = -K, e_i = C_i the matrix M(a, tau), a tuple of six int
rows, fixes e_0 and sends e_j to a_t e_0 + (-1)^{a_t} e_t with t = tau(j);
it reproduces the published order-4 matrices.  M is an injective
homomorphism of (Z/2)^5 x| S_5: M(a, tau) sends M(b, ups) e_j =
b e_0 + (-1)^b e_u (u = ups(j), b = b_u) to (b + (-1)^b a') e_0 +
(-1)^(a' + b) e_{tau(u)} with a' = a_{tau(u)}, and b + (-1)^b a' is
a' + b mod 2 for bits, so M(a, tau) M(b, ups) = M(a + tau.b, tau ups); and
the +-1 entry of column j sits in row tau(j) under the entry a_{tau(j)}, so
M(a, tau) gives back (a, tau).  Hence sigma commutes with el exactly when
their matrices do, and sigma's matrix times el's is M(sigma * el).
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import permutations
from operator import itemgetter

from .picard import _ints


class NotAGroup(ValueError):
    pass


class UnsupportedForm(ValueError):
    pass


class DegeneratePencil(ValueError):
    pass


# ---------------------------------------------------------------------------
# the group A rtimes S_5


def _check_sign(bits, even: bool = True) -> tuple[int, ...]:
    """Five sign bits, each the int 0 or 1, of even weight unless even is False."""
    bits = _ints(bits, ValueError, "sign vectors have five components, each 0 or 1", 5)
    if bits.count(0) + bits.count(1) != 5:
        raise ValueError("sign vectors have five components, each 0 or 1")
    if even and sum(bits) % 2 != 0:
        raise ValueError(f"sign vector {bits} has odd weight (not in A)")
    return bits


@lru_cache(maxsize=None)
def _tables():
    """(perms, perm -> index, act, comp, inv), built on first use.  perms is
    lexicographic; act[p][b] is the bits of perms[p].b (bit j moves to bit
    p(j)); comp[p][q] indexes perms[p] perms[q] and inv[p] perms[p]^{-1}."""
    perms = list(permutations(range(5)))
    index = {p: i for i, p in enumerate(perms)}
    act = [[sum((b >> j & 1) << p[j] for j in range(5)) for b in range(32)] for p in perms]
    getters = [itemgetter(*q) for q in perms]  # getters[j](p) is perms[j] followed by p
    comp = [[index[g(p)] for g in getters] for p in perms]
    return perms, index, act, comp, [row.index(0) for row in comp]


def _mul(x: int, y: int) -> int:
    """Product of two codes: (a + p.b, p q) for x = (a, p), y = (b, q)."""
    _, _, act, comp, _ = _tables()
    return comp[x >> 5][y >> 5] << 5 | (x & 31) ^ act[x >> 5][y & 31]


def _members(bits: int) -> list[int]:
    """The codes of a bitset, in increasing order."""
    out = []
    while bits:
        out.append((bits & -bits).bit_length() - 1)
        bits &= bits - 1
    return out


class DP4Element:
    """Pair (sign, perm); perm maps pair index i (0-based) to perm[i]."""

    __slots__ = ("sign", "perm")

    def __init__(self, sign, perm=(0, 1, 2, 3, 4)):
        object.__setattr__(self, "sign", _check_sign(sign, even=False))
        object.__setattr__(self, "perm", _ints(perm, ValueError, "perm must permute the five pairs", 5))
        if sorted(self.perm) != [0, 1, 2, 3, 4]:
            raise ValueError("perm must permute the five pairs")

    def __setattr__(self, *_):
        raise AttributeError("DP4Element is immutable")

    def __eq__(self, other):
        return isinstance(other, DP4Element) and other.sign == self.sign and other.perm == self.perm

    def __hash__(self):
        return hash((self.sign, self.perm))

    @classmethod
    def from_json(cls, entry: dict) -> "DP4Element":
        """The element {"sign": five bits, "perm": a permutation of 1..5}."""
        perm = _ints(entry["perm"], ValueError, "perm must permute the five pairs", 5)
        return cls(entry["sign"], tuple(p - 1 for p in perm))

    def to_json(self) -> dict:
        return {"sign": list(self.sign), "perm": [p + 1 for p in self.perm]}

    def __mul__(self, other: "DP4Element") -> "DP4Element":
        return _element(_mul(_code(self), _code(other)))

    def inverse(self) -> "DP4Element":
        """(p^{-1}.a, p^{-1}) for self = (a, p)."""
        _, index, act, _, inv = _tables()
        p = inv[index[self.perm]]
        return _element(p << 5 | act[p][_code(self) & 31])

    def is_identity(self) -> bool:
        return self.sign == (0, 0, 0, 0, 0) and self.perm == (0, 1, 2, 3, 4)

    def order(self) -> int:
        x = _code(self)
        g, n = x, 1
        while g:
            g, n = _mul(g, x), n + 1
        return n

    def in_a(self) -> bool:
        return self.perm == (0, 1, 2, 3, 4)


IDENTITY = DP4Element((0, 0, 0, 0, 0))


def _code(el: DP4Element) -> int:
    return _tables()[1][el.perm] << 5 | sum(b << i for i, b in enumerate(el.sign))


def _element(code: int) -> DP4Element:
    return DP4Element(tuple(code >> i & 1 for i in range(5)), _tables()[0][code >> 5])


def sign_vector(bits) -> DP4Element:
    return DP4Element(_check_sign(bits))


# ---------------------------------------------------------------------------
# real forms: Galois action on the ten conic bundles, in the same encoding


class DP4RealForm:
    """flips: a flip bit per pair, indexed by target slot."""

    __slots__ = ("label", "flips", "pair_perm")

    def __init__(self, label: str, flips: tuple[int, ...], pair_perm: tuple[int, ...]):
        for name, value in zip(self.__slots__, (label, flips, pair_perm)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("DP4RealForm is immutable")

    @property
    def sigma(self) -> DP4Element:
        """The real structure as a group element (flips, pair_perm)."""
        return DP4Element(self.flips, self.pair_perm)


REAL_FORMS = {
    "split": DP4RealForm("split", (0, 0, 0, 0, 0), (0, 1, 2, 3, 4)),
    "q31_02": DP4RealForm("q31_02", (0, 1, 1, 0, 0), (0, 1, 2, 4, 3)),
    "p2_12": DP4RealForm("p2_12", (0, 0, 0, 0, 0), (0, 2, 1, 4, 3)),
    "p2_31": DP4RealForm("p2_31", (0, 0, 0, 0, 0), (0, 1, 2, 4, 3)),
    "q22_02": DP4RealForm("q22_02", (0, 0, 0, 1, 1), (0, 1, 2, 3, 4)),
}


def get_form(label: str) -> DP4RealForm:
    key = label.lower().replace("-", "_").replace("__", "_")
    aliases = {
        "q31_0_2": "q31_02",
        "p2_1_2": "p2_12",
        "p2_3_1": "p2_31",
        "q22_0_2": "q22_02",
    }
    key = aliases.get(key, key)
    if key not in REAL_FORMS:
        raise UnsupportedForm(f"unknown degree-4 real form {label!r}")
    return REAL_FORMS[key]


def _element_matrix(sign: tuple[int, ...], perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Matrix on the basis e_0 = -K, e_1..e_5 = C_1..C_5 (columns = images)."""
    mat = [[1, 0, 0, 0, 0, 0]] + [[0] * 6 for _ in range(5)]
    for j, t in enumerate(perm):
        mat[0][j + 1] = sign[t]
        mat[t + 1][j + 1] = 1 - 2 * sign[t]
    return tuple(map(tuple, mat))


def dp4_matrix(el: DP4Element, form: DP4RealForm, with_sigma: bool = False) -> tuple[tuple[int, ...], ...]:
    """Lattice matrix of el, or of form.sigma * el with with_sigma."""
    if with_sigma:
        el = form.sigma * el
    return _element_matrix(el.sign, el.perm)


# the Q_{3,1}(0,2) geometric basis (F, Fbar, E_p, E_pbar, E_q, E_qbar):
# integer coordinates of e_0 = -K and e_i = C_i
_Q31_BASIS = (
    (2, 1, 1, 1, 1, 0),
    (2, 1, 1, 1, 0, 1),
    (-1, -1, -1, -1, 0, 0),
    (-1, -1, 0, 0, 0, 0),
    (-1, 0, -1, 0, 0, 0),
    (-1, 0, 0, -1, 0, 0),
)


def dp4_matrix_geometric(el: DP4Element, with_sigma: bool = False) -> tuple[tuple[int, ...], ...]:
    """Matrix of el on Q_{3,1}(0,2) in the basis (F, Fbar, E_p, E_pbar, E_q, E_qbar)."""
    from .exactint import _solve

    m = dp4_matrix(el, REAL_FORMS["q31_02"], with_sigma)
    t = _Q31_BASIS
    # out = t m t^-1: row k of out solves t^T x = (t m)[k]
    tm = [[sum(tk[i] * m[i][j] for i in range(6)) for j in range(6)] for tk in t]
    out = _solve(list(zip(*t)), tm)
    if out is None or any(c.denominator != 1 for row in out for c in row):
        raise ArithmeticError("geometric change of basis is not integral")
    return tuple(tuple(int(c) for c in row) for row in out)


# ---------------------------------------------------------------------------
# invariant rank and the counting shortcuts


def _normalized_by_sigma(subgroup, form: DP4RealForm) -> list[DP4Element]:
    """The elements of subgroup; NotAGroup unless they form a group that the
    form's sigma (an involution) normalizes, so that {1, sigma} x subgroup
    is a group."""
    elems = list(subgroup)
    codes = [_code(g) for g in elems]
    if not any(g.is_identity() for g in elems):
        raise NotAGroup("subgroup must contain the identity")
    bits = sum(1 << x for x in set(codes))
    members = _members(bits)
    if any(_coset(members, y) & ~bits for y in codes):
        g, h = next((g, h) for g, x in zip(elems, codes) for h, y in zip(elems, codes) if not bits >> _mul(x, y) & 1)
        raise NotAGroup(f"set is not closed: {json.dumps(g.to_json())} * {json.dumps(h.to_json())} missing")
    sigma = _code(form.sigma)
    for g, x in zip(elems, codes):
        if not bits >> _mul(_mul(sigma, x), sigma) & 1:
            raise NotAGroup(f"sigma does not normalize the set: sigma * {json.dumps(g.to_json())} * sigma missing")
    return elems


def dp4_invariant_rank(subgroup, form: DP4RealForm) -> int:
    """Character-formula rank over the group {1, sigma} x subgroup; NotAGroup
    unless the subgroup is one that sigma normalizes."""
    elems = _normalized_by_sigma(subgroup, form)
    total = 0
    for g in elems:
        for m in (dp4_matrix(g, form), dp4_matrix(g, form, with_sigma=True)):
            total += sum(m[i][i] for i in range(6)) - 1
    rank, rem = divmod(total, 2 * len(elems))
    if rem:
        raise ArithmeticError(f"character average {total}/{2 * len(elems)} over a group is not an integer")
    return 1 + rank


def delta_criterion(subgroup, form: DP4RealForm) -> bool:
    """The published counting shortcut for strong minimality on P^2_R(3,1)
    and Q_{2,2}(0,2): delta_i / epsilon_i count bit values at positions 1-3
    and 4-5 over all elements.  NotAGroup, as for the rank, unless the
    subgroup (elements or sign vectors of A) is one that sigma normalizes."""
    if form.label not in ("p2_31", "q22_02"):
        raise UnsupportedForm("delta criterion applies to p2_31 and q22_02")
    elems = _normalized_by_sigma((g if isinstance(g, DP4Element) else sign_vector(g) for g in subgroup), form)
    vecs = [_check_sign(g.sign) for g in elems]
    delta0 = sum(1 for v in vecs for i in range(3) if v[i] == 0)
    delta1 = sum(1 for v in vecs for i in range(3) if v[i] == 1)
    eps0 = sum(1 for v in vecs for i in range(3, 5) if v[i] == 0)
    eps1 = sum(1 for v in vecs for i in range(3, 5) if v[i] == 1)
    if form.label == "p2_31":
        return 2 * (delta0 - delta1) + (eps0 - eps1) == 0
    return delta0 == delta1


def star_condition(subgroup) -> bool:
    """True when all elements have a_1 = 0, or all have a_4 = a_5 = 0;
    either clause certifies non-minimality on the sphere form."""
    vecs = [g.sign if isinstance(g, DP4Element) else _check_sign(g) for g in subgroup]
    return all(v[0] == 0 for v in vecs) or all(v[3] == 0 and v[4] == 0 for v in vecs)


# ---------------------------------------------------------------------------
# subgroup enumeration


def _coset(h: list[int], t: int) -> int:
    """The right coset h*t as a bitset, for h given by its codes."""
    _, _, act, comp, _ = _tables()
    p, b = t >> 5, t & 31
    return sum(1 << (comp[x >> 5][p] << 5 | (x & 31) ^ act[x >> 5][b]) for x in h)


def _extend(h: int, gens: tuple[int, ...]) -> int:
    """<gens> as a bitset of codes, for a subgroup h of it (a bitset), by
    Dimino's coset extension: grow a union of right cosets h*r until right
    multiplication by every generator maps it into itself."""
    hs = _members(h)
    span, reps = h, [0]
    for r in reps:
        for g in gens:
            t = _mul(r, g)
            if not span >> t & 1:
                span |= _coset(hs, t)
                reps.append(t)
    return span


def ambient_group(form: DP4RealForm) -> list[DP4Element]:
    """Elements that commute with the form's sigma in the group law (so their
    lattice matrices commute with sigma's), with the permutation part
    restricted to the form's published constraint."""
    if form.label == "split":
        allowed_perms = list(permutations(range(5)))
    elif form.label == "q31_02":
        allowed_perms = [(0, 1, 2, 3, 4), (0, 2, 1, 4, 3)]
    else:  # S_3 on pairs {1,2,3} x S_2 on {4,5}
        allowed_perms = [p3 + p2 for p3 in permutations(range(3)) for p2 in permutations((3, 4))]
    index, sigma = _tables()[1], _code(form.sigma)
    codes = (index[perm] << 5 | bits for perm in allowed_perms for bits in range(32) if bits.bit_count() % 2 == 0)
    return [_element(x) for x in codes if _mul(sigma, x) == _mul(x, sigma)]


def all_subgroups(elements: list[DP4Element]) -> list[frozenset[DP4Element]]:
    """Every subgroup of the (small) group given by its element list."""
    by_code = {0: IDENTITY} | {_code(g): g for g in elements}
    eset = sum(1 << _code(g) for g in set(elements))
    found = {1: ()}  # subgroup bitset -> a generating tuple; 1 is {identity}
    frontier = [1]
    while frontier:
        h = frontier.pop()
        hs, done = _members(h), h
        for g in by_code:
            if done >> g & 1:
                continue
            done |= _coset(hs, g)  # <h, x*g> = <h, g> for every x in h
            gens = found[h] + (g,)
            bigger = _extend(h, gens)
            if not bigger & ~eset and bigger not in found:
                found[bigger] = gens
                frontier.append(bigger)
    subs = (frozenset(by_code[x] for x in _members(s)) for s in found)
    return sorted(subs, key=lambda s: (len(s), sorted((g.sign, g.perm) for g in s)))


def isomorphism_label(sub) -> str:
    """Coarse isomorphism type from order statistics (enough for 2-groups
    of order <= 16 and the small extensions met here)."""
    codes = [_code(g) for g in sub]
    n = len(codes)
    orders = sorted(g.order() for g in sub)
    center = sum(1 for x in codes if all(_mul(x, y) == _mul(y, x) for y in codes))
    abelian = center == n
    key = (n, tuple(orders), abelian)
    named = {
        (1, (1,), True): "1",
        (2, (1, 2), True): "Z/2",
        (3, (1, 3, 3), True): "Z/3",
        (4, (1, 2, 2, 2), True): "(Z/2)^2",
        (4, (1, 2, 4, 4), True): "Z/4",
        (6, (1, 2, 2, 2, 3, 3), False): "S_3",
        (6, (1, 2, 3, 3, 6, 6), True): "Z/6",
        (8, tuple([1] + [2] * 7), True): "(Z/2)^3",
        (8, (1, 2, 2, 2, 4, 4, 4, 4), True): "Z/4xZ/2",
        (8, (1, 2, 2, 2, 2, 2, 4, 4), False): "D_4",
        (8, (1, 2, 4, 4, 4, 4, 4, 4), False): "Q_8",
        (16, tuple([1] + [2] * 15), True): "(Z/2)^4",
    }
    if key in named:
        return named[key]
    if n == 16 and not abelian and max(orders) == 4 and center == 4:
        return "(Z/2)^3:Z/2"
    kind = "abelian" if abelian else "nonabelian"
    return f"{kind} order {n}"


class MinimalSubgroupReport:
    __slots__ = ("form", "elements", "label")

    def __init__(self, form: str, elements: tuple[DP4Element, ...], label: str):
        self.form, self.elements, self.label = form, elements, label

    @property
    def order(self) -> int:
        return len(self.elements)


MAX_ENUMERATED_AMBIENT = 192  # q22_02's 192 elements take about 3 s of CPU; split's 1920 ran past 90 s


def enumerate_strongly_minimal(form: DP4RealForm, ambient=None) -> list[MinimalSubgroupReport]:
    """All strongly minimal subgroups of the ambient, up to ambient conjugacy;
    UnsupportedForm when it has more than MAX_ENUMERATED_AMBIENT elements."""
    ambient = list(ambient) if ambient is not None else ambient_group(form)
    if len(ambient) > MAX_ENUMERATED_AMBIENT:
        raise UnsupportedForm(f"{form.label}: ambient of {len(ambient)} > {MAX_ENUMERATED_AMBIENT} elements")
    subs = all_subgroups(ambient)
    minimal = [s for s in subs if dp4_invariant_rank(s, form) == 1]
    domain = {_code(h) for h in ambient} | {0}
    conjugations = []  # g -> h g h^-1 on codes, one map per h in the ambient
    for h in ambient:
        x, xinv = _code(h), _code(h.inverse())
        conjugations.append({g: _mul(_mul(x, g), xinv) for g in domain})
    reps: list[frozenset[DP4Element]] = []
    seen: set[int] = set()  # bitsets of codes
    for s in minimal:
        codes = [_code(g) for g in s]
        if sum(1 << x for x in codes) in seen:
            continue
        reps.append(s)
        seen.update(sum(1 << conj[x] for x in codes) for conj in conjugations)
    out = []
    for s in reps:
        elems = tuple(sorted(s, key=lambda g: (g.perm, g.sign)))
        out.append(MinimalSubgroupReport(form.label, elems, isomorphism_label(s)))
    out.sort(key=lambda r: (r.order, r.label, [(g.perm, g.sign) for g in r.elements]))
    return out


# ---------------------------------------------------------------------------
# Wall characteristic of a real pencil of quadrics


class PencilSpec:
    """Diagonal part of a nonsingular real pencil: integer pairs (a_k, b_k),
    each naming the direction of a pencil point (so any rational one)."""

    __slots__ = ("real_eigen_pairs",)

    def __init__(self, real_eigen_pairs):
        pairs = tuple(_ints(p, ValueError, "pencil points are integer pairs", 2) for p in real_eigen_pairs)
        if (0, 0) in pairs:
            raise ValueError("pencil pairs must be nonzero")
        self.real_eigen_pairs = pairs


def _half(v: tuple[int, int]) -> int:
    x, y = v
    return 0 if (y > 0 or (y == 0 and x > 0)) else 1


def _angle_cmp(u: tuple[int, int], v: tuple[int, int]) -> int:
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    return (cross < 0) - (cross > 0)


def wall_characteristic(p: PencilSpec) -> tuple[int, ...]:
    """Cyclic block sizes of the points P_k (and antipodes) around the circle.

    P_k is the direction of (a_k, b_k); blocks are maximal runs of P's
    between runs of antipodes.  The cyclic sequence of P-block sizes is
    normalized to its lexicographically maximal rotation, matching the
    published table strings; its entries sum to the number of real pairs
    and their count 2g+1 determines the genus g.
    """
    import functools

    pairs = p.real_eigen_pairs
    if not pairs:
        raise DegeneratePencil("need at least one real eigenvalue pair")
    pts: list[tuple[tuple[int, int], int]] = []
    for a, b in pairs:
        g = math.gcd(a, b)
        d = (a // g, b // g)
        pts.append((d, 0))  # P point
        pts.append(((-d[0], -d[1]), 1))  # antipode Q
    seen = set()
    for v, _ in pts:
        if v in seen:
            raise DegeneratePencil("coincident or antipodal pencil points")
        seen.add(v)
    pts.sort(key=functools.cmp_to_key(lambda s, t: _angle_cmp(s[0], t[0])))
    labels = [lab for _, lab in pts]
    n = len(labels)
    # rotate so a block boundary sits at position 0
    start = next(i for i in range(n) if labels[i] != labels[(i - 1) % n])
    labels = labels[start:] + labels[:start]
    runs: list[tuple[int, int]] = []
    for lab in labels:
        if runs and runs[-1][0] == lab:
            runs[-1] = (lab, runs[-1][1] + 1)
        else:
            runs.append((lab, 1))
    p_sizes = [size for lab, size in runs if lab == 0]
    if len(p_sizes) % 2 != 1:
        raise DegeneratePencil("antipodal symmetry violated (degenerate input)")
    return max(tuple(p_sizes[i:] + p_sizes[:i]) for i in range(len(p_sizes)))
