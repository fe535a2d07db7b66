"""Invariant binary forms of the standard cyclic/dihedral 2D representations.

The standard representation sends the rotation generator to the matrix with
cos(2 pi/n) and sin(2 pi/n) entries, realized exactly in Q(zeta_lcm(4,n)),
and the dihedral reflection to diag(1, -1).  Invariant subspaces come from
the exact Reynolds projector, reduced to a rational integral echelon basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from .exactnum import CycloNum, cyclo_make

_ZERO = CycloNum.rational(0)
_ONE = CycloNum.rational(1)


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form in x, y: coeffs for x^k, x^(k-1) y, ..., y^k."""

    degree: int
    coeffs: tuple[CycloNum, ...]

    def __post_init__(self):
        coeffs = tuple(
            c if isinstance(c, CycloNum) else CycloNum.rational(c) for c in self.coeffs
        )
        if len(coeffs) != self.degree + 1:
            raise ValueError("coefficient vector length must be degree + 1")
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def from_rational(coeffs) -> "BinaryForm":
        return BinaryForm(len(list(coeffs)) - 1, tuple(CycloNum.rational(c) for c in coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c.is_rational() for c in self.coeffs)

    def rational_coeffs(self) -> tuple[Fraction, ...]:
        return tuple(c.as_rational() for c in self.coeffs)

    def evaluate(self, x, y) -> CycloNum:
        if not isinstance(x, CycloNum):
            x = CycloNum.rational(x)
        if not isinstance(y, CycloNum):
            y = CycloNum.rational(y)
        acc = _ZERO
        for i, c in enumerate(self.coeffs):
            acc = acc + c * x ** (self.degree - i) * y ** i
        return acc

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if other.degree != self.degree:
            raise ValueError("cannot add forms of different degrees")
        return BinaryForm(
            self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "BinaryForm":
        return BinaryForm(self.degree, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            out = [_ZERO] * (self.degree + other.degree + 1)
            for i, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                for j, b in enumerate(other.coeffs):
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
            return BinaryForm(self.degree + other.degree, tuple(out))
        scalar = other if isinstance(other, CycloNum) else CycloNum.rational(other)
        return BinaryForm(self.degree, tuple(scalar * c for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "BinaryForm":
        out = BinaryForm(0, (_ONE,))
        for _ in range(k):
            out = out * self
        return out

    def substituted(self, mat) -> "BinaryForm":
        """f((x, y) -> M (x, y)) for a 2x2 matrix of cyclotomic entries."""
        a, b = mat[0]
        c, d = mat[1]
        k = self.degree
        out = [_ZERO] * (k + 1)
        for i, coeff in enumerate(self.coeffs):
            if coeff.is_zero():
                continue
            # (a x + b y)^(k-i) (c x + d y)^i
            first = _binomial_powers(a, b, k - i)
            second = _binomial_powers(c, d, i)
            for p, cf in enumerate(first):
                for q, cs in enumerate(second):
                    out[p + q] = out[p + q] + coeff * cf * cs
        return BinaryForm(k, tuple(out))

    def __repr__(self):
        terms = []
        k = self.degree
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            xs = f"x^{k - i}" if k - i > 1 else ("x" if k - i == 1 else "")
            ys = f"y^{i}" if i > 1 else ("y" if i == 1 else "")
            mono = "*".join(m for m in (xs, ys) if m) or "1"
            terms.append(f"({c})*{mono}")
        return " + ".join(terms) if terms else "0"


def _binomial_powers(a: CycloNum, b: CycloNum, n: int) -> list[CycloNum]:
    """Coefficients of (a x + b y)^n in x^n, x^(n-1) y, ..., y^n."""
    out = []
    for j in range(n + 1):
        term = CycloNum.rational(comb(n, j))
        out.append(term * a ** (n - j) * b ** j)
    return out


@dataclass(frozen=True)
class PointGroup2D:
    kind: str  # "cyclic" or "dihedral"
    n: int
    matrices: tuple[tuple[tuple[CycloNum, CycloNum], tuple[CycloNum, CycloNum]], ...]

    @property
    def order(self) -> int:
        return len(self.matrices)

    def contains_minus_identity(self) -> bool:
        minus = ((-_ONE, _ZERO), (_ZERO, -_ONE))
        return any(m == minus for m in self.matrices)


def _rotation_matrix(n: int, k: int):
    """Rotation by 2 pi k / n with exact cos/sin in Q(zeta_lcm(4, n))."""
    m = lcm(4, n)
    z = cyclo_make(m, k * (m // n))
    zi = cyclo_make(m, (-k * (m // n)) % m)
    i = cyclo_make(m, m // 4)
    half = Fraction(1, 2)
    cos = half * (z + zi)
    sin = half * (-i) * (z - zi)
    return ((cos, -sin), (sin, cos))


def standard_cyclic(n: int) -> PointGroup2D:
    mats = tuple(_rotation_matrix(n, k) for k in range(n))
    return PointGroup2D("cyclic", n, mats)


def standard_dihedral(n: int) -> PointGroup2D:
    refl = ((_ONE, _ZERO), (_ZERO, -_ONE))
    mats = []
    for k in range(n):
        rot = _rotation_matrix(n, k)
        mats.append(rot)
        # rot composed with diag(1, -1): negate the second column
        mats.append(((rot[0][0], -rot[0][1]), (rot[1][0], -rot[1][1])))
    if refl not in mats:
        raise ArithmeticError(f"the dihedral group of order {2 * n} lacks the reflection diag(1, -1)")
    return PointGroup2D("dihedral", n, tuple(mats))


def group_from_label(label: str) -> PointGroup2D:
    key = label.lower().replace("/", "")
    if key.startswith("z"):
        return standard_cyclic(int(key[1:]))
    if key.startswith("d"):
        return standard_dihedral(int(key[1:]))
    raise ValueError(f"unknown 2D point group label {label!r}")


def is_invariant(g: PointGroup2D, f: BinaryForm) -> bool:
    """Exact invariance of f under the substitution action of every element."""
    return all((f.substituted(m) - f).is_zero() for m in g.matrices)


def _rref_rational(rows: list[list[CycloNum]]) -> list[list[Fraction]]:
    """Reduced row echelon form; asserts the result is rational."""
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    out = []
    for row in rows[:r]:
        if not all(x.is_rational() for x in row):
            raise ArithmeticError("fixed space failed to descend to the rationals")
        out.append([x.as_rational() for x in row])
    return out


def _integral_primitive(row: list[Fraction]) -> list[int]:
    den = 1
    for x in row:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in row]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return [v // (g or 1) for v in ints]


def invariant_subspace(g: PointGroup2D, k: int) -> list[BinaryForm]:
    """Basis of degree-k invariant forms (integral, echelon-canonical)."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    dim = k + 1
    # Reynolds operator on coefficient vectors: average the monomial images
    columns = []
    for i in range(dim):
        mono = BinaryForm(k, tuple(_ONE if j == i else _ZERO for j in range(dim)))
        acc = [_ZERO] * dim
        for m in g.matrices:
            img = mono.substituted(m)
            acc = [a + c for a, c in zip(acc, img.coeffs)]
        columns.append([c * Fraction(1, g.order) for c in acc])
    basis = _rref_rational(columns)
    return [BinaryForm.from_rational(_integral_primitive(row)) for row in basis]


def in_span(f: BinaryForm, basis: list[BinaryForm]) -> bool:
    """Exact membership of a form in the rational span of a basis."""
    if not basis:
        return f.is_zero()
    rows = [list(b.coeffs) for b in basis] + [list(f.coeffs)]
    return mat_rank_cyclo(rows) == mat_rank_cyclo(rows[:-1])


def mat_rank_cyclo(rows) -> int:
    from .explicitlines import mat_rank

    return mat_rank(rows)


def realpart_power(n: int, take: str = "real") -> BinaryForm:
    """Re or Im of (x + iy)^n as an integer binary form."""
    if n < 1:
        raise ValueError("n must be positive")
    coeffs = []
    for j in range(n + 1):
        c = comb(n, j)
        # i^j cycles 1, i, -1, -i
        if take == "real":
            val = {0: c, 1: 0, 2: -c, 3: 0}[j % 4]
        elif take == "imag":
            val = {0: 0, 1: c, 2: 0, 3: -c}[j % 4]
        else:
            raise ValueError("take must be 'real' or 'imag'")
        coeffs.append(val)
    return BinaryForm.from_rational(coeffs)
