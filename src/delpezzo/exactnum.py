"""Exact arithmetic over big rationals and cyclotomic fields Q(zeta_n), and
the package's one exact linear-algebra layer.

Every value is immutable.  A :class:`CycloNum` is stored as an integer
numerator vector over one positive denominator, in lowest terms, for the
canonical residue modulo the n-th cyclotomic polynomial, so equality of field
elements is literal equality of (numerators, denominator) at the same
conductor.  Complex conjugation is the ring map zeta -> zeta^(n-1).

Integer and rational linear systems, here and in the lattice modules, go
through fraction-free integer elimination (`_echelon`, after Bareiss 1968)
and the exact solver built on it (`_solve`); no floating point is involved.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add as _add

from .realroots import _pdivmod, _poly_mul


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("conductor must be positive")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, monic of degree phi(n)."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, list(cyclotomic_poly(d)))
    q, r, _ = _pdivmod(num, den)
    if r:
        raise ArithmeticError("non-exact polynomial division")
    return tuple(q)


@lru_cache(maxsize=None)
def _tail(n: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (i, t) with zeta_n^phi = sum t * zeta_n^i: minus Phi_n below its top term."""
    return tuple((i, -c) for i, c in enumerate(cyclotomic_poly(n)[: euler_phi(n)]) if c)


def _fold(out: list[int], phi: int, tail) -> list[int]:
    """sum out[k] * zeta_n^k reduced modulo Phi_n in place, for `tail` = _tail(n): phi entries.

    The one reduction of the module, from the top degree down:
    c z^k = c z^(k-phi) * sum t z^i, z = zeta_n.
    """
    for k in range(len(out) - 1, phi - 1, -1):
        c = out[k]
        if c:
            for i, t in tail:
                out[k - phi + i] += c * t
    del out[phi:]
    return out


def _substitute(num, m: int, e: int, size: int) -> list[int]:
    """sum num[i] * zeta_m^(i*e) as an integer vector of `size` = phi(m) entries."""
    tail = _tail(m)  # read on every substitution, as in CycloNum.__mul__
    out, top = [0] * size, size
    for i, c in enumerate(num):
        if c:
            k = i * e % m
            if k >= top:  # zeta_m^k is no basis vector: the fold reduces it
                out += [0] * (k + 1 - top)
                top = k + 1
            out[k] += c
    return out if top == size else _fold(out, size, tail)


def _dense_product(x, y, tail) -> list[int]:
    """The numerators of x * y modulo Phi_n, for phi(n) numerators each and `tail` = _tail(n)."""
    phi = len(x)
    out = [0] * (2 * phi - 1)
    ys = [(j, d) for j, d in enumerate(y) if d]
    for i, c in enumerate(x):
        if c:
            for j, d in ys:
                out[i + j] += c * d
    return _fold(out, phi, tail)


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator > 0) of an int or a Fraction."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot coerce {type(x).__name__} to a rational")


class CycloNum:
    """Element of Q(zeta_n): sum num[i] * zeta_n^i / den, reduced modulo Phi_n.

    `num` is a tuple of phi(n) ints and `den` a positive int with
    gcd(den, *num) == 1, so the form is canonical at each conductor.
    """

    __slots__ = ("n", "num", "den")

    def __new__(cls, n: int, coeffs):
        if n < 1:
            raise ValueError("conductor must be positive")
        pairs = [_ratio(c) for c in coeffs]
        den = lcm(*(q for _, q in pairs))
        return _new(n, [p * (den // q) for p, q in pairs], den)

    def __setattr__(self, *_):
        raise AttributeError("CycloNum is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients of 1, zeta_n, ..., zeta_n^(phi-1)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(value, n: int = 1) -> "CycloNum":
        p, q = _ratio(value)
        return _new(n, (p,) + (0,) * (euler_phi(n) - 1), q)

    @staticmethod
    def zeta_power(n: int, k: int) -> "CycloNum":
        k %= n
        phi = euler_phi(n)
        out = [0] * max(phi, k + 1)
        out[k] = 1
        return _new(n, _fold(out, phi, _tail(n)), 1)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def embed(self, m: int) -> "CycloNum":
        """Image under zeta_n -> zeta_m^(m/n); requires n | m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"no embedding of Q(zeta_{self.n}) into Q(zeta_{m})")
        return _new(m, _substitute(self.num, m, m // self.n, euler_phi(m)), self.den)

    def minimal_conductor_form(self) -> "CycloNum":
        """The same value expressed at the smallest conductor dividing n."""
        n = self.n
        for d in sorted(k for k in range(1, n) if n % k == 0):
            down = _descend(self, d)
            if down is not None:
                return down
        return self

    # -- arithmetic --------------------------------------------------------

    def _unify(self, other):
        if not isinstance(other, CycloNum):
            other = _coerce(other)
        if other.n == self.n:
            return self, other
        m = lcm(self.n, other.n)
        return self.embed(m), other.embed(m)

    def __add__(self, other):
        a, b = self._unify(other)
        da, db = a.den, b.den
        if da == db:
            return _new(a.n, list(map(_add, a.num, b.num)), da)
        return _new(a.n, [x * db + y * da for x, y in zip(a.num, b.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.n, [-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        a, b = self._unify(other)
        n = a.n
        # read on every product, scalings too: the first read at n builds
        # _tail(n), whose euler_phi and cyclotomic_poly calls the traced counts
        # in perfbench/digests.json include
        tail = _tail(n)
        x, y = a.num, b.num
        # a factor is rational when its phi - 1 entries after the first are 0
        rest = len(x) - 1
        if y.count(0) - (not y[0]) == rest:
            x, y = y, x
        elif x.count(0) - (not x[0]) != rest:
            return _new(n, _dense_product(x, y, tail), a.den * b.den)
        c = x[0]  # the rational factor scales the other
        # most scalings are by 0 or 1; these skip building and reducing a list
        if not c:
            return _new(n, (0,) * len(y), 1)
        if c == 1:
            return _new(n, y, a.den * b.den)
        return _new(n, [c * d for d in y], a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.is_rational():
            return CycloNum.rational(Fraction(self.den, self.num[0]), self.n)
        n, phi, den = self.n, len(self.num), self.den
        # columns of the multiplication-by-num matrix, num = self * den
        cols = [self * CycloNum.zeta_power(n, j) for j in range(phi)]
        cols = [[c * (den // col.den) for c in col.num] for col in cols]
        mat = [[cols[j][i] for j in range(phi)] for i in range(phi)]
        sol = _solve(mat, [[den] + [0] * (phi - 1)])
        return CycloNum(n, sol[0])

    def __truediv__(self, other):
        other = _coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CycloNum.rational(1, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        try:
            a, b = self._unify(other)
        except TypeError:
            return NotImplemented
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        m = self.minimal_conductor_form()
        return hash(m.as_rational() if m.n == 1 else (m.n, m.num, m.den))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mon = f"z{self.n}" if i == 1 else f"z{self.n}^{i}"
                terms.append(mon if c == 1 else f"{c}*{mon}")
        return " + ".join(terms) if terms else "0"


_set_n, _set_num, _set_den = (CycloNum.__dict__[s].__set__ for s in CycloNum.__slots__)


def _new(n: int, num, den: int) -> CycloNum:
    """The CycloNum num/den at conductor n in lowest terms, from ints: every value is built here."""
    phi = euler_phi(n)
    if len(num) != phi:
        raise ValueError(f"need {phi} coefficients for conductor {n}, got {len(num)}")
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    x = object.__new__(CycloNum)
    _set_n(x, n)
    _set_num(x, tuple(num))
    _set_den(x, den)
    return x


def _coerce(x) -> CycloNum:
    if isinstance(x, CycloNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNum.rational(x, 1)
    raise TypeError(f"cannot coerce {type(x).__name__} into a cyclotomic field")


def _descend(x: CycloNum, d: int) -> CycloNum | None:
    """Express x at conductor d | n if it lies in Q(zeta_d), else None."""
    n = x.n
    phi_d, phi_n = euler_phi(d), euler_phi(n)
    basis = [CycloNum.zeta_power(d, j).embed(n).num for j in range(phi_d)]
    mat = [[basis[j][i] for j in range(phi_d)] for i in range(phi_n)]
    sol = _solve(mat, [x.num])
    if sol is None:
        return None
    return CycloNum(d, [c / x.den for c in sol[0]])


def _echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Nonzero echelon rows of an integer matrix and their pivot columns.

    Fraction-free elimination (Bareiss 1968): each step divides by the
    previous pivot exactly, so the entries stay minors of the input and
    never leave the integers.
    """
    rows = [list(r) for r in rows]
    pivots = []
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top, p = rows[r], rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], top)]
        prev = p
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows[: len(pivots)], pivots


def _solve(mat, rhs_columns) -> list[list[Fraction]] | None:
    """One exact solution x of mat x = b per column b, free unknowns 0.

    None when any of the systems is inconsistent.
    """
    ncols = len(mat[0])
    rows, pivots = _echelon([list(r) + [b[i] for b in rhs_columns] for i, r in enumerate(mat)])
    if pivots and pivots[-1] >= ncols:
        return None
    sols = []
    for k in range(ncols, ncols + len(rhs_columns)):
        x = [Fraction(0)] * ncols
        for row, c in zip(reversed(rows), reversed(pivots)):
            x[c] = (row[k] - sum(row[j] * x[j] for j in range(c + 1, ncols))) / Fraction(row[c])
        sols.append(x)
    return sols


# ---------------------------------------------------------------------------
# module-level operations (the public surface used by the rest of the package)


def cyclo_make(n: int, k: int) -> CycloNum:
    """zeta_n^k reduced modulo the n-th cyclotomic polynomial."""
    return CycloNum.zeta_power(n, k)


def conj(x: CycloNum) -> CycloNum:
    """Complex conjugation, the ring involution zeta -> zeta^(n-1)."""
    return _new(x.n, _substitute(x.num, x.n, x.n - 1, len(x.num)), x.den)
