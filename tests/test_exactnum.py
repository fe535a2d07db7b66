import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from delpezzo.exactnum import (
    CycloNum,
    _echelon,
    _power_table,
    _solve,
    ParseError,
    conj,
    cyclo_make,
    cyclotomic_poly,
    euler_phi,
    parse_scalar,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert euler_phi(120) == 32
    assert len(cyclotomic_poly(120)) == 33


def test_cyclo_make_examples():
    assert cyclo_make(1, 0) == 1
    i = cyclo_make(4, 1)
    assert i * i == -1
    x = cyclo_make(5, 1) + cyclo_make(5, 4)
    # minimal polynomial of zeta_5 + zeta_5^-1 is x^2 + x - 1
    assert x * x + x - 1 == 0
    y = x + Fraction(1, 2)
    assert y * y == Fraction(5, 4)


def test_conj_examples():
    assert conj(CycloNum.rational(1)) == 1
    i = cyclo_make(4, 1)
    assert conj(i) == -i
    sqrt2 = cyclo_make(8, 1) + cyclo_make(8, 7)
    assert conj(sqrt2) == sqrt2


def test_conj_is_involution():
    rng = random.Random(7)
    for n in (5, 8, 12):
        phi = euler_phi(n)
        for _ in range(10):
            x = CycloNum(n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(phi)])
            assert conj(conj(x)) == x


def test_ring_axioms_randomized():
    rng = random.Random(11)
    phi = euler_phi(8)
    vals = [
        CycloNum(8, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(phi)])
        for _ in range(6)
    ]
    for a in vals[:3]:
        for b in vals[2:5]:
            for c in vals[3:]:
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert (a + b) * c == a * c + b * c


def test_embedding_compatibility():
    rng = random.Random(5)
    for _ in range(10):
        a = CycloNum(5, [Fraction(rng.randint(-3, 3)) for _ in range(4)])
        b = CycloNum(5, [Fraction(rng.randint(-3, 3)) for _ in range(4)])
        assert (a * b).embed(20) == a.embed(20) * b.embed(20)
        assert (a + b).embed(20) == a.embed(20) + b.embed(20)
        assert conj(a).embed(20) == conj(a.embed(20))


def test_mixed_conductor_arithmetic():
    prod = cyclo_make(3, 1) * cyclo_make(4, 1)
    assert prod == cyclo_make(12, 7)
    assert cyclo_make(6, 1) == -cyclo_make(3, 2)


def test_inverse_and_division():
    v = cyclo_make(5, 1) + 2
    assert v * v.inverse() == 1
    w = cyclo_make(8, 3) - Fraction(1, 3)
    assert (w / w) == 1
    with pytest.raises(ZeroDivisionError):
        CycloNum.rational(0).inverse()


def test_hash_respects_cross_conductor_equality():
    vals = {cyclo_make(4, 2), CycloNum.rational(-1), CycloNum.rational(-1, 8)}
    assert len(vals) == 1


def test_parser():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("z4^2") == -1
    assert parse_scalar("z8^1 + z8^-1") == cyclo_make(8, 1) + cyclo_make(8, 7)
    assert parse_scalar("(1 + z4) * (1 - z4)") == 2
    assert parse_scalar("-2 + 3 * 1/2") == Fraction(-1, 2)
    with pytest.raises(ParseError):
        parse_scalar("z")
    with pytest.raises(ParseError):
        parse_scalar("1 +")


def test_parser_bounds_the_conductor_of_a_literal():
    """A literal is computed at the lcm of its z<n>, which may be at most
    1000; z31 and z37 are each below it, their lcm 1147 is not."""
    assert parse_scalar("z1000^0") == 1
    assert parse_scalar("z8^4 * z125^0") == -1
    for text in ("z1001", "2 * z1001^0", "z31 + z37", "z0 + z1001"):
        with pytest.raises(ParseError, match="exceeds 1000"):
            parse_scalar(text)


# ---------------------------------------------------------------------------
# oracle: CycloNum against a slow Fraction implementation of Q(zeta_n), the
# schoolbook product reduced through the table of powers of zeta_n

ORACLE_CONDUCTORS = (1, 2, 3, 4, 5, 8, 12, 20, 28, 36, 44, 120)
# operand conductors whose products and sums live at their lcm
MIXED_CONDUCTORS = ((4, 6), (5, 8), (3, 20), (1, 44))


def _ref_combine(terms, n):
    """sum c * zeta_n^k over (c, k) in terms, as Fractions in the power basis."""
    table = _power_table(n)
    out = [Fraction(0)] * euler_phi(n)
    for c, k in terms:
        if c:
            for j, t in enumerate(table[k % n]):
                out[j] += c * t
    return out


def _ref_mul(n, a, b):
    return _ref_combine([(x * y, i + j) for i, x in enumerate(a) for j, y in enumerate(b)], n)


def _ref_embed(n, a, m):
    return _ref_combine([(x, i * (m // n)) for i, x in enumerate(a)], m)


def _ref_conj(n, a):
    return _ref_combine([(x, n - i) for i, x in enumerate(a)], n)


def _random_value(rng, n):
    """A random element: dense, sparse or rational, with small denominators."""
    phi = euler_phi(n)
    kind = rng.randrange(3)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(phi)]
    if kind == 1:
        coeffs = [c if rng.random() < 0.3 else Fraction(0) for c in coeffs]
    elif kind == 2:
        coeffs = [coeffs[0]] + [Fraction(0)] * (phi - 1)
    return CycloNum(n, coeffs)


def _zero_constant_values(rng, n):
    """Zero, and c * zeta_n^k for k = 1 and k = phi(n) - 1: values with constant term 0."""
    phi = euler_phi(n)
    values = [CycloNum(n, [0] * phi)]
    for k in sorted({1, phi - 1} & set(range(1, phi))):
        coeffs = [Fraction(0)] * phi
        coeffs[k] = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
        values.append(CycloNum(n, coeffs))
    return values


def _check_pair(a, b):
    """a * b, b * a, a + b and b + a against the oracle, both embedded into the lcm."""
    m = lcm(a.n, b.n)
    x, y = _ref_embed(a.n, a.coeffs, m), _ref_embed(b.n, b.coeffs, m)
    want_prod, want_sum = _ref_mul(m, x, y), [u + v for u, v in zip(x, y)]
    for got, want in ((a * b, want_prod), (b * a, want_prod), (a + b, want_sum), (b + a, want_sum)):
        assert got.n == m and list(got.coeffs) == want
        _assert_canonical(got)


def _assert_canonical(x):
    assert len(x.num) == euler_phi(x.n)
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert CycloNum(x.n, x.coeffs) == x
    assert (CycloNum(x.n, x.coeffs).num, CycloNum(x.n, x.coeffs).den) == (x.num, x.den)


def test_arithmetic_matches_fraction_oracle():
    rng = random.Random(2024)
    for n in ORACLE_CONDUCTORS:
        trials = 3 if n == 120 else 12
        for _ in range(trials):
            a, b = _random_value(rng, n), _random_value(rng, n)
            for x in (a, b):
                _assert_canonical(x)
            prod, total = a * b, a + b
            assert list(prod.coeffs) == _ref_mul(n, a.coeffs, b.coeffs)
            assert list(total.coeffs) == [x + y for x, y in zip(a.coeffs, b.coeffs)]
            assert list((a - b).coeffs) == [x - y for x, y in zip(a.coeffs, b.coeffs)]
            assert list(conj(a).coeffs) == _ref_conj(n, a.coeffs)
            for m in (2 * n, 3 * n):
                assert list(a.embed(m).coeffs) == _ref_embed(n, a.coeffs, m)
                _assert_canonical(a.embed(m))
            for y in (prod, total, a - b, -a, conj(a)):
                _assert_canonical(y)
            if not a.is_zero():
                inv = a.inverse()
                _assert_canonical(inv)
                assert _ref_mul(n, a.coeffs, inv.coeffs) == _ref_combine([(Fraction(1), 0)], n)
    # zero and monomials with constant term 0 against each other and against
    # a rational and a random value, and int and Fraction operands on either side
    for n in ORACLE_CONDUCTORS:
        values = _zero_constant_values(rng, n) + [CycloNum.rational(Fraction(-5, 3), n), _random_value(rng, n)]
        for i, a in enumerate(values):
            for b in values[i:]:
                _check_pair(a, b)
            for r in (0, 1, -1, 3, Fraction(-2, 3)):
                scaled = [r * c for c in a.coeffs]
                shifted = [a.coeffs[0] + r, *a.coeffs[1:]]
                for got, want in ((a * r, scaled), (r * a, scaled), (a + r, shifted), (r + a, shifted)):
                    assert got.n == n and list(got.coeffs) == want
                    _assert_canonical(got)
    for n1, n2 in MIXED_CONDUCTORS:
        for a in _zero_constant_values(rng, n1) + [_random_value(rng, n1)]:
            for b in _zero_constant_values(rng, n2) + [_random_value(rng, n2)]:
                _check_pair(a, b)


def test_hash_is_canonical_across_embeddings():
    rng = random.Random(99)
    for n in ORACLE_CONDUCTORS:
        x = _random_value(rng, n)
        for m in (2 * n, 3 * n):
            y = x.embed(m)
            assert x == y and hash(x) == hash(y)
        assert hash(x) == hash(x)  # computed afresh on every call
    # values that live in a smaller field than their conductor says
    assert hash(CycloNum.rational(Fraction(3, 7), 12)) == hash(CycloNum.rational(Fraction(3, 7)))
    assert hash(cyclo_make(3, 1).embed(36)) == hash(cyclo_make(12, 4))
    # a rational value hashes as the int or Fraction it equals
    assert hash(cyclo_make(8, 4)) == hash(-1)
    assert {Fraction(1, 2): "half"}[CycloNum.rational(Fraction(1, 2), 4)] == "half"


def _ref_rank_consistent(mat, rhs_columns):
    """Fraction Gauss-Jordan: the rank of mat, and whether every mat x = b is solvable."""
    ncols = len(mat[0])
    rows = [[Fraction(v) for v in r] + [Fraction(b[i]) for b in rhs_columns] for i, r in enumerate(mat)]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [v / rows[rank][c] for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank, not any(any(r[ncols:]) for r in rows[rank:])


def _linear_systems(rng):
    """(kind, matrix, rhs columns) over seeded integer matrices of every shape."""

    def rand(m, n, size=5):
        return [[rng.randint(-size, size) for _ in range(n)] for _ in range(m)]

    def times(a, x):
        return [sum(r[j] * x[j] for j in range(len(x))) for r in a]

    for trial in range(40):
        size = 10**15 if trial % 4 == 0 else 5  # beyond int64 in the products
        n = rng.randint(1, 6)
        a = rand(n, n, size)
        while _ref_rank_consistent(a, [])[0] < n:
            a = rand(n, n, size)
        yield "square nonsingular", a, [times(a, rand(1, n)[0]), rand(1, n)[0]]
        if n > 1:
            b = rand(n - 1, n, size)
            b.append([sum(k * r[j] for k, r in zip(rand(1, n - 1)[0], b)) for j in range(n)])
            rng.shuffle(b)
            yield "square singular", b, [times(b, rand(1, n)[0])]
            yield "square singular", b, [rand(1, n)[0], times(b, rand(1, n)[0])]
        m = n + rng.randint(1, 4)
        t = rand(m, n, size)
        yield "tall consistent", t, [times(t, rand(1, n)[0]) for _ in range(3)]
        yield "tall inconsistent", t, [times(t, rand(1, n)[0]), rand(1, m, size)[0]]
        w = rand(n, m, size)
        yield "wide", w, [rand(1, n)[0]]
        z = rand(m, m)
        for i in rng.sample(range(m), rng.randint(1, m - 1)):
            z[i] = [0] * m
        for j in rng.sample(range(m), rng.randint(1, m - 1)):
            for r in z:
                r[j] = 0
        yield "zero rows and columns", z, [times(z, rand(1, m)[0]), rand(1, m)[0]]


def test_echelon_and_solve_match_fraction_oracle():
    seen = set()
    for kind, mat, cols in _linear_systems(random.Random(7)):
        rank, consistent = _ref_rank_consistent(mat, cols)
        rows, pivots = _echelon(mat)
        assert len(pivots) == len(rows) == rank
        assert pivots == sorted(set(pivots))
        for row, c in zip(rows, pivots):
            assert all(type(v) is int for v in row)
            assert row[c] != 0 and not any(row[:c])
        sols = _solve(mat, cols)
        assert (sols is None) == (not consistent)
        seen.add((kind, consistent))
        if sols is None:
            continue
        assert len(sols) == len(cols)
        for x, b in zip(sols, cols):
            assert [sum(r[j] * x[j] for j in range(len(x))) for r in mat] == b
            assert all(x[j] == 0 for j in range(len(x)) if j not in pivots)
    # every kind was met, and both outcomes where the kind allows them
    assert seen >= {
        ("square nonsingular", True),
        ("square singular", True),
        ("square singular", False),
        ("tall consistent", True),
        ("tall inconsistent", False),
        ("wide", True),
        ("zero rows and columns", True),
        ("zero rows and columns", False),
    }
