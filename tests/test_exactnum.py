import random
from fractions import Fraction
from math import gcd

import pytest

from delpezzo.exactnum import (
    CycloNum,
    _power_table,
    NonRealInput,
    ParseError,
    conj,
    cyclo_make,
    cyclotomic_poly,
    euler_phi,
    float_value,
    parse_scalar,
    real_sign,
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


def test_real_sign():
    assert real_sign(CycloNum.rational(0)) == 0
    assert real_sign(CycloNum.rational(Fraction(-3, 2))) == -1
    sqrt2 = cyclo_make(8, 1) + cyclo_make(8, 7)
    assert real_sign(sqrt2) == 1
    assert real_sign(-sqrt2) == -1
    with pytest.raises(NonRealInput):
        real_sign(cyclo_make(4, 1))


def test_real_sign_agrees_with_floats():
    rng = random.Random(3)
    for n in (5, 8, 12):
        phi = euler_phi(n)
        for _ in range(15):
            x = CycloNum(n, [Fraction(rng.randint(-3, 3)) for _ in range(phi)])
            x = x + conj(x)  # force a real element
            if x.is_zero():
                continue
            fsign = 1 if float_value(x).real > 0 else -1
            assert abs(float_value(x).imag) < 1e-9
            assert real_sign(x) == fsign


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


def test_parser_context_conductor(monkeypatch):
    monkeypatch.setenv("DELPEZZO_CONDUCTOR", "120")
    val = parse_scalar("z8^1")
    assert val.n == 120
    assert val == cyclo_make(8, 1)


# ---------------------------------------------------------------------------
# oracle: CycloNum against a slow Fraction implementation of Q(zeta_n), the
# schoolbook product reduced through the table of powers of zeta_n

ORACLE_CONDUCTORS = (1, 3, 4, 5, 8, 12, 20, 28, 36, 44, 120)


def _ref_combine(terms, n):
    """sum c * zeta_n^k over (c, k) in terms, as Fractions in the power basis."""
    table = _power_table(n)
    out = [Fraction(0)] * euler_phi(n)
    for c, k in terms:
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


def test_hash_is_canonical_across_embeddings():
    rng = random.Random(99)
    for n in ORACLE_CONDUCTORS:
        x = _random_value(rng, n)
        for m in (2 * n, 3 * n):
            y = x.embed(m)
            assert x == y and hash(x) == hash(y)
        assert hash(x) == hash(x)  # cached on first use
    # values that live in a smaller field than their conductor says
    assert hash(CycloNum.rational(Fraction(3, 7), 12)) == hash(CycloNum.rational(Fraction(3, 7)))
    assert hash(cyclo_make(3, 1).embed(36)) == hash(cyclo_make(12, 4))
    # a rational value hashes as the int or Fraction it equals
    assert hash(cyclo_make(8, 4)) == hash(-1)
    assert {Fraction(1, 2): "half"}[CycloNum.rational(Fraction(1, 2), 4)] == "half"
