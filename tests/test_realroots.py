import random
from fractions import Fraction
from math import gcd

import pytest

from delpezzo import realroots
from delpezzo.realroots import (
    count_real_roots,
    is_squarefree,
    isolate_real_roots,
    poly_gcd,
    sign_at_root,
    squarefree_part,
    tighten_interval,
)

# ---------------------------------------------------------------------------
# reference: Sturm root isolation with Fraction long division


def _ref_trim(p):
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def _ref_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _ref_deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


def _ref_divmod(num, den):
    num, den = list(num), _ref_trim(den)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i]
        if c == 0:
            continue
        k = i - (len(den) - 1)
        f = c / den[-1]
        q[k] = f
        for j, d in enumerate(den):
            num[k + j] -= f * d
    return _ref_trim(q), _ref_trim(num[: len(den) - 1])


def _ref_gcd(a, b):
    a, b = _ref_trim(a), _ref_trim(b)
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else a


def _ref_squarefree(p):
    p = _ref_trim(p)
    if len(p) < 2:
        return p
    g = _ref_gcd(p, _ref_deriv(p))
    return p if len(g) < 2 else _ref_divmod(p, g)[0]


def _ref_chain(p):
    chain = [p, _ref_trim(_ref_deriv(p))]
    while chain[-1]:
        r = _ref_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _ref_variations(chain, x):
    signs = [v > 0 for v in (_ref_eval(c, x) for c in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_variations_at_inf(chain, positive):
    signs = [(c[-1] if positive or len(c) % 2 else -c[-1]) > 0 for c in chain]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_count(p, lo=None, hi=None):
    p = _ref_squarefree(p)
    if len(p) < 2:
        return 0
    chain = _ref_chain(p)
    va = _ref_variations(chain, lo) if lo is not None else _ref_variations_at_inf(chain, False)
    vb = _ref_variations(chain, hi) if hi is not None else _ref_variations_at_inf(chain, True)
    return va - vb


def _ref_isolate(p):
    p = _ref_squarefree(p)
    if len(p) < 2:
        return []
    chain = _ref_chain(p)
    bound = 1 + max(abs(c) / abs(p[-1]) for c in p[:-1])

    def var(x):
        return _ref_variations(chain, x)

    out = []

    def rec(lo, hi, vlo, vhi):
        count = vlo - vhi
        if count == 0:
            return
        if count == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if _ref_eval(p, mid) == 0:
            out.append((mid, mid))
            delta = (hi - lo) / 4
            while True:
                a, b = mid - delta, mid + delta
                if _ref_eval(p, a) != 0 and _ref_eval(p, b) != 0 and var(a) - var(b) == 1:
                    break
                delta /= 2
            rec(lo, a, vlo, var(a))
            rec(b, hi, var(b), vhi)
            return
        vm = var(mid)
        rec(lo, mid, vlo, vm)
        rec(mid, hi, vm, vhi)

    rec(-bound, bound, var(-bound), var(bound))
    return sorted(out)


def _ref_tighten(p, interval, max_width):
    lo, hi = interval
    if lo == hi:
        return interval
    p_sf = _ref_squarefree(p)
    chain = _ref_chain(p_sf)
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        if _ref_eval(p_sf, mid) == 0:
            return (mid, mid)
        if _ref_variations(chain, lo) - _ref_variations(chain, mid) == 1:
            hi = mid
        else:
            lo = mid
    return (lo, hi)


def _ref_sign_at_root(p, interval, q):
    """Loops forever when q vanishes at an irrational root of p."""
    lo, hi = interval
    q = _ref_trim(q)
    if lo == hi:
        v = _ref_eval(q, lo)
        if v == 0:
            raise ValueError("q vanishes at the root")
        return 1 if v > 0 else -1
    p_sf = _ref_squarefree(p)
    chain_p = _ref_chain(p_sf)
    chain_q = _ref_chain(_ref_squarefree(q)) if len(q) > 1 else [q]

    def count(chain, a, b):
        return _ref_variations(chain, a) - _ref_variations(chain, b)

    while True:
        if _ref_eval(q, lo) != 0 and count(chain_q, lo, hi) == 0:
            return 1 if _ref_eval(q, lo) > 0 else -1
        mid = (lo + hi) / 2
        if _ref_eval(p_sf, mid) == 0:
            v = _ref_eval(q, mid)
            if v == 0:
                raise ValueError("q vanishes at the root")
            return 1 if v > 0 else -1
        if count(chain_p, lo, mid) == 1:
            hi = mid
        else:
            lo = mid


# ---------------------------------------------------------------------------
# seeded polynomials


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _from_roots(roots, lead):
    p = [Fraction(lead)]
    for r in roots:
        p = _mul(p, [-Fraction(r), Fraction(1)])
    return p


def _polynomials(rng):
    """(kind, polynomial) pairs of degree 1 to 12."""
    out = []
    for _ in range(30):
        deg = rng.randint(1, 12)
        p = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
        out.append(("integer", p))
    for _ in range(30):
        deg = rng.randint(1, 12)
        p = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(deg + 1)]
        p[-1] = p[-1] or Fraction(1, 3)
        out.append(("p/q", p))
    for _ in range(30):
        # repeated factors: a squared or cubed factor times a random one
        base = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(2, 3))]
        base[-1] = base[-1] or Fraction(1)
        other = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))] + [Fraction(1)]
        p = other
        for _ in range(rng.randint(2, 3)):
            p = _mul(p, base)
        out.append(("repeated", p))
    for _ in range(30):
        # rational roots, many on the dyadic points bisection visits first
        roots = [
            rng.choice([0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 8), Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
            for _ in range(rng.randint(1, 8))
        ]
        out.append(("rational roots", _from_roots(roots, rng.choice([-2, -1, 1, 3]))))
    for _ in range(20):
        deg = rng.randint(1, 12)
        p = [rng.randint(-(10**15), 10**15) for _ in range(deg + 1)]
        p[-1] = p[-1] or 10**15
        out.append(("height 1e15", p))
    for _ in range(10):
        deg = rng.randint(1, 12)
        p = [10**15 + rng.randint(-3, 3) for _ in range(deg)] + [rng.choice([-1, 1]) * 10**15]
        out.append(("near 1e15", p))
    return out


def _positive_multiple(a, b) -> bool:
    if len(a) != len(b) or not a:
        return len(a) == len(b)
    ratio = Fraction(a[-1]) / Fraction(b[-1])
    return ratio > 0 and all(Fraction(x) == ratio * y for x, y in zip(a, b))


def _random_point(rng):
    return Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 4, 8, 7]))


def test_root_isolation_matches_fraction_oracle():
    rng = random.Random(2026)
    degenerate = vanishing = 0
    for kind, p in _polynomials(rng):
        ref_sf = _ref_squarefree(p)
        sf = squarefree_part(p)
        assert _positive_multiple(sf, ref_sf), (kind, p)
        assert type(sf) is tuple and all(type(c) is int for c in sf) and gcd(*sf) == 1, (kind, p)
        assert is_squarefree(p) == (len(ref_sf) == len(_ref_trim(p))), (kind, p)
        # every member of the integer chain is primitive and a positive
        # multiple of the Fraction chain's member
        chain = realroots._sturm(realroots._primitive(p))
        if len(ref_sf) > 1:
            ref_chain = _ref_chain(ref_sf)
            assert len(chain) == len(ref_chain), (kind, p)
            for c, ref_c in zip(chain, ref_chain):
                assert gcd(*c) == 1 and _positive_multiple(c, ref_c), (kind, p)

        intervals = isolate_real_roots(p)
        assert intervals == _ref_isolate(p), (kind, p)
        assert all(type(x) is Fraction for iv in intervals for x in iv)
        degenerate += sum(1 for lo, hi in intervals if lo == hi)

        assert count_real_roots(p) == _ref_count(p) == len(intervals), (kind, p)
        for _ in range(3):
            lo, hi = sorted((_random_point(rng), _random_point(rng)))
            for a, b in ((lo, hi), (None, hi), (lo, None)):
                assert count_real_roots(p, a, b) == _ref_count(p, a, b), (kind, p, a, b)

        q = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 7))]
        if rng.random() < 0.2:
            q = _mul(q, ref_sf)  # vanishes at every root of p
        common = _ref_gcd(ref_sf, q)
        for lo, hi in intervals:
            width = Fraction(1, rng.choice([3, 10, 1000]))
            assert tighten_interval(p, (lo, hi), width) == _ref_tighten(p, (lo, hi), width), (kind, p)
            if lo == hi:
                vanishes = _ref_eval(q, lo) == 0
            else:
                vanishes = len(common) > 1 and _ref_count(common, lo, hi) > 0
            if vanishes:
                # where the root is irrational the reference loops forever
                vanishing += 1
                with pytest.raises(ValueError, match="q vanishes at the root"):
                    sign_at_root(p, (lo, hi), q)
            else:
                assert sign_at_root(p, (lo, hi), q) == _ref_sign_at_root(p, (lo, hi), q), (kind, p, q)
    assert degenerate >= 20  # rational roots hit on a bisection midpoint
    assert vanishing >= 20


def test_division_and_gcd_match_fraction_oracle():
    rng = random.Random(11)
    for kind, p in _polynomials(rng):
        d = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
        d[-1] = d[-1] or Fraction(-2, 3)
        a, b = realroots._primitive(p), realroots._primitive(d)
        q, r, m = realroots._pdivmod(a, b)
        assert m > 0 and ([Fraction(c, m) for c in q], [Fraction(c, m) for c in r]) == _ref_divmod(a, b), (kind, p, d)
        for x, y in ((p, d), (p, _ref_deriv(_ref_trim(p)))):
            g = poly_gcd(x, y)
            assert type(g) is tuple and all(type(c) is int for c in g), (kind, x, y)
            assert gcd(*g) == 1 and g[-1] > 0 and _positive_multiple(g, _ref_gcd(x, y)), (kind, x, y)
    assert poly_gcd([], []) == ()


def test_bisection_stops_at_a_midpoint_root():
    """The root 1 of (x - 1)(x - 3) is the midpoint of its isolating interval (0, 2)."""
    p = [3, -4, 1]
    assert tighten_interval(p, (Fraction(0), Fraction(2)), Fraction(1, 10)) == (1, 1)
    assert sign_at_root(p, (0, 2), [-2, 1]) == -1


def test_sign_at_root_raises_where_q_vanishes():
    # sqrt(2) is an irrational root of both
    with pytest.raises(ValueError, match="q vanishes at the root"):
        sign_at_root([-2, 0, 1], (1, 2), [-2, 0, 1])
    # q = (x^2 - 2)(x + 5), and p = (x^2 - 2)(x - 3) isolated at sqrt(2)
    p = _mul([Fraction(-2), Fraction(0), Fraction(1)], [Fraction(-3), Fraction(1)])
    q = _mul([Fraction(-2), Fraction(0), Fraction(1)], [Fraction(5), Fraction(1)])
    (iv,) = [(lo, hi) for lo, hi in isolate_real_roots(p) if 0 <= lo and lo * lo < 2 < hi * hi]
    with pytest.raises(ValueError, match="q vanishes at the root"):
        sign_at_root(p, iv, q)
    # the zero polynomial vanishes everywhere
    with pytest.raises(ValueError, match="q vanishes at the root"):
        sign_at_root([-2, 0, 1], (1, 2), [0])
    # a q sharing only the other root of p keeps its sign at sqrt(2)
    assert sign_at_root(p, iv, [-3, 1]) == -1
    assert sign_at_root([-2, 0, 1], (1, 2), [-1, 0, 1]) == 1
