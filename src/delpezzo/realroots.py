"""Exact real root isolation for rational polynomials via Sturm chains.

Polynomials are ascending coefficient lists over Fraction.  Isolation
returns disjoint rational intervals, each containing exactly one real root
(endpoints are never roots; exact rational roots get degenerate intervals).
"""

from __future__ import annotations

from fractions import Fraction


def poly_trim(p: list[Fraction]) -> list[Fraction]:
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_degree(p) -> int:
    return len(p) - 1


def poly_eval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


def poly_divmod(num, den):
    num, den = list(num), poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        if i >= len(num):
            continue
        c = num[i]
        if c == 0:
            continue
        k = i - (len(den) - 1)
        f = c / den[-1]
        q[k] = f
        for j, d in enumerate(den):
            num[k + j] -= f * d
    return poly_trim(q), poly_trim(num[: len(den) - 1])


def poly_gcd(a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def squarefree_part(p):
    p = poly_trim(p)
    if poly_degree(p) < 1:
        return p
    g = poly_gcd(p, poly_deriv(p))
    if poly_degree(g) < 1:
        return p
    q, r = poly_divmod(p, g)
    if r:
        raise ArithmeticError("gcd(p, p') leaves a remainder in p")
    return q


def is_squarefree(p) -> bool:
    p = poly_trim(p)
    return poly_degree(p) < 1 or poly_degree(poly_gcd(p, poly_deriv(p))) == 0


def sturm_chain(p):
    p = poly_trim(p)
    chain = [p, poly_trim(poly_deriv(p))]
    while chain[-1] and poly_degree(chain[-1]) >= 0:
        _, r = poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at(chain, x: Fraction) -> int:
    return _variations([poly_eval(c, x) for c in chain])


def _variations_at_inf(chain, positive: bool) -> int:
    vals = []
    for c in chain:
        lead = c[-1]
        deg = poly_degree(c)
        vals.append(lead if (positive or deg % 2 == 0) else -lead)
    return _variations(vals)


def count_real_roots(p, lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """Roots of the squarefree part in (lo, hi]; None endpoints mean +-infinity."""
    p = squarefree_part(poly_trim(p))
    if poly_degree(p) < 1:
        return 0
    chain = sturm_chain(p)
    va = _variations_at(chain, lo) if lo is not None else _variations_at_inf(chain, False)
    vb = _variations_at(chain, hi) if hi is not None else _variations_at_inf(chain, True)
    return va - vb


def root_bound(p) -> Fraction:
    """Cauchy bound on the absolute value of all real roots."""
    p = poly_trim(p)
    lead = abs(p[-1])
    return 1 + max((abs(c) / lead for c in p[:-1]), default=Fraction(0))


def isolate_real_roots(p) -> list[tuple[Fraction, Fraction]]:
    """Disjoint intervals (lo, hi], one squarefree-part root each; a rational
    root r yields the degenerate interval (r, r)."""
    p = squarefree_part(poly_trim(p))
    if poly_degree(p) < 1:
        return []
    chain = sturm_chain(p)
    bound = root_bound(p)

    def var(x):
        return _variations_at(chain, x)

    out = []

    def rec(lo: Fraction, hi: Fraction, vlo: int, vhi: int):
        count = vlo - vhi
        if count == 0:
            return
        if count == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if poly_eval(p, mid) == 0:
            out.append((mid, mid))
            delta = (hi - lo) / 4
            while True:
                a, b = mid - delta, mid + delta
                if (
                    poly_eval(p, a) != 0
                    and poly_eval(p, b) != 0
                    and var(a) - var(b) == 1
                ):
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


def tighten_interval(p, interval: tuple[Fraction, Fraction], max_width: Fraction):
    """Shrink an isolating interval of p below max_width by bisection."""
    lo, hi = interval
    if lo == hi:
        return interval
    p_sf = squarefree_part(poly_trim(p))
    chain = sturm_chain(p_sf)
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        if poly_eval(p_sf, mid) == 0:
            return (mid, mid)
        if _variations_at(chain, lo) - _variations_at(chain, mid) == 1:
            hi = mid
        else:
            lo = mid
    return (lo, hi)


def sign_at_root(p, interval: tuple[Fraction, Fraction], q) -> int:
    """Sign of q at the unique root of p inside the isolating interval.

    Requires that the root of p is not a root of q; refines the interval by
    bisection until q has constant sign on it."""
    lo, hi = interval
    q = poly_trim(q)
    if lo == hi:
        v = poly_eval(q, lo)
        if v == 0:
            raise ValueError("q vanishes at the root")
        return 1 if v > 0 else -1
    p_sf = squarefree_part(poly_trim(p))
    chain_p = sturm_chain(p_sf)
    chain_q = sturm_chain(squarefree_part(q))

    def count(chain, a, b):
        return _variations_at(chain, a) - _variations_at(chain, b)

    while True:
        if poly_eval(q, lo) != 0 and count(chain_q, lo, hi) == 0:
            v = poly_eval(q, lo)
            return 1 if v > 0 else -1
        mid = (lo + hi) / 2
        if poly_eval(p_sf, mid) == 0:
            v = poly_eval(q, mid)
            if v == 0:
                raise ValueError("q vanishes at the root")
            return 1 if v > 0 else -1
        if count(chain_p, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
