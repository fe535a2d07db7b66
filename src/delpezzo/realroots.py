"""Exact real root isolation for rational polynomials via Sturm chains.

Polynomials go in as ascending coefficient sequences of ints or Fractions.
Each is converted once to its primitive integer form: a positive rational
multiple of it with coprime integer coefficients and no trailing zeros, so
it has the same roots and the same sign everywhere.  Polynomials come out
in that form, as int tuples (`poly_gcd`, `squarefree_part`).  Isolation
returns disjoint rational intervals, each containing exactly one real root
(endpoints are never roots; exact rational roots get degenerate intervals).

Division, gcd and Sturm chains use sign-preserving pseudo-remainders
(`exactint._pdivmod`) with the content divided out at each step (the
primitive PRS of Collins, 1967), and the sign at x = a/b (b > 0) is the
sign of b^d p(a/b), an integer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .exactint import _pdivmod


# the two helpers below and count_real_roots have no caller in the package;
# perfbench/micro.py still calls them
def poly_trim(p: list[Fraction]) -> list[Fraction]:
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_degree(p) -> int:
    return len(p) - 1


# ---------------------------------------------------------------------------
# the integer core: tuples of ints, ascending, no trailing zeros


def _primitive(p) -> tuple[int, ...]:
    """The integer multiple of p by a positive rational whose coefficients
    have gcd 1; () for the zero polynomial.  Takes ints and Fractions."""
    den = lcm(*(c.denominator for c in p))
    return _reduce([c.numerator * (den // c.denominator) for c in p])


def _reduce(p: list[int]) -> tuple[int, ...]:
    """p without trailing zeros, divided by its positive content."""
    while p and p[-1] == 0:
        p.pop()
    g = gcd(*p)
    return tuple(c // g for c in p) if g > 1 else tuple(p)


def _deriv(p) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _gcd(a, b) -> tuple[int, ...]:
    """gcd of two integer polynomials, primitive with a positive lead."""
    while b:
        a, b = b, _reduce(_pdivmod(a, b)[1])
    a = _reduce(list(a))
    return tuple(-c for c in a) if a and a[-1] < 0 else a


def _eval(p, x) -> int:
    """b^deg(p) * p(a/b) for x = a/b in lowest terms (b > 0), by Horner."""
    a, b = x.numerator, x.denominator
    acc, bk = p[-1], 1
    for c in reversed(p[:-1]):
        bk *= b
        acc = acc * a + c * bk
    return acc


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _variations(chain, x) -> int:
    return _sign_changes(_eval(p, x) for p in chain)


def _variations_at_inf(chain, positive: bool) -> int:
    # len(p) odd <=> even degree
    return _sign_changes(p[-1] if positive or len(p) % 2 else -p[-1] for p in chain)


# is_squarefree, isolate_real_roots and sign_at_root ask for the same
# chains over and over: without this cache the `fibers` benchmark's
# cpu_ref_s went from about 0.45 to 0.68 s on a 2-core machine.
@lru_cache(maxsize=16)
def _sturm(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Sturm chain of the squarefree part of a nonzero primitive p; the
    first member is that squarefree part."""
    sf = squarefree_part(p)
    chain = [sf]
    if len(sf) > 1:
        chain.append(_reduce(_deriv(sf)))
    while len(chain[-1]) > 1:
        chain.append(_reduce([-c for c in _pdivmod(chain[-2], chain[-1])[1]]))
    return tuple(chain)


def _count(chain, lo, hi) -> int:
    """Roots of chain[0] in (lo, hi]; None endpoints mean -+infinity."""
    va = _variations(chain, lo) if lo is not None else _variations_at_inf(chain, False)
    vb = _variations(chain, hi) if hi is not None else _variations_at_inf(chain, True)
    return va - vb


def _sign(v) -> int:
    return 1 if v > 0 else -1


# ---------------------------------------------------------------------------
# the public interface: int or Fraction sequences in, primitive int tuples out


def poly_gcd(a, b) -> tuple[int, ...]:
    """gcd of a and b, primitive with a positive lead; () when both are zero."""
    return _gcd(_primitive(a), _primitive(b))


def squarefree_part(p) -> tuple[int, ...]:
    """p / gcd(p, p') in primitive form: every root of p, each simple."""
    p = _primitive(p)
    if len(p) > 1:
        g = _gcd(p, _deriv(p))
        if len(g) > 1:
            q, r, _ = _pdivmod(p, g)
            if r:
                raise ArithmeticError("gcd(p, p') leaves a remainder in p")
            p = _reduce(q)
    return p


def is_squarefree(p) -> bool:
    p = _primitive(p)
    return len(p) < 2 or len(_sturm(p)[0]) == len(p)


def count_real_roots(p, lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """Roots of the squarefree part in (lo, hi]; None endpoints mean +-infinity."""
    p = _primitive(p)
    if len(p) < 2:
        return 0
    return _count(_sturm(p), lo, hi)


def isolate_real_roots(p) -> list[tuple[Fraction, Fraction]]:
    """Disjoint intervals (lo, hi], one squarefree-part root each; a rational
    root r yields the degenerate interval (r, r)."""
    p = _primitive(p)
    if len(p) < 2:
        return []
    chain = _sturm(p)
    sf = chain[0]
    # Cauchy bound: every real root lies in (-bound, bound)
    bound = 1 + Fraction(max(abs(c) for c in sf[:-1]), abs(sf[-1]))

    def var(x):
        return _variations(chain, x)

    out = []

    def rec(lo: Fraction, hi: Fraction, vlo: int, vhi: int):
        count = vlo - vhi
        if count == 0:
            return
        if count == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if _eval(sf, mid) == 0:
            out.append((mid, mid))
            delta = (hi - lo) / 4
            while True:
                a, b = mid - delta, mid + delta
                if _eval(sf, a) != 0 and _eval(sf, b) != 0 and var(a) - var(b) == 1:
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


def _halve(chain, lo: Fraction, hi: Fraction, vlo: int):
    """One bisection step on an isolating interval of chain[0]'s root.

    Returns the half that holds the root with the sign variations at its
    left end, or (mid, mid, None) when mid is the root."""
    mid = (lo + hi) / 2
    if _eval(chain[0], mid) == 0:
        return mid, mid, None
    vmid = _variations(chain, mid)
    if vlo - vmid == 1:
        return lo, mid, vlo
    return mid, hi, vmid


def tighten_interval(p, interval: tuple[Fraction, Fraction], max_width: Fraction):
    """Shrink an isolating interval of p below max_width by bisection."""
    lo, hi = interval
    if lo == hi:
        return interval
    lo, hi = Fraction(lo), Fraction(hi)
    chain = _sturm(_primitive(p))
    vlo = _variations(chain, lo)
    while hi - lo > max_width and vlo is not None:
        lo, hi, vlo = _halve(chain, lo, hi, vlo)
    return (lo, hi)


def sign_at_root(p, interval: tuple[Fraction, Fraction], q) -> int:
    """Sign of q at the unique root of p inside the isolating interval.

    Raises ValueError when q vanishes at that root; otherwise refines the
    interval by bisection until q has constant sign on it."""
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    q = _primitive(q)
    if lo == hi or not q:
        v = _eval(q, lo) if q else 0
        if v == 0:
            raise ValueError("q vanishes at the root")
        return _sign(v)
    chain_p = _sturm(_primitive(p))
    sf = chain_p[0]
    chain_q = _sturm(q)
    # bisection would never separate a root that p and q share
    if _count(chain_q, lo, hi) > 0:
        common = _gcd(sf, q)
        if len(common) > 1 and _count(_sturm(common), lo, hi) > 0:
            raise ValueError("q vanishes at the root")
    vp_lo = _variations(chain_p, lo)
    while True:
        v = _eval(q, lo)
        if v != 0 and _count(chain_q, lo, hi) == 0:
            return _sign(v)
        lo, hi, vp_lo = _halve(chain_p, lo, hi, vp_lo)
        if vp_lo is None:
            return _sign(_eval(q, lo))
