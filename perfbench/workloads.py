"""Requests of the three workloads, and the fiber-kind oracle.

A workload's pass is a fixed list of CLI argument lists, made from the seed;
every pass sends the same requests, in an order drawn from ``(seed, i)``
for pass ``i``.  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

TABLE_REQUESTS = [["table", "--id", str(i)] for i in range(1, 8)] + [
    ["dp1", "star", "--reference"],
    ["dp4", "--form", "q31-0-2", "--enumerate-minimal"],
    ["dp4", "--form", "p2-1-2", "--enumerate-minimal"],
    ["graph", "--degree", "6", "--sigma", "fig_a"],
]

CYCLO_FIXED = [
    ["cubic", "--model", model, "--twist", twist, "--count-real-lines", "--count-real-tritangents"]
    for model in ("fermat", "clebsch")
    for twist in ("id", "t12", "t1234")
] + [["dp2-example", "--orbits", "--w-sign", sign] for sign in ("1", "-1")]

CYCLO_INVARIANTS = [
    ["invariants", "--group", f"{kind}{n}", "--degree", "4"] for kind in ("z", "d") for n in range(3, 13)
]
FIBERS_PER_PASS = 160
WORKLOADS = ("tables", "fibers", "cyclo")


def is_fibers(argv: list[str]) -> bool:
    return argv[:2] == ["dp1", "rationality"]


def allowed_exit(argv: list[str]) -> tuple[int, ...]:
    """Exit codes a request may end with.  2 is the CLI's rejection of a
    degenerate surface, which is its documented contract, not a failure."""
    return (0, 2) if is_fibers(argv) else (0,)


def _coefficient(rng: random.Random, rational: bool) -> str:
    if not rational:
        return str(rng.randint(-3, 3))
    p, q = rng.randint(-9, 9), rng.randint(1, 5)
    return str(p) if q == 1 else f"{p}/{q}"


def _fibers_request(rng: random.Random, rational: bool) -> list[str]:
    f4 = ",".join(_coefficient(rng, rational) for _ in range(5))
    f6 = ",".join(_coefficient(rng, rational) for _ in range(7))
    return ["dp1", "rationality", f"--f4={f4}", f"--f6={f6}"]


def pass_requests(workload: str, seed: int, index: int) -> list[list[str]]:
    """The requests of pass `index`: the same in every pass, reordered."""
    if workload == "tables":
        reqs = [list(r) for r in TABLE_REQUESTS]
    elif workload == "fibers":
        # seeded surfaces, alternating the two coefficient-height classes
        rng = random.Random(f"{seed}:fibers")
        reqs = [_fibers_request(rng, rational=bool(j % 2)) for j in range(FIBERS_PER_PASS)]
    elif workload == "cyclo":
        # every group is asked at one degree: seeded degrees moved the cost
        # of a pass by about 15% between seeds
        reqs = [list(r) for r in CYCLO_FIXED + CYCLO_INVARIANTS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"{seed}:{index}").shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# float local-model oracle for fiber kinds (the oracle of tests/test_dp1.py)


def _coeffs(text: str) -> list[Fraction]:
    return [Fraction(c) for c in text.split(",")]


def _trim(p: list[Fraction]) -> list[Fraction]:
    nonzero = [i for i, c in enumerate(p) if c]
    return p[nonzero[0]:] if nonzero else [Fraction(0)]


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of polynomials with descending coefficients."""
    a, b = _trim(a)[:], _trim(b)
    q = []
    while len(a) >= len(b):
        c = a[0] / b[0]
        q.append(c)
        for i in range(len(b)):
            a[i] -= c * b[i]
        a.pop(0)
    return _trim(q or [Fraction(0)]), _trim(a or [Fraction(0)])


def _gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _trim(a), _trim(b)
    while any(b):
        a, b = b, _divmod(a, b)[1]
    return a


def _value(p: list[Fraction], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in p:
        acc = acc * t + c
    return acc


def _node_root(residual: list[Fraction], lo: Fraction, hi: Fraction) -> float:
    """The simple root of residual in the isolating interval (lo, hi].

    Located by exact bisection: a float sign test fails next to a cusp,
    where the discriminant is tiny.
    """
    if lo == hi or _value(residual, hi) == 0:
        return float(hi)
    if _value(residual, lo) == 0:  # the previous root sits at the open end
        lo += (hi - lo) / 2**30
    positive_lo = _value(residual, lo) > 0
    for _ in range(45):  # down to 3e-14 of the interval, beyond float use
        mid = (lo + hi) / 2
        v = _value(residual, mid)
        if v == 0:
            return float(mid)
        if (v > 0) == positive_lo:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def _local_kind(f4: np.ndarray, f6: np.ndarray, t: float) -> str:
    p, q = np.polyval(f4, t), np.polyval(f6, t)
    roots = np.roots([1.0, 0.0, p, q])
    i, j = min(
        ((i, j) for i in range(3) for j in range(i + 1, 3)),
        key=lambda ij: abs(roots[ij[0]] - roots[ij[1]]),
    )
    r = (roots[i] + roots[j]).real / 2
    return "crunode" if r > 1e-8 else ("acnode" if r < -1e-8 else "cusp")


def _shared_root(f4: np.ndarray, f6: np.ndarray, lo: float, hi: float) -> bool:
    """Whether f4 and f6 vanish together in [lo, hi].

    A cusp fiber needs the discriminant to vanish to order exactly 2, so
    there f6 has a simple root, which np.roots finds accurately; f4 may
    have a multiple one, which it does not.
    """
    width = hi - lo

    def small(poly, t):
        return abs(np.polyval(poly, t)) <= 1e-9 * np.abs(poly).sum() * max(1.0, abs(t)) ** (len(poly) - 1)

    if width == 0:
        return small(f4, lo) and small(f6, lo)
    return any(
        abs(z.imag) < 1e-6 and lo - width <= z.real <= hi + width and small(f4, z.real)
        for z in np.roots(f6)
    )


def oracle_mismatches(argv: list[str], report: dict) -> list[str]:
    """Finite fibers whose reported kind disagrees with the local model.

    At a node t, z^3 + p z + q has a double root r (numerically the closest
    pair of the cubic's roots); w^2 = (z - r)^2 (z + 2r) has two real
    branches iff r > 0.  The node is a simple root of the discriminant with
    the cusps divided out, located exactly inside the reported isolating
    interval.  A cusp is where f4 and f6 vanish together.
    """
    f4x, f6x = _coeffs(argv[2].split("=", 1)[1]), _coeffs(argv[3].split("=", 1)[1])
    disc = [4 * a + 27 * b for a, b in zip(_mul(_mul(f4x, f4x), f4x), _mul(f6x, f6x))]
    cusps = _gcd(f4x, f6x)
    residual = _divmod(disc, _mul(cusps, cusps))[0]
    f4, f6 = np.array([float(c) for c in f4x]), np.array([float(c) for c in f6x])
    bad = []
    for fiber in report["results"]["fibers"]:
        if isinstance(fiber["location"], str):
            continue
        lo, hi = (Fraction(x) for x in fiber["location"])
        if fiber["kind"] == "cusp":
            want = "cusp" if _shared_root(f4, f6, float(lo), float(hi)) else "node"
        else:
            want = _local_kind(f4, f6, _node_root(residual, lo, hi))
        if fiber["kind"] != want:
            bad.append(f"{fiber['location']}: reported {fiber['kind']}, oracle {want}")
    return bad
