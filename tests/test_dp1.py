import random
from fractions import Fraction

import numpy as np
import pytest

from delpezzo.dp1 import (
    DP1Surface,
    NonSquarefreeDiscriminant,
    NotTypeA2Squared,
    a22_element,
    bertini_twist_trace_identity,
    classify_fibers,
    discriminant,
    euler_heuristic,
    find_star_configurations,
    star_basis,
    table8_certify,
    table8_certify_row,
)
from delpezzo.invforms import BinaryForm, group_from_label, realpart_power
from delpezzo.picard import PicardLattice
from delpezzo.weyl import fingerprint, identity, minus_on_kperp, reflection
from delpezzo import realroots


def _bf(coeffs):
    return BinaryForm.from_rational(coeffs)


def test_discriminant_formula():
    s = DP1Surface(_bf([0, 0, 0, 0, 0]), _bf([1, 0, 0, 0, 0, 0, -1]))
    d = discriminant(s)
    # 27 (x^6 - y^6)^2
    expected = 27 * (_bf([1, 0, 0, 0, 0, 0, -1]) * _bf([1, 0, 0, 0, 0, 0, -1]))
    assert (d - expected).is_zero()
    s2 = DP1Surface(_bf([0, 0, -3, 0, 0]), _bf([1, 0, 0, 0, 0, 0, 1]))
    d2 = discriminant(s2)
    expected2 = 4 * (_bf([0, 0, -3, 0, 0]) ** 3) + 27 * (_bf([1, 0, 0, 0, 0, 0, 1]) ** 2)
    assert (d2 - expected2).is_zero()


def test_rotation_invariant_family_is_singular():
    """f4 = a (x^2+y^2)^2, f6 = b (x^2+y^2)^3 has discriminant
    (27 b^2 + 4 a^3)(x^2+y^2)^6: never squarefree."""
    s = DP1Surface(_bf([1, 0, 2, 0, 1]), _bf([1, 0, 3, 0, 3, 0, 1]))
    assert not s.is_smooth_proxy()
    with pytest.raises(NonSquarefreeDiscriminant):
        classify_fibers(s)


def test_fiber_kinds_against_local_model_oracle():
    """Oracle: at each singular fiber z^3 + p z + q has a double root r
    (numerically the closest pair of cubic roots); the local model
    w^2 = (z - r)^2 (z + 2r) has two real branches iff r > 0."""
    rng = random.Random(97)
    tested = 0
    while tested < 20:
        f4 = _bf([rng.randint(-3, 3) for _ in range(5)])
        f6 = _bf([rng.randint(-3, 3) for _ in range(7)])
        try:
            s = DP1Surface(f4, f6)
            reports = classify_fibers(s)
        except (ValueError, NonSquarefreeDiscriminant):
            continue
        finite = [r for r in reports if not isinstance(r.location, str)]
        if not finite:
            continue
        tested += 1
        disc_exact, _ = _dehom_exact(discriminant(s))
        for rep in finite:
            # tighten so the float midpoint sits next to the actual root
            lo, hi = realroots.tighten_interval(disc_exact, rep.location, Fraction(1, 10**6))
            t = float(lo + hi) / 2 if lo != hi else float(lo)
            disc, _ = _dehom(discriminant(s))
            troot = _newton(disc, t)
            p = float(sum(c * troot ** (4 - i) for i, c in enumerate(f4.rational_coeffs())))
            q = float(sum(c * troot ** (6 - i) for i, c in enumerate(f6.rational_coeffs())))
            roots = np.roots([1.0, 0.0, p, q])
            i, j = min(
                ((i, j) for i in range(3) for j in range(i + 1, 3)),
                key=lambda ij: abs(roots[ij[0]] - roots[ij[1]]),
            )
            r = (roots[i] + roots[j]).real / 2
            want = "crunode" if r > 1e-8 else ("acnode" if r < -1e-8 else "cusp")
            assert rep.kind == want


def _dehom(form):
    coeffs = list(reversed(form.rational_coeffs()))
    return [float(c) for c in coeffs], None


def _dehom_exact(form):
    return realroots.poly_trim(list(reversed(form.rational_coeffs()))), None


def _newton(poly, x):
    for _ in range(60):
        val = sum(c * x ** i for i, c in enumerate(poly))
        der = sum(i * c * x ** (i - 1) for i, c in enumerate(poly) if i)
        if der == 0:
            break
        x -= val / der
    return x


def test_cusp_detection():
    # f4 = x y^3 and f6 = x^6 + x y^5 share the simple root [0:1]
    s = DP1Surface(_bf([0, 0, 0, 1, 0]), _bf([1, 0, 0, 0, 0, 1, 0]))
    reports = classify_fibers(s)
    kinds = sorted(r.kind for r in reports)
    assert "cusp" in kinds
    cusp = next(r for r in reports if r.kind == "cusp")
    assert cusp.location == (0, 0)


def test_fiber_at_infinity():
    # f6 with a simple discriminant root at [1:0]: f4 = y^4, f6 = x^5 y + y^6
    f4 = _bf([0, 0, 0, 0, 1])
    f6 = _bf([0, 1, 0, 0, 0, 0, 1])
    s = DP1Surface(f4, f6)
    reports = classify_fibers(s)
    inf = [r for r in reports if r.location == "infinity"]
    assert len(inf) == 1
    # f6(1, 0) = 0 here is impossible for a simple root; this one has
    # f6(1, 0) = 0 -> actually leading coefficient is 0, so the root [1:0]
    # exists; the kind comes from the sign rule on the reversed polynomial
    assert inf[0].kind in ("acnode", "crunode", "cusp")


def test_euler_heuristic_no_real_roots():
    # 4 f4^3 dominates: strictly positive discriminant has no real roots
    s = DP1Surface(_bf([1, 0, 1, 0, 1]), _bf([0, 0, 1, 0, 0, 0, 0]))
    if not s.is_smooth_proxy():
        pytest.skip("fixture not squarefree")
    euler, verdict = euler_heuristic(s)
    assert euler == 0 and verdict == "inconclusive"


def test_euler_heuristic_rational_fixture():
    s = DP1Surface(_bf([-2, 0, -2, 0, -2]), _bf([-1, 0, -2, 0, -2, 0, 2]))
    euler, verdict = euler_heuristic(s)
    assert euler < 0 and verdict == "rational"
    # negating f6 swaps the node kinds, flipping the sign of the count
    s_neg = DP1Surface(_bf([-2, 0, -2, 0, -2]), _bf([1, 0, 2, 0, 2, 0, -2]))
    euler_neg, verdict_neg = euler_heuristic(s_neg)
    assert euler_neg == -euler and verdict_neg == "inconclusive"


def test_kinds_invariant_under_moebius_change():
    s = DP1Surface(_bf([-2, 0, -2, 0, -2]), _bf([-1, 0, -2, 0, -2, 0, 2]))
    base = sorted(r.kind for r in classify_fibers(s))
    for mat in (((1, 1), (0, 1)), ((2, 1), (1, 1)), ((0, 1), (1, 0))):
        m = tuple(tuple(Fraction(x) for x in row) for row in mat)
        f4m = s.f4.substituted(m)
        f6m = s.f6.substituted(m)
        moved = DP1Surface(f4m, f6m)
        assert sorted(r.kind for r in classify_fibers(moved)) == base


def test_table8_rows():
    z6_f4 = _bf([1, 0, 2, 0, 1])
    re6 = realpart_power(6).rational_coeffs()
    z6_f6 = _bf([c + 2 * r for c, r in zip([1, 0, 3, 0, 3, 0, 1], re6)])
    s = DP1Surface(z6_f4, z6_f6)
    assert table8_certify_row("Z/6", s)
    assert table8_certify_row("D_6", s)
    assert not table8_certify_row("D_6", DP1Surface(z6_f4, _bf([1, 1, 0, 0, 0, 0, 0])))
    # the Bertini row certifies anything, the trivial group nothing
    assert table8_certify_row("Z/2", s)
    assert not table8_certify(None, s, bertini_in_lift=False)
    assert not table8_certify(group_from_label("z3"), s)  # no -id in Z/3
    with pytest.raises(ValueError):
        table8_certify_row("Z/8", s)


def test_euler_sum_matches_fiber_list():
    s = DP1Surface(_bf([-2, 0, -2, 0, -2]), _bf([-1, 0, -2, 0, -2, 0, 2]))
    reports = classify_fibers(s)
    euler, _ = euler_heuristic(s)
    assert euler == sum({"acnode": 1, "crunode": -1, "cusp": 0}[r.kind] for r in reports)


def test_star_configurations():
    lat = PicardLattice(1)
    g = a22_element(lat)
    fp = fingerprint(lat, g)
    assert fp.order == 3 and fp.trace_kperp == 2
    assert fp.fixed_line_count == 12
    stars = find_star_configurations(g)
    assert len(stars) == 4
    assert sum(1 for s in stars if s.pointwise_fixed) == 2
    for s in stars:
        s.validate(lat)
        assert lat.intersection(s.classes[0], s.classes[3]) == 3
    # asynchronized crossings
    for i in range(4):
        for j in range(i + 1, 4):
            for a in stars[i].classes:
                for b in stars[j].classes:
                    assert lat.intersection(a, b) == 1
    basis = star_basis(lat, stars)
    assert np.linalg.matrix_rank(basis.astype(float)) == 8


def test_star_configuration_rejects_wrong_type():
    lat = PicardLattice(1)
    with pytest.raises(NotTypeA2Squared):
        find_star_configurations(identity(lat))
    with pytest.raises(NotTypeA2Squared):
        find_star_configurations(minus_on_kperp(lat))


def test_bertini_twist_trace_relation():
    lat = PicardLattice(1)
    rng = random.Random(55)
    from delpezzo.picard import enumerate_roots

    roots = enumerate_roots(lat)
    assert bertini_twist_trace_identity(lat, identity(lat))
    for _ in range(5):
        s = rng.choice(roots)
        assert bertini_twist_trace_identity(lat, reflection(lat, s))


def test_sturm_helpers():
    # (x - 1)(x - 2)(x + 3)
    p = [Fraction(6), Fraction(-7), Fraction(0), Fraction(1)]
    p = realroots.poly_trim([6, -7, 0, 1])
    roots = realroots.isolate_real_roots(p)
    assert len(roots) == 3
    assert realroots.count_real_roots(p) == 3
    assert realroots.is_squarefree(p)
    sq = realroots.poly_trim([1, 2, 1])  # (x+1)^2
    assert not realroots.is_squarefree(sq)
    assert realroots.squarefree_part(sq) == [Fraction(1), Fraction(1)]


def test_squarefree_part_raises_on_a_remainder(monkeypatch):
    # a "gcd" x that does not divide x^2 + 1
    monkeypatch.setattr(realroots, "poly_gcd", lambda a, b: [Fraction(0), Fraction(1)])
    with pytest.raises(ArithmeticError):
        realroots.squarefree_part([Fraction(c) for c in (1, 0, 1)])
