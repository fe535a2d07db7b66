import random
from itertools import product

import numpy as np
import pytest

from delpezzo.picard import (
    DimensionMismatch,
    LatticeClass,
    PicardLattice,
    UnsupportedDegree,
    enumerate_exceptional,
    enumerate_roots,
    incidence_matrix,
    tritangent_trios,
)
from delpezzo.weyl import reflection


def brute_force_roots(degree, box):
    """Independent oracle: exhaustive scan of a coefficient box."""
    r = 9 - degree
    found = set()
    for a in range(-box, box + 1):
        for bs in product(range(-box, box + 1), repeat=r):
            if a * a - sum(b * b for b in bs) == -2 and -3 * a - sum(bs) == 0:
                found.add((a,) + bs)
    return found


def test_roots_against_brute_force_oracle():
    for degree, expected in ((7, 2), (6, 8), (5, 20), (4, 40)):
        oracle = brute_force_roots(degree, 3)
        assert len(oracle) == expected
        got = {c.coords for c in enumerate_roots(PicardLattice(degree))}
        assert got == oracle


def test_root_counts():
    for degree, expected in ((7, 2), (6, 8), (5, 20), (4, 40), (3, 72), (2, 126), (1, 240)):
        assert len(enumerate_roots(PicardLattice(degree))) == expected
    # |W(E_8)| factorization sanity from the table of orders
    assert 2**14 * 3**5 * 5**2 * 7 == 696729600


def test_exceptional_counts():
    for degree, expected in ((7, 3), (6, 6), (5, 10), (4, 16), (3, 27), (2, 56), (1, 240)):
        assert len(enumerate_exceptional(PicardLattice(degree))) == expected


def test_intersection_examples():
    lat = PicardLattice(3)
    k = lat.canonical
    assert lat.intersection(k, k) == 3
    e1 = lat.basis[1]
    assert lat.intersection(e1, e1) == -1
    assert lat.intersection(lat.basis[0], e1) == 0
    with pytest.raises(DimensionMismatch):
        lat.intersection(k, LatticeClass((1, 0)))


def test_class_coordinates_are_integers_never_coerced():
    assert LatticeClass([1, np.int64(-1), 0]).coords == (1, -1, 0)
    assert type(LatticeClass(np.array([2, 0])).coords[0]) is int
    for bad in (5, None, [0, 1.5], [0, 1.0], [0, "1"], [0, None], [0, True], [0, False], [0, [1]], [0, {"e": 1}]):
        with pytest.raises(ValueError, match="integers"):
            LatticeClass(bad)


def test_classes_are_immutable_values():
    c = LatticeClass((1, -1, 0))
    assert c == LatticeClass([1, -1, 0]) and hash(c) == hash(LatticeClass([1, -1, 0]))
    assert c != LatticeClass((1, -1, 1)) and c != LatticeClass((1, -1)) and c != (1, -1, 0)
    assert len({c, LatticeClass((1, -1, 0)), LatticeClass((0, -1, 0))}) == 2
    with pytest.raises(AttributeError):
        c.coords = (0, 0, 0)


def test_unsupported_degrees():
    with pytest.raises(UnsupportedDegree):
        enumerate_roots(PicardLattice(8))
    with pytest.raises(UnsupportedDegree):
        enumerate_exceptional(PicardLattice(8))
    with pytest.raises(UnsupportedDegree):
        tritangent_trios(PicardLattice(4))
    with pytest.raises(UnsupportedDegree):
        PicardLattice(12)


def test_tritangent_trios():
    lat = PicardLattice(3)
    trios = tritangent_trios(lat)
    assert len(trios) == 45
    minus_k = -lat.canonical
    per_line = {}
    for trio in trios:
        a, b, c = sorted(trio, key=lambda x: x.coords)
        assert (a + b + c).coords == minus_k.coords
        for x in trio:
            for y in trio:
                if x != y:
                    assert lat.intersection(x, y) == 1
            per_line[x] = per_line.get(x, 0) + 1
    assert set(per_line.values()) == {5}
    assert len(per_line) == 27


def test_incidence_regularity():
    lat3 = PicardLattice(3)
    m3 = np.array(incidence_matrix(lat3, enumerate_exceptional(lat3)))
    assert all((row == 1).sum() == 10 for row in m3)
    lat4 = PicardLattice(4)
    m4 = np.array(incidence_matrix(lat4, enumerate_exceptional(lat4)))
    assert all((row == 1).sum() == 5 for row in m4)


def test_hexagon_is_six_cycle():
    lat = PicardLattice(6)
    m = np.array(incidence_matrix(lat, enumerate_exceptional(lat)))
    off = m.copy()
    np.fill_diagonal(off, 0)
    assert all((row == 1).sum() == 2 for row in off)
    # connected 2-regular graph on 6 vertices = a 6-cycle
    adj = {i: [j for j in range(6) if off[i, j] == 1] for i in range(6)}
    seen, cur, prev = {0}, 0, None
    for _ in range(5):
        nxt = [j for j in adj[cur] if j != prev][0]
        prev, cur = cur, nxt
        seen.add(cur)
    assert seen == set(range(6))


def test_sets_closed_under_random_reflections():
    rng = random.Random(17)
    for degree in (6, 4, 3):
        lat = PicardLattice(degree)
        roots = enumerate_roots(lat)
        lines = enumerate_exceptional(lat)
        root_set = {c.coords for c in roots}
        line_set = {c.coords for c in lines}
        for _ in range(8):
            s = rng.choice(roots)
            refl = reflection(lat, s)
            assert {refl.apply(c).coords for c in roots} == root_set
            assert {refl.apply(c).coords for c in lines} == line_set


def test_deterministic_ordering():
    a = [c.coords for c in enumerate_exceptional(PicardLattice(3))]
    b = [c.coords for c in enumerate_exceptional(PicardLattice(3))]
    assert a == b == sorted(a)
