import gc
import random
import weakref

import numpy as np
import pytest

from delpezzo import tables
from delpezzo._kernels import enumerate_cliques
from delpezzo.confgraphs import hexagon_sigma_isometry
from delpezzo.picard import (
    LatticeClass,
    PicardLattice,
    UnsupportedDegree,
    _exceptional_cached,
    enumerate_exceptional,
    enumerate_roots,
    tritangent_trios,
)
from delpezzo.weyl import (
    Isometry,
    NotAnIsometry,
    NotARoot,
    _charpoly_int,
    _poly_from_factors,
    _positive_roots,
    _sift,
    classify_named,
    close_group,
    element_order,
    fingerprint,
    frame_matrix,
    full_weyl_group,
    identity,
    involution_frames,
    minus_on_kperp,
    reflection,
    simple_roots,
)


def _cls(*coords):
    return LatticeClass(tuple(coords))


def test_reflection_examples():
    lat5 = PicardLattice(5)
    r = reflection(lat5, _cls(0, 1, -1, 0, 0))
    assert r.apply(lat5.basis[1]) == lat5.basis[2]
    assert r.apply(lat5.basis[2]) == lat5.basis[1]
    for i in (0, 3, 4):
        assert r.apply(lat5.basis[i]) == lat5.basis[i]
    assert (r * r).is_identity()
    lat6 = PicardLattice(6)
    s = reflection(lat6, _cls(1, -1, -1, -1))
    assert s.apply(lat6.basis[0]) == _cls(2, -1, -1, -1)
    with pytest.raises(NotARoot):
        reflection(lat6, lat6.basis[1])


def test_reflection_fixes_canonical_and_form():
    lat = PicardLattice(4)
    for root in enumerate_roots(lat)[:10]:
        r = reflection(lat, root)
        assert r.apply(lat.canonical) == lat.canonical
        g, m = np.array(lat.gram), np.array(r.matrix)
        assert np.array_equal(m.T @ g @ m, g)


def test_close_group_orders():
    assert full_weyl_group(6).order == 12
    assert full_weyl_group(5).order == 120
    assert full_weyl_group(4).order == 1920
    assert full_weyl_group(3).order == 51840
    assert full_weyl_group(2).order == 2903040
    assert full_weyl_group(1).order == 696729600
    # W(E7) and W(E8), out of reach of a closure that lists the elements
    lat2, lat1 = PicardLattice(2), PicardLattice(1)
    e7 = [reflection(lat2, s) for s in simple_roots(lat2)]
    assert close_group(lat2, e7).order == 2903040
    e8 = [reflection(lat1, s) for s in simple_roots(lat1)]
    assert close_group(lat1, e8).order == 696729600


def test_close_group_needs_the_lines():
    for degree in (8, 9):
        lat = PicardLattice(degree)
        with pytest.raises(UnsupportedDegree):
            close_group(lat, [identity(lat)])


def _member(group, iso) -> bool:
    """Whether iso is in group: its permutation of the lines sifts to the
    identity through the group's base and transversals."""
    perm = iso.permutation(_exceptional_cached(group.lattice.degree))
    return _sift(perm, group.base, group.transversals, 0) == (tuple(range(len(perm))), len(group.base))


def _reference_close_group(lat, gens, bound):
    """The elements of the generated group as an (order, rank, rank) int64
    array, or None once it holds more than bound: the einsum closure, kept
    as the oracle for `close_group`."""
    gens = tuple(gens)
    d = lat.rank
    gen_arr = np.array([g.matrix for g in gens], dtype=np.int64).reshape(-1, d, d)
    frontier = np.eye(d, dtype=np.int64)[None]
    seen = {frontier[0].tobytes(): None}
    blocks = [frontier]
    while gen_arr.shape[0]:
        prods = np.einsum("gij,fjk->gfik", gen_arr, frontier).reshape(-1, d, d)
        fresh = []
        for i, m in enumerate(prods):
            key = m.tobytes()
            if key not in seen:
                seen[key] = None
                fresh.append(i)
                if len(seen) > bound:
                    return None
        if not fresh:
            break
        frontier = prods[fresh]
        blocks.append(frontier)
    return np.concatenate(blocks)


def trace_average_rank(mats) -> int:
    """The character formula: the rank of the fixed space of a finite group
    is the average trace of its elements, here of a reference closure."""
    total = int(np.einsum("nii->", mats))
    if total % len(mats):
        raise ArithmeticError(f"trace sum {total} is not divisible by the order {len(mats)}")
    return total // len(mats)


def _word(lat, roots, rng, length):
    """A product of length random root reflections."""
    g = identity(lat)
    for _ in range(length):
        g = g * reflection(lat, rng.choice(roots))
    return g


def _subgroup_cases():
    """(lattice, generators, bound): 200 seeded random subgroups of W(D5) and
    W(E6), 24 of W(E7) and W(E8), the Weyl groups of degrees 7 to 3, the
    trivial group, table 2's sigma groups and groups past the reference
    closure's bound."""
    rng = random.Random(41)
    cases = []
    for degree in (4, 3):
        lat = PicardLattice(degree)
        roots = enumerate_roots(lat)
        for _ in range(100):
            gens = [_word(lat, roots, rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
            cases.append((lat, gens, 2000))
    rng = random.Random(41)
    for degree in (2, 1):
        lat = PicardLattice(degree)
        roots = enumerate_roots(lat)
        for _ in range(12):
            gens = [_word(lat, roots, rng, rng.randint(1, 2)) for _ in range(rng.randint(2, 3))]
            cases.append((lat, gens, 3000))
    for degree in (7, 6, 5, 4, 3):
        lat = PicardLattice(degree)
        cases.append((lat, [reflection(lat, s) for s in simple_roots(lat)], 60000))
    cases.append((PicardLattice(3), [], 10))
    lat6 = PicardLattice(6)
    for pattern in tables.HEXAGON_FORMS:
        cases.append((lat6, [hexagon_sigma_isometry(lat6, pattern)], 10))
    for degree, bound in ((4, 100), (3, 1000), (2, 1)):
        lat = PicardLattice(degree)
        cases.append((lat, [reflection(lat, s) for s in simple_roots(lat)], bound))
    return cases


def test_close_group_matches_reference_closure():
    """Order, membership of members and non-members, and the invariant rank,
    against the int64 closure and the character formula."""
    from delpezzo.minimality import invariant_rank

    rng = random.Random(43)
    stopped = closed = outside = 0
    seen = {}  # degree -> the elements of every group closed so far on it
    for lat, gens, bound in _subgroup_cases():
        want = _reference_close_group(lat, gens, bound)
        group = close_group(lat, gens)
        if want is None:
            stopped += 1
            assert group.order > bound
            continue
        closed += 1
        assert group.order == len(want) and group.generators == tuple(gens)
        assert invariant_rank(group) == trace_average_rank(want)
        keys = {m.tobytes() for m in want}
        # members, and elements of the groups closed before it on this
        # lattice: mostly non-members
        pool = seen.setdefault(lat.degree, [])
        candidates = rng.sample(list(want), min(8, len(want))) + rng.sample(pool, min(8, len(pool)))
        pool.extend(want[:50])
        for m in candidates:
            inside = m.tobytes() in keys
            outside += not inside
            assert _member(group, Isometry(lat, m)) == inside
    assert stopped >= 7 and closed >= 230 and outside >= 1500


def test_membership_of_alternating_groups():
    lat = PicardLattice(6)
    weyl = _reference_close_group(lat, [reflection(lat, s) for s in simple_roots(lat)], 12)
    sigmas = [hexagon_sigma_isometry(lat, p) for p in ("fig_a", "fig_b", "fig_c")]
    groups = [close_group(lat, [s]) for s in sigmas]
    members = [{m.tobytes() for m in _reference_close_group(lat, [s], 10)} for s in sigmas]
    assert len({frozenset(m) for m in members}) == 3
    for _ in range(3):
        for group, sigma, mine in zip(groups, sigmas, members):
            for m in weyl:
                assert _member(group, Isometry(lat, m)) == (m.tobytes() in mine)
            assert _member(group, sigma)
    # a group no longer referenced is freed
    dropped = weakref.ref(groups[0])
    del groups[0]
    gc.collect()
    assert dropped() is None


def test_fingerprint_examples():
    lat2 = PicardLattice(2)
    fp_id = fingerprint(lat2, identity(lat2))
    assert fp_id.trace_kperp == 7
    assert fp_id.fixed_line_count == 56
    geiser = minus_on_kperp(lat2)
    fp_g = fingerprint(lat2, geiser)
    assert fp_g.trace_kperp == -7
    assert fp_g.fixed_line_count == 0
    assert fp_g.order == 2
    # any root reflection on degree 3 has eigenvalues -1, 1^5 on K-perp,
    # hence trace 4 (= r - 2k with r = 6, k = 1)
    lat3 = PicardLattice(3)
    fp_r = fingerprint(lat3, reflection(lat3, _cls(0, 1, -1, 0, 0, 0, 0)))
    assert fp_r.trace_kperp == 4
    assert fp_r.charpoly_kperp == (-1, 4, -5, 0, 5, -4, 1)  # (x-1)^5 (x+1)


def test_trace_kperp_is_full_trace_minus_one():
    lat = PicardLattice(4)
    rng = random.Random(23)
    roots = enumerate_roots(lat)
    for _ in range(10):
        g = reflection(lat, rng.choice(roots)) * reflection(lat, rng.choice(roots))
        fp = fingerprint(lat, g)
        assert fp.trace_kperp == int(np.trace(np.array(g.matrix))) - 1


def test_fingerprint_is_conjugation_invariant():
    lat = PicardLattice(3)
    group = full_weyl_group(5)
    rng = random.Random(31)
    roots = enumerate_roots(lat)
    g = reflection(lat, roots[0]) * reflection(lat, roots[10])
    fp = fingerprint(lat, g)
    w_roots = enumerate_roots(lat)
    for _ in range(6):
        h = reflection(lat, rng.choice(w_roots)) * reflection(lat, rng.choice(w_roots))
        conj = h * g * h.inverse()
        assert fingerprint(lat, conj) == fp


def test_inverse_is_exact():
    lat = PicardLattice(1)
    roots = enumerate_roots(lat)
    g = reflection(lat, roots[0]) * reflection(lat, roots[7]) * reflection(lat, roots[100])
    assert (g * g.inverse()).is_identity() and (g.inverse() * g).is_identity()
    with pytest.raises(NotAnIsometry):
        Isometry(lat, 2 * np.eye(lat.rank, dtype=np.int64))


def _poly_at_matrix(coeffs, mat):
    """sum_i coeffs[i] M^i over Python ints, by Horner's rule."""
    m = [[int(x) for x in row] for row in mat]
    n = len(m)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(coeffs):
        acc = [
            [sum(acc[i][t] * m[t][j] for t in range(n)) + (c if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
    return acc


def test_charpoly_int_cayley_hamilton():
    x_minus_1, x_plus_1 = (-1, 1), (1, 1)
    for degree in (3, 2, 1):
        lat = PicardLattice(degree)
        roots = enumerate_roots(lat)
        refl = reflection(lat, roots[5])
        poly = _charpoly_int(refl.matrix)
        assert poly == _poly_from_factors(*[x_minus_1] * (lat.rank - 1), x_plus_1)
        mats = [refl.matrix, (refl * reflection(lat, roots[7]) * reflection(lat, roots[30])).matrix]
        if degree in (2, 1):
            mats.append(minus_on_kperp(lat).matrix)
            pos = np.array(_positive_roots(lat))
            for k in range(2, lat.r + 1):
                frames, _ = enumerate_cliques((pos @ lat.gram @ pos.T) == 0, k, 1)
                mats.append(frame_matrix(lat, pos[frames[0]]))
        for mat in mats:
            poly = _charpoly_int(mat)
            assert len(poly) == lat.rank + 1 and poly[-1] == 1
            assert not any(any(row) for row in _poly_at_matrix(poly, mat))
    lat1 = PicardLattice(1)
    assert _charpoly_int(minus_on_kperp(lat1).matrix) == _poly_from_factors(*[x_plus_1] * 8, x_minus_1)


def test_minus_on_kperp():
    lat2 = PicardLattice(2)
    geiser = minus_on_kperp(lat2)
    assert geiser.apply(lat2.canonical) == lat2.canonical
    lat1 = PicardLattice(1)
    bertini = minus_on_kperp(lat1)
    e1 = lat1.basis[1]
    image = bertini.apply(e1)
    assert image == -2 * lat1.canonical - e1
    assert lat1.selfint(image) == -1
    with pytest.raises(UnsupportedDegree):
        minus_on_kperp(PicardLattice(3))


def test_involution_frames_tables():
    lat2 = PicardLattice(2)
    scan = involution_frames(lat2, 3)
    assert {fp.trace_kperp for fp in scan.fingerprints} == {1}
    assert {fp.fixed_line_count for fp in scan.fingerprints} == {8, 0}
    lat1 = PicardLattice(1)
    scan = involution_frames(lat1, 4)
    assert {fp.trace_kperp for fp in scan.fingerprints} == {0}
    assert {fp.fixed_line_count for fp in scan.fingerprints} == {8, 24}
    lat3 = PicardLattice(3)
    scan = involution_frames(lat3, 1)
    assert len(scan.fingerprints) == 1
    fp = scan.fingerprints[0]
    assert fp.trace_kperp == 4 and fp.fixed_line_count == 15 and fp.fixed_trio_count == 15
    assert scan.exhausted


def test_frame_trace_law():
    for degree in (3, 2, 1):
        lat = PicardLattice(degree)
        for k in range(0, min(4, lat.r) + 1):
            scan = involution_frames(lat, k, budget=5000)
            for fp in scan.fingerprints:
                assert fp.trace_kperp == lat.r - 2 * k


def test_small_budget_flags_underreporting():
    lat = PicardLattice(1)
    scan = involution_frames(lat, 4, budget=50)
    assert not scan.exhausted
    assert scan.frames_examined == 50


def _a3_squared_element(lat2):
    def root(*coords):
        return _cls(*coords)

    chain1 = [root(0, 1, -1, 0, 0, 0, 0, 0), root(0, 0, 1, -1, 0, 0, 0, 0), root(0, 0, 0, 1, -1, 0, 0, 0)]
    chain2 = [
        root(0, 0, 0, 0, 0, 1, -1, 0),
        root(0, 0, 0, 0, 0, 0, 1, -1),
        root(2, -1, -1, -1, -1, -1, -1, 0),
    ]
    g = identity(lat2)
    for s in chain1 + chain2:
        g = g * reflection(lat2, s)
    return g


def test_classify_named():
    lat2 = PicardLattice(2)
    g = _a3_squared_element(lat2)
    assert element_order(g) == 4
    fp = fingerprint(lat2, g)
    assert fp.trace_kperp == -1
    assert classify_named(lat2, g) == "A_3^2"
    # order-3 element of type A_2^2 on degree 1
    lat1 = PicardLattice(1)
    from delpezzo.dp1 import a22_element

    g3 = a22_element(lat1)
    assert fingerprint(lat1, g3).trace_kperp == 2
    assert classify_named(lat1, g3) == "A_2^2"
    # involution rows
    assert classify_named(lat2, minus_on_kperp(lat2)) == "A_1^7"
    assert classify_named(lat1, minus_on_kperp(lat1)) == "A_1^8"
    assert classify_named(lat2, identity(lat2)) == "id"


def test_classify_named_d4a1():
    """A 4-cycle of roots (two orthogonal pairs, unit products around the
    square) gives an order-4 element with spectrum {i, i, -i, -i} on its
    span; times an orthogonal reflection it lands in the remaining named
    order-4 class."""
    lat2 = PicardLattice(2)
    a = _cls(0, 1, -1, 0, 0, 0, 0, 0)
    b = _cls(0, 0, 1, -1, 0, 0, 0, 0)
    c = _cls(0, 0, 0, 1, -1, 0, 0, 0)
    d = _cls(1, -1, 0, 0, -1, -1, 0, 0)
    s = _cls(0, 0, 0, 0, 0, 0, 1, -1)
    assert lat2.intersection(a, c) == 0 and lat2.intersection(b, d) == 0
    g = (
        reflection(lat2, a)
        * reflection(lat2, c)
        * reflection(lat2, b)
        * reflection(lat2, d)
        * reflection(lat2, s)
    )
    assert element_order(g) == 4
    fp = fingerprint(lat2, g)
    assert fp.trace_kperp == 1
    # (x^2+1)^2 (x+1) (x-1)^2, ascending coefficients
    assert fp.charpoly_kperp == (1, -1, 1, -1, -1, 1, -1, 1)
    assert classify_named(lat2, g) == "D_4(a_1)xA_1"


def test_frame_matrix_is_commuting_product():
    lat = PicardLattice(3)
    roots = enumerate_roots(lat)
    arr = np.array([r.coords for r in roots])
    # pick an orthogonal pair
    found = None
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if lat.intersection(roots[i], roots[j]) == 0:
                found = (i, j)
                break
        if found:
            break
    i, j = found
    prod = reflection(lat, roots[i]) * reflection(lat, roots[j])
    assert frame_matrix(lat, arr[[i, j]]) == prod.matrix  # array rows in, int rows out
    assert frame_matrix(lat, [roots[i].coords, roots[j].coords]) == prod.matrix


def _permutation_by_lookup(g, lines):
    """The line permutation as callers computed it before `Isometry.permutation`."""
    arr = np.array([e.coords for e in lines], dtype=np.int64)
    index = {e.coords: i for i, e in enumerate(lines)}
    return [index[tuple(int(x) for x in row)] for row in arr @ np.array(g.matrix).T]


def test_permutation_matches_the_coordinate_lookup():
    for degree in range(1, 7):
        lat = PicardLattice(degree)
        lines = enumerate_exceptional(lat)
        isos = [reflection(lat, s) for s in simple_roots(lat)]
        if degree <= 2:
            isos.append(minus_on_kperp(lat))
        for g in isos:
            perm = g.permutation(lines)
            assert list(perm) == _permutation_by_lookup(g, lines)
            assert sorted(perm) == list(range(len(lines)))


def test_permutation_rejects_classes_the_isometry_does_not_preserve():
    lat = PicardLattice(3)
    swap = reflection(lat, _cls(0, 1, -1, 0, 0, 0, 0))  # exchanges e_1 and e_2
    assert swap.permutation([_cls(0, 1, 0, 0, 0, 0, 0), _cls(0, 0, 1, 0, 0, 0, 0)]) == (1, 0)
    with pytest.raises(ValueError):
        swap.permutation([_cls(0, 1, 0, 0, 0, 0, 0)])


def test_trace_equals_the_einsum_trace():
    for degree in (4, 5, 6):
        lat = PicardLattice(degree)
        mats = _reference_close_group(lat, [reflection(lat, s) for s in simple_roots(lat)], 2000)
        traces = np.einsum("nii->n", mats)
        assert [Isometry(lat, m).trace() for m in mats] == traces.tolist()


def test_group_membership_operator():
    """Membership sifts through a base of two points: the group of the fig_a
    and fig_b involutions holds both, their product and the identity, and
    not the fig_c involution."""
    lat = PicardLattice(6)
    sigmas = [hexagon_sigma_isometry(lat, p) for p in ("fig_a", "fig_b", "fig_c")]
    group = close_group(lat, sigmas[:2])
    assert group.order == 4 and len(group.base) == 2
    assert all(_member(group, g) for g in (sigmas[0], sigmas[1], sigmas[0] * sigmas[1], identity(lat)))
    assert not _member(group, sigmas[2])


def test_isometry_rejects_non_integer_entries():
    lat = PicardLattice(6)
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    assert Isometry(lat, eye).is_identity()
    assert Isometry(lat, np.eye(4, dtype=np.int64)).matrix == identity(lat).matrix
    for bad in (1.9, 1.0, "1", True, [1]):
        mat = [row[:] for row in eye]
        mat[0][0] = bad
        with pytest.raises(NotAnIsometry, match="integers"):
            Isometry(lat, mat)
    for bad in (5, [5], eye[:3], [row[:3] for row in eye], [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]):
        with pytest.raises(NotAnIsometry, match="4x4"):
            Isometry(lat, bad)


def _fixed_lines_and_trios_by_images(lat, g):
    """Fixed lines and (degree 3) fixed trios by comparing coordinate images."""
    lines = np.array([e.coords for e in enumerate_exceptional(lat)], dtype=np.int64)
    m = np.array(g.matrix, dtype=np.int64)
    fixed_lines = int((lines @ m.T == lines).all(axis=1).sum())
    if lat.degree != 3:
        return fixed_lines, None
    fixed_trios = 0
    for trio in tritangent_trios(lat):
        imgs = {tuple(int(x) for x in m @ np.array(t.coords)) for t in trio}
        if imgs == {t.coords for t in trio}:
            fixed_trios += 1
    return fixed_lines, fixed_trios


def test_fingerprint_counts_match_the_coordinate_images():
    lat = PicardLattice(3)
    rng = random.Random(20)
    isos = [_word(lat, enumerate_roots(lat), rng, rng.randint(1, 12)) for _ in range(200)]
    for degree in range(1, 7):
        lat = PicardLattice(degree)
        isos += [reflection(lat, s) for s in simple_roots(lat)]
        if degree <= 2:
            isos.append(minus_on_kperp(lat))
    for g in isos:
        fp = fingerprint(g.lattice, g)
        assert (fp.fixed_line_count, fp.fixed_trio_count) == _fixed_lines_and_trios_by_images(g.lattice, g)
