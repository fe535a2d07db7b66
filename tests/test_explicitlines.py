import numpy as np
import pytest

from delpezzo import colorgraph
from delpezzo.exactint import _solve
from delpezzo.exactnum import CycloNum, cyclo_make
from delpezzo.explicitlines import (
    CLEBSCH_TWISTS,
    FERMAT_TWISTS,
    InvalidCocycle,
    TwistedRealStructure,
    clebsch_cubic_value,
    clebsch_hyperplane_value,
    clebsch_lines,
    clebsch_twist,
    count_real_lines,
    count_real_tritangents,
    dp2_conjugate,
    dp2_example_lines,
    dp2_geiser,
    dp2_incidence_matrix,
    dp2_orbit_report,
    dp2_rotation,
    dp2_surface_value,
    fermat_cubic_value,
    fermat_lines,
    fermat_twist,
    golden_ratio,
    incidence_graph,
    tritangent_triples,
)
from delpezzo.minimality import find_contractible_set, invariant_rank
from delpezzo.picard import PicardLattice, enumerate_exceptional, incidence_matrix
from delpezzo.tables import CUBIC_REAL_PAIRS
from delpezzo.weyl import Isometry, close_group, element_order, fingerprint, minus_on_kperp

PARAMS = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 5)]


def _span_points(line):
    p1, p2 = line.span
    for s, t in PARAMS:
        yield tuple(CycloNum.rational(s) * a + CycloNum.rational(t) * b for a, b in zip(p1, p2))


def test_fermat_lines_on_surface():
    lines = fermat_lines()
    assert len(lines) == 27
    for line in lines:
        for pt in _span_points(line):
            assert fermat_cubic_value(pt).is_zero()


def test_gamma00_parametrization():
    gamma00 = next(l for l in fermat_lines() if l.label == "gamma_00")
    # gamma_00 is x1 + x2 = x4 + x3 = 0: the (x, -x, y, -y) parametrization
    for pt in _span_points(gamma00):
        assert pt[0] == -pt[1]
        assert pt[3] == -pt[2]


def test_clebsch_lines_on_surface():
    lines = clebsch_lines()
    assert len(lines) == 27
    assert sum(1 for l in lines if len(l.label) == 5) == 15
    assert sum(1 for l in lines if len(l.label) == 6) == 12
    for line in lines:
        for pt in _span_points(line):
            assert clebsch_cubic_value(pt).is_zero()
            assert clebsch_hyperplane_value(pt).is_zero()


def test_golden_ratio_identity():
    z = golden_ratio()
    assert z * z == z + 1


def test_clebsch_s5_stability():
    """All 120 coordinate permutations permute the 27 lines."""
    from itertools import permutations

    from delpezzo.explicitlines import ProjSpaceLine

    lines = clebsch_lines()
    for perm in permutations(range(5)):
        for line in lines[:3]:
            moved = ProjSpaceLine(
                4,
                tuple(tuple(pt[perm[i]] for i in range(5)) for pt in line.span),
            )
            assert any(other.same_line(moved) for other in lines)


def test_incidence_ten_regular():
    for lines in (fermat_lines(), clebsch_lines()):
        inc = incidence_graph(lines)
        assert all(sum(row) == 10 for row in inc)
        assert len(tritangent_triples(lines)) == 45


def test_real_line_counts():
    flines = fermat_lines()
    assert count_real_lines(flines, fermat_twist("id")) == 3
    assert count_real_lines(flines, fermat_twist("t12")) == 3
    assert count_real_lines(flines, fermat_twist("t1234")) == 15
    clines = clebsch_lines()
    assert count_real_lines(clines, clebsch_twist("id")) == 27
    assert count_real_lines(clines, clebsch_twist("t12")) == 3
    assert count_real_lines(clines, clebsch_twist("t1234")) == 7
    for twist in ("id", "t12", "t1234"):
        assert count_real_lines([], fermat_twist(twist)) == 0
        assert count_real_lines([], clebsch_twist(twist)) == 0


def test_fermat_real_line_labels():
    lines = fermat_lines()
    rs = fermat_twist("t12")
    fixed = {l.label for l in lines if rs.fixes_line(l)}
    assert fixed == {"gamma_00", "gamma_10", "gamma_20"}


def test_clebsch_t12_real_labels():
    lines = clebsch_lines()
    rs = clebsch_twist("t12")
    fixed = {l.label for l in lines if rs.fixes_line(l)}
    assert fixed == {"L_312", "L_412", "L_512"}


def test_real_tritangent_counts():
    flines = fermat_lines()
    assert count_real_tritangents(flines, fermat_twist("id")) == 7
    assert count_real_tritangents(flines, fermat_twist("t12")) == 7
    clines = clebsch_lines()
    assert count_real_tritangents(clines, clebsch_twist("id")) == 45
    assert count_real_tritangents(clines, clebsch_twist("t12")) == 13
    assert count_real_tritangents(clines, clebsch_twist("t1234")) == 5
    # table pairing: 7 lines with 5 planes on the (12)(34) Clebsch twist
    assert count_real_lines(clines, clebsch_twist("t1234")) == 7


def test_real_tritangents_refuse_a_twist_off_the_surface():
    # diag(-1, 1, 1, 1) is a real structure of P^3 that does not preserve
    # the Fermat cubic, so some image of a line is not one of its lines
    one = CycloNum.rational(1)
    zero = CycloNum.rational(0)
    diag = tuple(tuple((-one if i == 0 else one) if i == j else zero for j in range(4)) for i in range(4))
    with pytest.raises(ValueError, match="image is not in the line set"):
        count_real_tritangents(fermat_lines(), TwistedRealStructure(diag))


def test_invalid_cocycle_rejected():
    one = CycloNum.rational(1)
    zero = CycloNum.rational(0)
    # unipotent shear: composed with conjugation it has infinite order
    with pytest.raises(InvalidCocycle):
        TwistedRealStructure(((one, one), (zero, one)))
    # a twist by i is a genuine cocycle: (i conj)^2 = i * conj(i) = 1
    i = cyclo_make(4, 1)
    TwistedRealStructure(((i, zero), (zero, one)))


def test_dp2_lines_on_surface():
    lines = dp2_example_lines()
    assert len(lines) == 56
    for line in lines:
        p1, p2 = line.plane_points()
        pts = [p1, p2, tuple(a + b for a, b in zip(p1, p2))]
        for pt in pts:
            w = line.eval_w(pt)
            assert dp2_surface_value(pt[0], pt[1], pt[2], w).is_zero()


def test_dp2_alpha2_identity():
    i = cyclo_make(4, 1)
    assert (CycloNum.rational(1) + i) ** 2 == 2 * i


def test_dp2_incidence_structure():
    lines = dp2_example_lines()
    inc = np.array(dp2_incidence_matrix(lines))
    # every line: one Geiser partner (2), 27 simple meets, 28 disjoint
    for row in inc:
        assert (row == 2).sum() == 1
        assert (row == 1).sum() == 27
    # geiser pairing matches the w-negation involution
    for idx, line in enumerate(lines[:8]):
        partner = dp2_geiser(line)
        j = next(k for k, other in enumerate(lines) if other.same_line(partner))
        assert inc[idx][j] == 2


def test_dp2_rotation_permutes_and_orbits():
    lines = dp2_example_lines()
    for sign in (1, -1):
        for line in lines[:6]:
            img = dp2_rotation(line, sign)
            assert any(other.same_line(img) for other in lines)
        report = dp2_orbit_report(sign)
        assert sum(o["size"] for o in report["orbits"]) == 56
        assert report["disjoint_real_orbits"] == []


def test_dp2_conjugation_permutes():
    lines = dp2_example_lines()
    for line in lines[:8]:
        img = dp2_conjugate(line)
        assert any(other.same_line(img) for other in lines)


def _to_np(mat):
    arr = np.array(mat)
    return arr


def test_coordinate_lattice_isomorphism_deg3():
    lat = PicardLattice(3)
    lattice_cm = np.array(incidence_matrix(lat, enumerate_exceptional(lat)))
    np.fill_diagonal(lattice_cm, 0)
    for lines in (fermat_lines(), clebsch_lines()):
        cm = _to_np(incidence_graph(lines))
        iso = colorgraph.isomorphism(cm, ["v"] * 27, lattice_cm, ["v"] * 27)
        assert iso is not None
        perm = np.zeros((27, 27), dtype=int)
        for i in range(27):
            perm[iso[i], i] = 1
        assert np.array_equal(perm @ cm @ perm.T, lattice_cm)


def test_coordinate_lattice_isomorphism_deg2():
    lat = PicardLattice(2)
    lattice_cm = np.array(incidence_matrix(lat, enumerate_exceptional(lat)))
    np.fill_diagonal(lattice_cm, 0)
    cm = _to_np(dp2_incidence_matrix(dp2_example_lines()))
    iso = colorgraph.isomorphism(cm, ["v"] * 56, lattice_cm, ["v"] * 56)
    assert iso is not None
    perm = np.zeros((56, 56), dtype=int)
    for i in range(56):
        perm[iso[i], i] = 1
    assert np.array_equal(perm @ cm @ perm.T, lattice_cm)


def _line_isometry(lat, classes, iso, lines, move):
    """The isometry M with M c(iso[i]) = c(iso[images[i]]), where a model's
    line i has the class c(iso[i]) and `move` takes it to line images[i]; M
    must be integral and permute the classes accordingly."""
    moved = [move(line) for line in lines]
    images = [next(j for j, other in enumerate(lines) if other.same_line(m)) for m in moved]
    # rows of M solve A x = b, A's rows the classes of the lines and b a
    # coordinate of their images
    a = [classes[iso[i]].coords for i in range(len(images))]
    b = [classes[iso[j]].coords for j in images]
    rows = _solve(a, [[row[k] for row in b] for k in range(lat.rank)])
    assert rows is not None and all(x.denominator == 1 for row in rows for x in row)
    g = Isometry(lat, [[int(x) for x in row] for row in rows])
    assert g.permutation(classes) == tuple(iso[images[iso.index(c)]] for c in range(len(classes)))
    return g


def test_cubic_twists_are_lattice_involutions_with_table_3_counts():
    """Each twist of either cubic permutes the lines labelled by exceptional
    classes; that permutation is an isometry of the Picard lattice, and its
    fingerprint's (fixed lines, fixed trios) are the surface's real lines and
    real tritangent planes.  Together the six twists give every row of table 3."""
    lat = PicardLattice(3)
    classes = enumerate_exceptional(lat)
    lattice_cm = [[max(x, 0) for x in row] for row in incidence_matrix(lat, classes)]
    pairs = set()
    for lines, twist, names in ((fermat_lines(), fermat_twist, FERMAT_TWISTS), (clebsch_lines(), clebsch_twist, CLEBSCH_TWISTS)):
        iso = colorgraph.isomorphism(incidence_graph(lines), ["v"] * 27, lattice_cm, ["v"] * 27)
        for name in names:
            rs = twist(name)
            g = _line_isometry(lat, classes, iso, lines, rs.apply_line)
            fp = fingerprint(lat, g)
            pair = (fp.fixed_line_count, fp.fixed_trio_count)
            assert pair == (count_real_lines(lines, rs), count_real_tritangents(lines, rs)), (name, pair)
            pairs.add(pair)
    assert sorted(pairs) == sorted(row["pair"] for row in CUBIC_REAL_PAIRS)


def test_dp2_example_symmetries_are_lattice_isometries():
    """The 56 lines of the degree-2 example, labelled by exceptional classes:
    for either sign on w, the rotation is an isometry of order 4 and the
    conjugation an involution fixing the 8 real lines; the Geiser involution
    is -1 on the complement of K; the group they generate has order 8 and
    invariant Picard rank 2, and no invariant set of disjoint lines (the
    lattice form of the report's empty `disjoint_real_orbits`)."""
    lat = PicardLattice(2)
    classes = enumerate_exceptional(lat)
    lattice_cm = [[max(x, 0) for x in row] for row in incidence_matrix(lat, classes)]
    lines = dp2_example_lines()
    iso = colorgraph.isomorphism(dp2_incidence_matrix(lines), ["v"] * 56, lattice_cm, ["v"] * 56)
    sigma = _line_isometry(lat, classes, iso, lines, dp2_conjugate)
    assert element_order(sigma) == 2 and fingerprint(lat, sigma).fixed_line_count == 8
    geiser = _line_isometry(lat, classes, iso, lines, dp2_geiser)
    assert geiser.permutation(classes) == minus_on_kperp(lat).permutation(classes)
    for w_sign in (1, -1):
        rho = _line_isometry(lat, classes, iso, lines, lambda line: dp2_rotation(line, w_sign))
        assert element_order(rho) == 4, w_sign
        group = close_group(lat, [rho, sigma])
        assert group.order == 8 and invariant_rank(group) == 2, w_sign
        assert find_contractible_set(group) is None, w_sign
