"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime.  Tolerances are exact (integer/set equality) throughout;
time budgets are asserted as stated.
"""

import random
import time

import numpy as np
import pytest

from delpezzo import colorgraph
from delpezzo.dp1 import (
    DP1Surface,
    _euler_verdict,
    a22_element,
    classify_fibers,
    find_star_configurations,
    star_block_matrix,
    table8_certify_row,
)
from delpezzo.dp4 import (
    DP4Element,
    IDENTITY,
    NotAGroup,
    all_subgroups,
    ambient_group,
    delta_criterion,
    dp4_invariant_rank,
    dp4_matrix,
    dp4_matrix_geometric,
    enumerate_strongly_minimal,
    get_form,
    star_condition,
)
from delpezzo.explicitlines import (
    clebsch_lines,
    clebsch_twist,
    count_real_lines,
    count_real_tritangents,
    dp2_incidence_matrix,
    dp2_example_lines,
    fermat_lines,
    fermat_twist,
    incidence_graph,
)
from delpezzo.invforms import BinaryForm, group_from_label, in_span, invariant_subspace, realpart_power
from delpezzo.minimality import invariant_rank, lefschetz_euler
from delpezzo.picard import PicardLattice, enumerate_exceptional, enumerate_roots, incidence_matrix
from delpezzo.weyl import (
    close_group,
    full_weyl_group,
    identity,
    involution_frames,
    minus_on_kperp,
    reflection,
)
from test_weyl import _reference_close_group, trace_average_rank


def _timed(name, budget_s, fn):
    start = time.time()
    try:
        fn()
    except Exception:
        print(f"criterion {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    status = "PASS" if elapsed < budget_s else "PASS (over budget)"
    print(f"criterion {name}: {status} ({elapsed:.1f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget"


def test_criterion_01_exceptional_counts():
    def run():
        expected = {7: 3, 6: 6, 5: 10, 4: 16, 3: 27, 2: 56, 1: 240}
        for degree, count in expected.items():
            assert len(enumerate_exceptional(PicardLattice(degree))) == count

    _timed("1 exceptional counts", 10, run)


def test_criterion_02_weyl_orders():
    def run():
        assert full_weyl_group(6).order == 12
        assert full_weyl_group(5).order == 120
        assert full_weyl_group(4).order == 1920
        assert full_weyl_group(3).order == 51840

    _timed("2 weyl orders", 60, run)


def test_criterion_03_rank_oracle_equivalence():
    def run():
        rng = random.Random(20260810)
        count = 0
        for degree in (3, 4, 5, 6):
            lat = PicardLattice(degree)
            roots = enumerate_roots(lat)
            for _ in range(50):
                n_gens = 2 if degree <= 4 else rng.choice((2, 3))
                gens = [reflection(lat, rng.choice(roots)) for _ in range(n_gens)]
                group = close_group(lat, gens)
                assert invariant_rank(group) == trace_average_rank(_reference_close_group(lat, gens, 10000))
                count += 1
        assert count == 200

    _timed("3 rank oracle equivalence (200 subgroups)", 60, run)


def test_criterion_04_table3_reproduction():
    def run():
        lat = PicardLattice(3)
        expected = {
            0: {(27, 45)},
            1: {(15, 15)},
            2: {(7, 5)},
            3: {(3, 7)},
            4: {(3, 13)},
        }
        for k, want in expected.items():
            scan = involution_frames(lat, k)
            assert scan.exhausted
            got = {(fp.fixed_line_count, fp.fixed_trio_count) for fp in scan.fingerprints}
            assert got == want, (k, got)

    _timed("4 table 3 (E6 frames)", 120, run)


def test_criterion_05_table6_reproduction():
    def run():
        lat = PicardLattice(2)
        found = set()
        for k in range(0, 5):
            scan = involution_frames(lat, k)
            found.update((fp.trace_kperp, fp.fixed_line_count) for fp in scan.fingerprints)
        required = {(7, 56), (5, 32), (3, 16), (1, 8), (1, 0), (-1, 0)}
        assert required <= found, required - found
        # the only extra is the second k = 4 class, whose real form is not
        # rational and therefore absent from the published table
        assert found - required == {(-1, 8)} or found == required

    _timed("5 table 6 (E7 frames)", 300, run)


def test_criterion_06_table7_reproduction():
    def run():
        lat = PicardLattice(1)
        found = set()
        for k in range(0, 9):
            scan = involution_frames(lat, k)
            found.update((fp.trace_kperp, fp.fixed_line_count) for fp in scan.fingerprints)
        expected = {
            (8, 240), (6, 126), (4, 60), (2, 26), (0, 8),
            (0, 24), (-2, 6), (-4, 4), (-6, 2), (-8, 0),
        }
        assert found == expected

    _timed("6 table 7 (E8 frames)", 300, run)


def test_criterion_07_degree4_propositions():
    def run():
        q31 = get_form("q31_02")
        reports = enumerate_strongly_minimal(q31)
        labels = {r.label for r in reports}
        stated = {"Z/2", "(Z/2)^2", "(Z/2)^3", "Z/4", "D_4", "(Z/2)^3:Z/2"}
        # Z/4xZ/2 = <g> x <gamma_3> contains the stated strongly minimal Z/4,
        # so rank monotonicity forces it; the published list omits it (ledger)
        assert labels == stated | {"Z/4xZ/2"}
        z2 = [r for r in reports if r.label == "Z/2"]
        assert len(z2) == 1 and {g.sign for g in z2[0].elements if not g.is_identity()} <= {
            (1, 0, 1, 1, 1),
            (1, 1, 0, 1, 1),
        }
        z4 = [r for r in reports if r.label == "Z/4"]
        assert len(z4) == 1
        assert any(g.order() == 4 and g.perm == (0, 2, 1, 4, 3) for g in z4[0].elements)
        # no strongly minimal actions on the (1,2) form
        assert enumerate_strongly_minimal(get_form("p2_12")) == []
        # exactly the three published order-4 subgroups of A on the (3,1) form
        p231 = get_form("p2_31")
        a_o = [g for g in ambient_group(p231) if g.in_a()]
        quads = {
            frozenset(g.sign for g in r.elements)
            for r in enumerate_strongly_minimal(p231, ambient=a_o)
            if r.order == 4
        }
        assert quads == {
            frozenset([(0, 0, 0, 0, 0), (0, 1, 1, 0, 0), (1, 0, 1, 1, 1), (1, 1, 0, 1, 1)]),
            frozenset([(0, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 1, 1, 1, 1), (1, 0, 1, 1, 1)]),
            frozenset([(0, 0, 0, 0, 0), (1, 0, 1, 0, 0), (0, 1, 1, 1, 1), (1, 1, 0, 1, 1)]),
        }
        # the published 6x6 matrices give rank 1
        g = DP4Element((1, 0, 1, 1, 1), (0, 2, 1, 4, 3))
        group = {IDENTITY, g, g * g, g * g * g}
        assert dp4_invariant_rank(group, q31) == 1
        paper_g = np.array(
            [
                [2, 1, 1, 1, 1, 1],
                [1, 2, 1, 1, 1, 1],
                [-1, -1, -1, -1, -1, 0],
                [-1, -1, -1, -1, 0, -1],
                [-1, -1, 0, -1, -1, -1],
                [-1, -1, -1, 0, -1, -1],
            ]
        )
        assert np.array_equal(dp4_matrix_geometric(g), paper_g)

    _timed("7 degree-4 propositions", 30, run)


def test_criterion_08_delta_star_equivalence():
    def run():
        a_elements = [
            DP4Element(tuple((bits >> i) & 1 for i in range(5)))
            for bits in range(32)
            if sum((bits >> i) & 1 for i in range(5)) % 2 == 0
        ]
        subgroups = all_subgroups(a_elements)
        for form_label in ("p2_31", "q22_02"):
            form = get_form(form_label)
            for sub in subgroups:
                if {form.sigma * g * form.sigma for g in sub} == sub:
                    # the mean trace over {1, sigma} x sub is the rank
                    traces = [np.trace(dp4_matrix(g, form, with_sigma)) for g in sub for with_sigma in (False, True)]
                    assert delta_criterion(sub, form) == (sum(traces) == len(traces))
                    assert dp4_invariant_rank(sub, form) * len(traces) == sum(traces)
                else:
                    for shortcut in (delta_criterion, dp4_invariant_rank):
                        with pytest.raises(NotAGroup):
                            shortcut(sub, form)
        q31 = get_form("q31_02")
        a_o = [g for g in a_elements if g.sign[3] == g.sign[4]]
        for sub in all_subgroups(a_o):
            if star_condition(sub):
                assert dp4_invariant_rank(sub, q31) != 1

    _timed("8 delta/star shortcuts", 10, run)


def test_criterion_09_explicit_lines_cross_check():
    def run():
        lat3 = PicardLattice(3)
        lat_cm3 = np.array(incidence_matrix(lat3, enumerate_exceptional(lat3)))
        np.fill_diagonal(lat_cm3, 0)
        for lines in (fermat_lines(), clebsch_lines()):
            cm = np.array(incidence_graph(lines))
            iso = colorgraph.isomorphism(cm, ["v"] * 27, lat_cm3, ["v"] * 27)
            assert iso is not None
        lat2 = PicardLattice(2)
        lat_cm2 = np.array(incidence_matrix(lat2, enumerate_exceptional(lat2)))
        np.fill_diagonal(lat_cm2, 0)
        cm56 = np.array(dp2_incidence_matrix(dp2_example_lines()))
        iso = colorgraph.isomorphism(cm56, ["v"] * 56, lat_cm2, ["v"] * 56)
        assert iso is not None
        clines = clebsch_lines()
        assert [count_real_lines(clines, clebsch_twist(t)) for t in ("id", "t12", "t1234")] == [27, 3, 7]
        flines = fermat_lines()
        assert [count_real_lines(flines, fermat_twist(t)) for t in ("id", "t12", "t1234")] == [3, 3, 15]
        assert count_real_tritangents(flines, fermat_twist("id")) == 7
        assert count_real_tritangents(flines, fermat_twist("t12")) == 7
        assert count_real_tritangents(clines, clebsch_twist("t12")) == 13

    _timed("9 explicit lines cross-check", 120, run)


def test_criterion_10_invariant_forms():
    def run():
        dims = {
            "z2": (3, 5, 7), "z4": (1, 3, 3), "z8": (1, 1, 1),
            "d2": (2, 3, 4), "d4": (1, 2, 2), "d8": (1, 1, 1),
            "z6": (1, 1, 3), "d6": (1, 1, 2),
        }
        for label, want in dims.items():
            g = group_from_label(label)
            assert tuple(len(invariant_subspace(g, k)) for k in (2, 4, 6)) == want
        # spans of the displayed families (spot-checked here, fully in units)
        x2y2 = BinaryForm.from_rational([1, 0, 1])
        d4_6 = invariant_subspace(group_from_label("d4"), 6)
        fam = [x2y2 * BinaryForm.from_rational([1, 0, 0, 0, 1]), x2y2 * BinaryForm.from_rational([0, 0, 1, 0, 0])]
        assert all(in_span(f, d4_6) for f in fam) and all(in_span(f, fam) for f in d4_6)
        z6_6 = invariant_subspace(group_from_label("z6"), 6)
        fam6 = [x2y2 ** 3, realpart_power(6, "real"), realpart_power(6, "imag")]
        assert all(in_span(f, z6_6) for f in fam6) and all(in_span(f, fam6) for f in z6_6)

    _timed("10 invariant forms", 10, run)


def test_criterion_11_lefschetz():
    def run():
        assert lefschetz_euler(minus_on_kperp(PicardLattice(2))) == -4
        assert lefschetz_euler(minus_on_kperp(PicardLattice(1))) == -5
        # Euler characteristic of the complex surface is 12 - d (= tr + 3);
        # the criterion text's "13 - d" is an off-by-one recorded in the ledger
        for degree in range(1, 8):
            assert lefschetz_euler(identity(PicardLattice(degree))) == 12 - degree

    _timed("11 Lefschetz spot checks", 1, run)


def test_criterion_12_star_configurations():
    def run():
        lat = PicardLattice(1)
        g = a22_element(lat)
        from delpezzo.weyl import fingerprint

        assert fingerprint(lat, g).fixed_line_count == 12
        stars = find_star_configurations(g)
        assert len(stars) == 4
        for i in range(4):
            for j in range(i + 1, 4):
                for a in stars[i].classes:
                    for b in stars[j].classes:
                        assert lat.intersection(a, b) == 1
        rot = np.array([[-1, -1], [1, 0]])
        expected = np.zeros((8, 8), dtype=np.int64)
        expected[:4, :4] = np.eye(4)
        expected[4:6, 4:6] = rot
        expected[6:8, 6:8] = rot
        assert np.array_equal(star_block_matrix(lat, g, stars), expected)

    _timed("12 star configurations", 120, run)


# frozen rational-verdict samples inside each row's invariant family:
# f4 and f6 as coefficient vectors (x^k, ..., y^k)
TABLE8_FIXTURES = {
    "Z/2": ([-2, 0, -2, 0, -2], [-1, 0, -2, 0, -2, 0, 2]),
    "Z/4": ([-2, -2, -2, 2, -2], [0, -2, 1, 0, 1, 2, 0]),
    "Z/6": ([-2, 0, -4, 0, -2], [-1, 0, 33, 0, -27, 0, 3]),
    "(Z/2)^2": ([-2, 0, -2, 0, -2], [-1, 0, -2, 0, -2, 0, 2]),
    "D_4": ([-2, 0, -2, 0, -2], [1, 0, 2, 0, 2, 0, 1]),
    "D_6": ([-2, 0, -4, 0, -2], [-1, 0, 33, 0, -27, 0, 3]),
}


def test_criterion_13_degree1_heuristic():
    def run():
        for row, (f4c, f6c) in TABLE8_FIXTURES.items():
            s = DP1Surface(BinaryForm.from_rational(f4c), BinaryForm.from_rational(f6c))
            assert table8_certify_row(row, s), row
            reports = classify_fibers(s)
            euler, verdict = _euler_verdict(reports)
            assert verdict == "rational", (row, euler)
            crunodes = sum(1 for r in reports if r.kind == "crunode")
            acnodes = sum(1 for r in reports if r.kind == "acnode")
            assert crunodes > acnodes

    _timed("13 degree-1 rationality fixtures", 30, run)
