import random
from fractions import Fraction

import pytest

from delpezzo.invforms import (
    BinaryForm,
    group_from_label,
    in_span,
    invariant_subspace,
    is_invariant,
    realpart_power,
    standard_cyclic,
    standard_dihedral,
)

# dimensions of the boxed invariant families at degrees 2, 4, 6
BOX_DIMS = {
    "z2": (3, 5, 7),
    "z4": (1, 3, 3),
    "z6": (1, 1, 3),
    "z8": (1, 1, 1),
    "d2": (2, 3, 4),
    "d4": (1, 2, 2),
    "d6": (1, 1, 2),
    "d8": (1, 1, 1),
}


def test_standard_representations():
    z4 = standard_cyclic(4)
    assert z4.order == 4
    d6 = standard_dihedral(6)
    assert d6.order == 12
    assert d6.contains_minus_identity()
    assert not standard_cyclic(3).contains_minus_identity()
    # exact rotation entries: cos(2 pi / 6) = 1/2
    r6 = standard_cyclic(6).matrices[1]
    assert r6[0][0].as_rational() == Fraction(1, 2)


def test_dimension_table():
    for label, dims in BOX_DIMS.items():
        g = group_from_label(label)
        got = tuple(len(invariant_subspace(g, k)) for k in (2, 4, 6))
        assert got == dims, label


def _span_equal(basis_a, basis_b):
    return all(in_span(b, basis_a) for b in basis_b) and all(
        in_span(a, basis_b) for a in basis_a
    )


def _bf(coeffs):
    return BinaryForm.from_rational(coeffs)


def test_boxed_families_as_subspaces():
    x2y2 = _bf([1, 0, 1])  # x^2 + y^2 is universal
    sq = lambda f: f * f
    # D_4, degree 4: a x^4 + b x^2 y^2 + a y^4
    assert _span_equal(invariant_subspace(group_from_label("d4"), 4), [_bf([1, 0, 0, 0, 1]), _bf([0, 0, 1, 0, 0])])
    # Z/4, degree 4 adds xy(x^2 - y^2)
    assert _span_equal(
        invariant_subspace(group_from_label("z4"), 4),
        [_bf([1, 0, 0, 0, 1]), _bf([0, 0, 1, 0, 0]), _bf([0, 1, 0, -1, 0])],
    )
    # Z/4, degree 6: (x^2+y^2)(a x^4 + d x^3 y + b x^2 y^2 - d x y^3 + a y^4)
    z4_6 = invariant_subspace(group_from_label("z4"), 6)
    fam = [
        x2y2 * _bf([1, 0, 0, 0, 1]),
        x2y2 * _bf([0, 1, 0, -1, 0]),
        x2y2 * _bf([0, 0, 1, 0, 0]),
    ]
    assert _span_equal(z4_6, fam)
    # D_8, degree 6: multiples of (x^2+y^2)^3
    assert _span_equal(invariant_subspace(group_from_label("d8"), 6), [x2y2 * x2y2 * x2y2])
    # Z/8 coincides with D_8 up to degree 6
    assert _span_equal(
        invariant_subspace(group_from_label("z8"), 6),
        invariant_subspace(group_from_label("d8"), 6),
    )
    # D_2, degree 2: a x^2 + b y^2
    assert _span_equal(
        invariant_subspace(group_from_label("d2"), 2), [_bf([1, 0, 0]), _bf([0, 0, 1])]
    )


def test_table8_form_columns():
    """The (f4, f6) columns of the degree-1 classification table, box-corrected
    for the D_4 row (see the decisions ledger)."""
    x2y2 = _bf([1, 0, 1])
    re6 = realpart_power(6, "real")
    im6 = realpart_power(6, "imag")
    cases = {
        "z4": {
            4: [_bf([1, 0, 0, 0, 1]), _bf([0, 0, 1, 0, 0]), _bf([0, 1, 0, -1, 0])],
            6: [x2y2 * _bf([1, 0, 0, 0, 1]), x2y2 * _bf([0, 1, 0, -1, 0]), x2y2 * _bf([0, 0, 1, 0, 0])],
        },
        "z6": {
            4: [x2y2 * x2y2],
            6: [x2y2 * x2y2 * x2y2, re6, im6],
        },
        "d2": {
            4: [_bf([1, 0, 0, 0, 0]), _bf([0, 0, 1, 0, 0]), _bf([0, 0, 0, 0, 1])],
            6: [_bf([1, 0, 0, 0, 0, 0, 0]), _bf([0, 0, 1, 0, 0, 0, 0]), _bf([0, 0, 0, 0, 1, 0, 0]), _bf([0, 0, 0, 0, 0, 0, 1])],
        },
        "d4": {
            4: [_bf([1, 0, 0, 0, 1]), _bf([0, 0, 1, 0, 0])],
            6: [x2y2 * _bf([1, 0, 0, 0, 1]), x2y2 * _bf([0, 0, 1, 0, 0])],
        },
        "d6": {
            4: [x2y2 * x2y2],
            6: [x2y2 * x2y2 * x2y2, re6],
        },
    }
    for label, by_degree in cases.items():
        g = group_from_label(label)
        for k, family in by_degree.items():
            assert _span_equal(invariant_subspace(g, k), family), (label, k)


def test_is_invariant_examples():
    x2y2 = _bf([1, 0, 1])
    for n in (2, 3, 5, 7, 8):
        assert is_invariant(standard_cyclic(n), x2y2)
    d6 = group_from_label("d6")
    assert is_invariant(d6, realpart_power(6, "real"))
    assert not is_invariant(group_from_label("z4"), _bf([1, 0, 0, 0, 0]))


def test_realpart_powers():
    assert realpart_power(2, "real").rational_coeffs() == (1, 0, -1)
    assert realpart_power(2, "imag").rational_coeffs() == (0, 2, 0)
    assert realpart_power(6, "real").rational_coeffs() == (1, 0, -15, 0, 15, 0, -1)
    assert realpart_power(1, "imag").rational_coeffs() == (0, 1)
    with pytest.raises(ValueError):
        realpart_power(0)
    with pytest.raises(ValueError):
        realpart_power(2, "bogus")


def test_invariant_subspace_passes_is_invariant():
    for label in BOX_DIMS:
        g = group_from_label(label)
        for k in (2, 4, 6):
            for form in invariant_subspace(g, k):
                assert is_invariant(g, form)


def test_reynolds_idempotence():
    rng = random.Random(13)
    for label in ("z4", "d6"):
        g = group_from_label(label)
        for _ in range(4):
            f = BinaryForm.from_rational([rng.randint(-3, 3) for _ in range(5)])
            once = _reynolds(g, f)
            twice = _reynolds(g, once)
            assert (once - twice).is_zero()


def _reynolds(g, f):
    acc = BinaryForm.from_rational([0] * (f.degree + 1))
    for m in g.matrices:
        acc = acc + f.substituted(m)
    return Fraction(1, g.order) * acc


def test_dihedral_space_inside_cyclic_space():
    for n in (2, 4, 6, 8):
        for k in (2, 4, 6):
            dn = invariant_subspace(standard_dihedral(n), k)
            zn = invariant_subspace(standard_cyclic(n), k)
            for form in dn:
                assert in_span(form, zn)


def test_dihedral_without_its_reflection_raises(monkeypatch):
    from delpezzo import invforms

    rotation = invforms._rotation_matrix
    monkeypatch.setattr(invforms, "_rotation_matrix", lambda n, k: rotation(n, 1))
    with pytest.raises(ArithmeticError):
        standard_dihedral(3)
