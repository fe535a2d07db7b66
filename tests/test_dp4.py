import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from delpezzo.dp4 import (
    DP4Element,
    DegeneratePencil,
    IDENTITY,
    MAX_ENUMERATED_AMBIENT,
    NotAGroup,
    REAL_FORMS,
    PencilSpec,
    UnsupportedForm,
    _code,
    _element,
    _extend,
    _members,
    all_subgroups,
    ambient_group,
    delta_criterion,
    dp4_invariant_rank,
    dp4_matrix,
    dp4_matrix_geometric,
    enumerate_strongly_minimal,
    get_form,
    isomorphism_label,
    sign_vector,
    star_condition,
    wall_characteristic,
    _Q31_BASIS,
)

G_PAPER = np.array(
    [
        [2, 1, 1, 1, 1, 1],
        [1, 2, 1, 1, 1, 1],
        [-1, -1, -1, -1, -1, 0],
        [-1, -1, -1, -1, 0, -1],
        [-1, -1, 0, -1, -1, -1],
        [-1, -1, -1, 0, -1, -1],
    ]
)
SIGMA_PAPER = np.array(
    [
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0],
    ]
)


def _a_elements():
    out = []
    for bits in range(32):
        sign = tuple((bits >> i) & 1 for i in range(5))
        if sum(sign) % 2 == 0:
            out.append(DP4Element(sign))
    return out


def test_group_law_and_order():
    g = DP4Element((1, 0, 1, 1, 1), (0, 2, 1, 4, 3))
    assert g.order() == 4
    cube = g * g * g
    assert cube.sign == (1, 1, 0, 1, 1)
    assert cube.perm == (0, 2, 1, 4, 3)
    assert (g * g.inverse()).is_identity()


def test_elements_are_immutable_values():
    g = DP4Element((1, 0, 0, 0, 0), (1, 0, 2, 3, 4))
    assert g == DP4Element([1, 0, 0, 0, 0], [1, 0, 2, 3, 4]) and hash(g) == hash(DP4Element([1, 0, 0, 0, 0], [1, 0, 2, 3, 4]))
    assert g != DP4Element((1, 0, 0, 0, 0)) and g != DP4Element((0, 0, 0, 0, 0), (1, 0, 2, 3, 4))
    assert g != ((1, 0, 0, 0, 0), (1, 0, 2, 3, 4))
    assert len({g, DP4Element((1, 0, 0, 0, 0), (1, 0, 2, 3, 4)), DP4Element((1, 0, 0, 0, 0))}) == 2
    for attr in ("sign", "perm"):
        with pytest.raises(AttributeError):
            setattr(g, attr, getattr(IDENTITY, attr))
    with pytest.raises(AttributeError):
        REAL_FORMS["split"].flips = (1, 0, 0, 0, 0)


def test_sign_vector_validation():
    with pytest.raises(ValueError):
        sign_vector((1, 0, 0, 0, 0))
    assert sign_vector((1, 1, 0, 0, 0)).in_a()
    # bits are the ints 0 and 1: 2 is not read as 0, nor 1.0 or true as 1
    for bad in ((2, 0, 0, 0, 0), (-1, 1, 0, 0, 0), (1.0, 1, 0, 0, 0), (True, True, 0, 0, 0), (1, 1, 0, 0), 5):
        with pytest.raises(ValueError, match="0 or 1"):
            sign_vector(bad)
        with pytest.raises(ValueError, match="0 or 1"):
            DP4Element(bad)
    for perm in ((0, 0, 1, 2, 3), (1, 2, 3, 4, 5), (0, 1, 2, 3), (0.0, 1, 2, 3, 4), (False, True, 2, 3, 4), None):
        with pytest.raises(ValueError, match="permute"):
            DP4Element((0, 0, 0, 0, 0), perm)


def test_json_elements_are_one_based():
    g = DP4Element((1, 0, 1, 1, 1), (0, 2, 1, 4, 3))
    assert g.to_json() == {"sign": [1, 0, 1, 1, 1], "perm": [1, 3, 2, 5, 4]}
    assert DP4Element.from_json(g.to_json()) == g
    for perm in ([0, 1, 2, 3, 4], [1, 2, 3, 4, 5.0], 5):
        with pytest.raises(ValueError, match="permute"):
            DP4Element.from_json({"sign": [0, 0, 0, 0, 0], "perm": perm})


def _np_element_matrix(sign, perm):
    """numpy matrix of (sign, perm) on e_0 = -K, e_1..e_5 (columns = images)."""
    mat = np.zeros((6, 6), dtype=np.int64)
    mat[0, 0] = 1
    for j in range(5):
        t = perm[j]
        mat[0, j + 1] = sign[t]
        mat[t + 1, j + 1] = 1 - 2 * sign[t]
    return mat


def _reference_ambient_group(form):
    """Candidates whose numpy matrix commutes with sigma's: the oracle."""
    if form.label == "split":
        perms = list(permutations(range(5)))
    elif form.label == "q31_02":
        perms = [(0, 1, 2, 3, 4), (0, 2, 1, 4, 3)]
    else:
        perms = [p3 + p2 for p3 in permutations(range(3)) for p2 in permutations((3, 4))]
    sigma = _np_element_matrix(form.flips, form.pair_perm)
    out = []
    for perm in perms:
        for bits in range(32):
            sign = tuple((bits >> i) & 1 for i in range(5))
            if sum(sign) % 2:
                continue
            m = _np_element_matrix(sign, perm)
            if np.array_equal(sigma @ m, m @ sigma):
                out.append(DP4Element(sign, perm))
    return out


def test_ambient_group_matches_matrix_commutation():
    for form in REAL_FORMS.values():
        assert ambient_group(form) == _reference_ambient_group(form), form.label


def test_matrix_is_a_homomorphism():
    rng = random.Random(9)
    elements = _a_elements()
    perms = [(0, 1, 2, 3, 4), (0, 2, 1, 4, 3), (1, 0, 2, 4, 3), (2, 0, 1, 3, 4)]
    pool = [DP4Element(rng.choice(elements).sign, rng.choice(perms)) for _ in range(12)]
    for form in REAL_FORMS.values():
        sigma = _np_element_matrix(form.flips, form.pair_perm)
        assert np.array_equal(dp4_matrix(IDENTITY, form, with_sigma=True), sigma)
        for g in pool[:6]:
            mg = np.array(dp4_matrix(g, form))
            assert np.array_equal(mg, _np_element_matrix(g.sign, g.perm))
            assert np.array_equal(dp4_matrix(g, form, with_sigma=True), sigma @ mg)
            for h in pool[6:]:
                mh = np.array(dp4_matrix(h, form))
                assert np.array_equal(dp4_matrix(g * h, form), mg @ mh)
                assert np.array_equal(dp4_matrix(g * h, form, with_sigma=True), sigma @ mg @ mh)


def test_code_group_law_matches_the_matrix_homomorphism():
    """The int-code product and inverse behind DP4Element agree with the 6x6
    matrices, which are built from (sign, perm) without the group law, on
    5000 seeded pairs from the split ambient."""
    split = get_form("split")
    elements = ambient_group(split)
    rng = random.Random(30)
    eye = np.eye(6, dtype=np.int64)
    for _ in range(5000):
        g, h = rng.choice(elements), rng.choice(elements)
        mg, mh = np.array(dp4_matrix(g, split)), np.array(dp4_matrix(h, split))
        assert np.array_equal(dp4_matrix(g * h, split), mg @ mh)
        assert np.array_equal(np.array(dp4_matrix(g.inverse(), split)) @ mg, eye)


def test_matrix_fixes_anticanonical_direction():
    form = get_form("split")
    for g in _a_elements():
        m = np.array(dp4_matrix(g, form))
        assert list(m[:, 0]) == [1, 0, 0, 0, 0, 0]


def test_identity_matrix_and_diagonal_display():
    form = get_form("split")
    assert np.array_equal(dp4_matrix(IDENTITY, form), np.eye(6, dtype=np.int64))
    a = DP4Element((1, 0, 1, 1, 1))
    m = np.array(dp4_matrix(a, form))
    assert list(m[0]) == [1, 1, 0, 1, 1, 1]
    assert [m[i, i] for i in range(1, 6)] == [-1, 1, -1, -1, -1]


def test_published_geometric_matrices():
    g = DP4Element((1, 0, 1, 1, 1), (0, 2, 1, 4, 3))
    assert np.array_equal(dp4_matrix_geometric(g), G_PAPER)
    sigma_geo = dp4_matrix_geometric(IDENTITY, with_sigma=True)
    assert np.array_equal(sigma_geo, SIGMA_PAPER)


def test_geometric_matrices_conjugate_exactly():
    form = get_form("q31_02")
    for el in ambient_group(form):
        for with_sigma in (False, True):
            out = dp4_matrix_geometric(el, with_sigma)
            assert all(type(c) is int for row in out for c in row)
            t = np.array(_Q31_BASIS)
            assert np.array_equal(np.array(out) @ t, t @ np.array(dp4_matrix(el, form, with_sigma)))


def test_q22_sigma_action_display():
    form = get_form("q22_02")
    a = DP4Element((0, 0, 0, 1, 1))
    m = np.array(dp4_matrix(a, form, with_sigma=True))
    # e_i -> (1 - a_i) e_0 + (-1)^(a_i + 1) e_i for i = 4, 5
    assert m[0, 4] == 0 and m[4, 4] == 1
    assert m[0, 5] == 0 and m[5, 5] == 1
    b = IDENTITY
    mb = np.array(dp4_matrix(b, form, with_sigma=True))
    assert mb[0, 4] == 1 and mb[4, 4] == -1


def test_invariant_rank_examples():
    q31 = get_form("q31_02")
    g = DP4Element((1, 0, 1, 1, 1), (0, 2, 1, 4, 3))
    group = {IDENTITY, g, g * g, g * g * g}
    assert dp4_invariant_rank(group, q31) == 1
    p231 = get_form("p2_31")
    go1 = {sign_vector(v) for v in [(0, 0, 0, 0, 0), (0, 1, 1, 0, 0), (1, 0, 1, 1, 1), (1, 1, 0, 1, 1)]}
    assert dp4_invariant_rank(go1, p231) == 1
    assert dp4_invariant_rank({IDENTITY}, get_form("split")) == 6
    with pytest.raises(NotAGroup):
        dp4_invariant_rank({IDENTITY, g}, q31)


def test_invariant_rank_refuses_a_group_that_sigma_does_not_normalize():
    """{1, sigma} x H is a group only when sigma normalizes H: on q31_02,
    sigma swaps sign bits 4 and 5, so the order-2 group of sign (0,0,0,0,1)
    is refused (its character average was 5/2), and the group that adds the
    swapped sign gets the dimension its group fixes."""
    q31 = get_form("q31_02")
    assert all((form.sigma * form.sigma).is_identity() for form in REAL_FORMS.values())
    one = DP4Element.from_json({"sign": [0, 0, 0, 0, 1], "perm": [1, 2, 3, 4, 5]})
    with pytest.raises(NotAGroup, match="sigma does not normalize"):
        dp4_invariant_rank({IDENTITY, one}, q31)
    other = q31.sigma * one * q31.sigma
    assert other != one
    group = {IDENTITY, one, other, one * other}
    # the dimension fixed by the group that sigma and the subgroup generate
    moved = [np.array(dp4_matrix(g, q31, with_sigma)) - np.eye(6) for g in group for with_sigma in (False, True)]
    assert dp4_invariant_rank(group, q31) == 6 - np.linalg.matrix_rank(np.vstack(moved)) == 2


def test_split_enumeration_is_refused_before_any_subgroup_search(monkeypatch):
    from delpezzo import dp4

    def search(elements):
        raise AssertionError(f"searched the subgroups of {len(elements)} elements")

    monkeypatch.setattr(dp4, "all_subgroups", search)
    split = get_form("split")
    with pytest.raises(UnsupportedForm):
        enumerate_strongly_minimal(split)
    with pytest.raises(UnsupportedForm):
        enumerate_strongly_minimal(split, ambient=ambient_group(split))


def test_only_the_split_ambient_exceeds_the_enumeration_limit():
    sizes = {label: len(ambient_group(form)) for label, form in REAL_FORMS.items()}
    assert sizes == {"split": 1920, "q31_02": 16, "p2_12": 16, "p2_31": 96, "q22_02": 192}
    assert [label for label, n in sizes.items() if n > MAX_ENUMERATED_AMBIENT] == ["split"]


def test_delta_criterion_examples():
    p231 = get_form("p2_31")
    q22 = get_form("q22_02")
    go2 = {sign_vector(v) for v in [(0, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 1, 1, 1, 1), (1, 0, 1, 1, 1)]}
    assert delta_criterion(go2, p231)
    pair = {sign_vector((0, 0, 0, 0, 0)), sign_vector((1, 1, 0, 0, 0))}
    assert not delta_criterion(pair, q22)
    assert not delta_criterion({IDENTITY}, p231)
    with pytest.raises(UnsupportedForm):
        delta_criterion({IDENTITY}, get_form("split"))


def test_star_condition_examples():
    assert star_condition({(0, 0, 0, 0, 0), (0, 1, 1, 1, 1)})
    assert star_condition({(0, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (1, 0, 1, 0, 0)})
    assert not star_condition({(0, 0, 0, 0, 0), (1, 0, 1, 1, 1)})


def _character_average(sub, form):
    """The mean trace over {1, sigma} x sub, as a Fraction."""
    traces = [np.trace(dp4_matrix(g, form, with_sigma)) for g in sub for with_sigma in (False, True)]
    return Fraction(int(sum(traces)), len(traces))


def test_delta_equals_rank_exhaustively():
    """Spec property: on every subgroup H of A that sigma normalizes, for
    both applicable forms, the counting shortcut agrees with the character
    average over {1, sigma} x H and the rank is that average; where sigma
    does not normalize H (40 subgroups on p2_31, none on q22_02), both
    refuse H."""
    subgroups = all_subgroups(_a_elements())
    for form_label, refused in (("p2_31", 40), ("q22_02", 0)):
        form = get_form(form_label)
        outside = 0
        for sub in subgroups:
            if {form.sigma * g * form.sigma for g in sub} == sub:
                average = _character_average(sub, form)
                assert delta_criterion(sub, form) == (average == 1)
                assert dp4_invariant_rank(sub, form) == average
            else:
                outside += 1
                for shortcut in (delta_criterion, dp4_invariant_rank):
                    with pytest.raises(NotAGroup, match="sigma does not normalize"):
                        shortcut(sub, form)
        assert outside == refused, form_label


def test_star_implies_nonminimal_on_sphere():
    q31 = get_form("q31_02")
    a_o = [g for g in ambient_group(q31) if g.in_a()]
    for sub in all_subgroups(a_o):
        if star_condition(sub):
            assert dp4_invariant_rank(sub, q31) != 1


def test_enumerate_strongly_minimal_q31():
    q31 = get_form("q31_02")
    reports = enumerate_strongly_minimal(q31)
    labels = {r.label for r in reports}
    # the published list, plus Z/4xZ/2 which is forced by rank monotonicity
    # from the published Z/4 (see the decisions ledger)
    assert labels == {"Z/2", "(Z/2)^2", "(Z/2)^3", "Z/4", "D_4", "Z/4xZ/2", "(Z/2)^3:Z/2"}
    z2 = [r for r in reports if r.label == "Z/2"]
    assert len(z2) == 1
    gens = {g.sign for g in z2[0].elements if not g.is_identity()}
    assert gens <= {(1, 0, 1, 1, 1), (1, 1, 0, 1, 1)}
    z4 = [r for r in reports if r.label == "Z/4"]
    assert len(z4) == 1
    assert any(g.order() == 4 and g.perm == (0, 2, 1, 4, 3) for g in z4[0].elements)


def test_enumerate_strongly_minimal_p212_empty():
    assert enumerate_strongly_minimal(get_form("p2_12")) == []


def test_p231_order4_subgroups_in_a():
    p231 = get_form("p2_31")
    a_o = [g for g in ambient_group(p231) if g.in_a()]
    assert len(a_o) == 8
    reports = [r for r in enumerate_strongly_minimal(p231, ambient=a_o) if r.order == 4]
    got = {frozenset(g.sign for g in r.elements) for r in reports}
    expected = {
        frozenset([(0, 0, 0, 0, 0), (0, 1, 1, 0, 0), (1, 0, 1, 1, 1), (1, 1, 0, 1, 1)]),
        frozenset([(0, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 1, 1, 1, 1), (1, 0, 1, 1, 1)]),
        frozenset([(0, 0, 0, 0, 0), (1, 0, 1, 0, 0), (0, 1, 1, 1, 1), (1, 1, 0, 1, 1)]),
    }
    assert got == expected


def test_isomorphism_labels():
    assert isomorphism_label({IDENTITY}) == "1"
    g = DP4Element((1, 0, 1, 1, 1), (0, 2, 1, 4, 3))
    assert isomorphism_label({IDENTITY, g, g * g, g * g * g}) == "Z/4"


def _pairs(*angles_as_vectors):
    return PencilSpec(angles_as_vectors)


def test_wall_characteristic_values():
    assert wall_characteristic(_pairs((1, 0), (1, 3), (-4, 3), (-4, -3), (1, -3))) == (1, 1, 1, 1, 1)
    assert wall_characteristic(_pairs((1, 0), (6, 1), (-1, 2), (-3, 4), (0, -1))) == (2, 2, 1)
    assert wall_characteristic(_pairs((1, 0), (6, 1), (5, 2))) == (3,)
    assert wall_characteristic(_pairs((1, 0), (-1, 2), (-1, -2))) == (1, 1, 1)
    assert wall_characteristic(_pairs((1, 0))) == (1,)


def test_wall_characteristic_properties():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.choice((1, 3, 5))
        vecs = []
        while len(vecs) < n:
            v = (rng.randint(-9, 9), rng.randint(-9, 9))
            if v == (0, 0):
                continue
            vecs.append(v)
        try:
            xi = wall_characteristic(_pairs(*vecs))
        except DegeneratePencil:
            continue
        assert sum(xi) == n
        assert len(xi) % 2 == 1


def test_wall_characteristic_degenerate():
    with pytest.raises(DegeneratePencil):
        wall_characteristic(_pairs((1, 0), (-2, 0), (0, 1)))
    with pytest.raises(DegeneratePencil):
        wall_characteristic(_pairs((1, 1), (2, 2), (1, 0)))
    with pytest.raises(ValueError, match="nonzero"):
        PencilSpec(((0, 0),))
    # a pencil point is a direction, given by an integer pair
    for bad in ((1.5, 0), (Fraction(1, 2), 1), ("1", 0), (True, 0), (1, 0, 0), (1,), 5, None):
        with pytest.raises(ValueError, match="integer pairs"):
            PencilSpec(((1, 0), bad))


def _reference_close(gens):
    """Closure taking every given element as a generator: the oracle."""
    span = {IDENTITY}
    queue = [IDENTITY]
    while queue:
        cur = queue.pop()
        for g in gens:
            nxt = g * cur
            if nxt not in span:
                span.add(nxt)
                queue.append(nxt)
    return frozenset(span)


def _reference_all_subgroups(elements):
    eset = frozenset(elements)
    trivial = frozenset([IDENTITY])
    found = {trivial}
    frontier = [trivial]
    while frontier:
        h = frontier.pop()
        for g in eset:
            if g in h:
                continue
            bigger = _reference_close(frozenset(h | {g}))
            if bigger <= eset and bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted((g.sign, g.perm) for g in s)))


def test_all_subgroups_match_reference():
    p231 = get_form("p2_31")
    groups = [
        ambient_group(get_form("q31_02")),
        ambient_group(get_form("p2_12")),
        _a_elements(),
        [g for g in ambient_group(p231) if g.in_a()],
    ]
    for elements in groups:
        assert all_subgroups(elements) == _reference_all_subgroups(elements)


def _bitset(elements) -> int:
    return sum(1 << _code(x) for x in elements)


def test_extend_matches_reference_closure():
    """_extend(h, gens + (g,)) == <h, g> for seeded pairs from the split
    ambient, on int codes and bitsets of them.  Most pairs stay inside
    A x| Sym(S) for a random set S of at most three pairs, so the reference
    closure of h | {g} stays cheap; the last ones take a cyclic h and any g
    of the 1920 elements."""
    split = ambient_group(get_form("split"))
    assert len(split) == 1920
    rng = random.Random(17)
    sizes = set()
    for case in range(200):
        if case < 190:
            moved = set(rng.sample(range(5), rng.randint(1, 3)))
            pool = [x for x in split if all(x.perm[i] == i for i in range(5) if i not in moved)]
            gens = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
        else:
            pool = split
            gens = (rng.choice(split),)
        h = _reference_close(gens)
        g = rng.choice(pool)
        got = frozenset(map(_element, _members(_extend(_bitset(h), tuple(map(_code, gens + (g,)))))))
        assert got == _reference_close(h | {g})
        sizes.add(len(got))
    assert len(sizes) >= 10 and max(sizes) >= 960
