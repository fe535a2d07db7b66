import random

import numpy as np

from delpezzo.confgraphs import hexagon_sigma_isometry, vertex_permutation_isometry
from delpezzo.minimality import (
    ActionContext,
    find_contractible_set,
    invariant_rank,
    is_strongly_minimal,
    lefschetz_euler,
)
from delpezzo.picard import PicardLattice, enumerate_roots
from delpezzo.weyl import (
    Isometry,
    close_group,
    identity,
    minus_on_kperp,
    reflection,
)
from test_weyl import _reference_close_group, trace_average_rank

# change of basis for the Q_{3,1}(0,2) model: columns are the classes
# F, Fbar, E_p, E_pbar, E_q, E_qbar written in the standard basis e_0..e_5
_GEO_TO_STD = np.array(
    [
        [1, 1, 0, 0, 0, 1],
        [-1, 0, 0, 0, 0, -1],
        [0, -1, 0, 0, 0, -1],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
    ],
    dtype=np.int64,
)

# the published order-4 action and real structure on that geometric basis
_G_GEO = np.array(
    [
        [2, 1, 1, 1, 1, 1],
        [1, 2, 1, 1, 1, 1],
        [-1, -1, -1, -1, -1, 0],
        [-1, -1, -1, -1, 0, -1],
        [-1, -1, 0, -1, -1, -1],
        [-1, -1, -1, 0, -1, -1],
    ],
    dtype=np.int64,
)
_SIGMA_GEO = np.array(
    [
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0],
    ],
    dtype=np.int64,
)


def _std(mat_geo):
    s = _GEO_TO_STD
    s_inv = np.rint(np.linalg.inv(s.astype(float))).astype(np.int64)
    assert np.array_equal(s @ s_inv, np.eye(6, dtype=np.int64))
    return s @ mat_geo @ s_inv


def test_trivial_group_rank():
    lat = PicardLattice(4)
    group = close_group(lat, [], cap=10)
    ctx = ActionContext(lat, group)
    assert invariant_rank(ctx) == 6 == trace_average_rank(_reference_close_group(lat, [], 10))
    assert not is_strongly_minimal(ctx)


def test_geiser_rank_one():
    lat = PicardLattice(2)
    geiser = minus_on_kperp(lat)
    group = close_group(lat, [geiser], cap=10)
    ctx = ActionContext(lat, group)
    assert invariant_rank(ctx) == 1 == trace_average_rank(_reference_close_group(lat, [geiser], 10))
    assert is_strongly_minimal(ctx)


def test_bertini_rank_one():
    lat = PicardLattice(1)
    group = close_group(lat, [minus_on_kperp(lat)], cap=10)
    ctx = ActionContext(lat, group)
    assert invariant_rank(ctx) == 1
    assert is_strongly_minimal(ctx)


def test_published_order4_action_rank_one():
    """The explicit 6x6 matrices of the order-4 sphere example give rank 1."""
    lat = PicardLattice(4)
    g = Isometry(lat, _std(_G_GEO))
    sigma = Isometry(lat, _std(_SIGMA_GEO))
    assert (sigma * sigma).is_identity()
    group = close_group(lat, [g, sigma], cap=100)
    assert group.order == 8
    ctx = ActionContext(lat, group, sigma=sigma)
    assert invariant_rank(ctx) == 1 == trace_average_rank(_reference_close_group(lat, [g, sigma], 100))


def test_oracle_equivalence_randomized():
    rng = random.Random(41)
    for degree in (6, 5, 4, 3):
        lat = PicardLattice(degree)
        roots = enumerate_roots(lat)
        for _ in range(8):
            gens = [reflection(lat, rng.choice(roots)) for _ in range(2)]
            group = close_group(lat, gens, cap=5000)
            ctx = ActionContext(lat, group)
            assert invariant_rank(ctx) == trace_average_rank(_reference_close_group(lat, gens, 5000))


def test_rank_monotone_under_enlargement():
    rng = random.Random(43)
    lat = PicardLattice(4)
    roots = enumerate_roots(lat)
    for _ in range(6):
        r1, r2 = rng.choice(roots), rng.choice(roots)
        small = close_group(lat, [reflection(lat, r1)], cap=5000)
        big = close_group(lat, [reflection(lat, r1), reflection(lat, r2)], cap=5000)
        rank_small = invariant_rank(ActionContext(lat, small))
        rank_big = invariant_rank(ActionContext(lat, big))
        assert rank_big <= rank_small


def test_contractible_sets_on_hexagon():
    lat = PicardLattice(6)
    # trivial group: any single line contracts
    ctx = ActionContext(lat, close_group(lat, [], cap=10))
    found = find_contractible_set(ctx)
    assert found is not None and len(found) == 1
    # full rotation with split structure: minimal
    r = vertex_permutation_isometry(lat, (1, 2, 3, 4, 5, 0))
    ctx_r = ActionContext(lat, close_group(lat, [r], cap=100))
    assert find_contractible_set(ctx_r) is None
    # the antipodal rotation leaves a disjoint invariant pair
    r3 = vertex_permutation_isometry(lat, (3, 4, 5, 0, 1, 2))
    ctx_r3 = ActionContext(lat, close_group(lat, [r3], cap=100))
    found = find_contractible_set(ctx_r3)
    assert found is not None and len(found) == 2
    assert lat.intersection(found[0], found[1]) == 0
    img = {r3.apply(c).coords for c in found}
    assert img == {c.coords for c in found}


def test_contractible_set_respects_sigma():
    lat = PicardLattice(6)
    sigma = hexagon_sigma_isometry(lat, "fig_a")
    r2 = vertex_permutation_isometry(lat, (2, 3, 4, 5, 0, 1))
    group = close_group(lat, [r2, sigma], cap=100)
    ctx = ActionContext(lat, group, sigma=sigma)
    # <r^2> with the torus structure is minimal
    assert find_contractible_set(ctx) is None


def test_lefschetz_euler():
    assert lefschetz_euler(minus_on_kperp(PicardLattice(2))) == -4
    assert lefschetz_euler(minus_on_kperp(PicardLattice(1))) == -5
    for degree in range(1, 8):
        lat = PicardLattice(degree)
        # Euler characteristic of the complex surface: (10 - d) + 2
        assert lefschetz_euler(identity(lat)) == 12 - degree
