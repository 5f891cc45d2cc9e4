import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubulate import (
    DuplicateWall,
    EmptyHalfSpace,
    EmptyWallFamily,
    InputError,
    PointOutOfRange,
    SameWall,
    WallSpace,
)
from cubulate.families import gen_crossing, gen_nested
from cubulate.wallspace import _max_clique_size

import oracles
from helpers import random_wall_space, shipped_examples


def nested4():
    # points 0..3, walls {x >= 1}, {x >= 2}, {x >= 3}
    return gen_nested(3)


def test_validate_synthesizes_complements():
    sp = WallSpace(3, [[1, 2], [2]])
    assert sp.point_count == 3
    assert sp.wall_count == 2
    assert sp.points_in(0) == (1, 2)
    assert sp.points_in(1) == (0,)
    assert sp.points_in(2) == (2,)
    assert sp.points_in(3) == (0, 1)


def test_empty_complement_rejected():
    with pytest.raises(EmptyHalfSpace):
        WallSpace(2, [[0, 1]])


def test_empty_listed_side_rejected():
    with pytest.raises(EmptyHalfSpace):
        WallSpace(2, [[]])


def test_duplicate_partition_rejected():
    # both walls induce the partition {{0,1},{2,3}}
    with pytest.raises(DuplicateWall):
        WallSpace(4, [[0, 1], [2, 3]])
    with pytest.raises(DuplicateWall):
        WallSpace(4, [[0, 1], [0, 1]])


def test_point_out_of_range_rejected():
    with pytest.raises(PointOutOfRange):
        WallSpace(3, [[0, 5]])
    with pytest.raises(PointOutOfRange):
        WallSpace(3, [[-1, 0]])
    with pytest.raises(PointOutOfRange):
        WallSpace(3, [[0, True]])


def test_empty_wall_family_rejected():
    with pytest.raises(EmptyWallFamily):
        WallSpace(2, [])


def test_bad_point_count_rejected():
    from cubulate import InputError

    with pytest.raises(InputError):
        WallSpace(0, [[0]])
    with pytest.raises(InputError):
        WallSpace(-2, [[0]])


def test_complement_is_involution():
    sp = nested4()
    for a in range(2 * sp.wall_count):
        assert sp.complement(sp.complement(a)) == a
        assert sp.mask(a) & sp.mask(sp.complement(a)) == 0


def test_separating_walls_and_distance():
    sp = nested4()
    sigs = sp._signatures
    assert [w for w in sp.walls() if (sigs[0] ^ sigs[3]) >> w & 1] == [0, 1, 2]
    assert sp.wall_distance(0, 3) == 3
    cube = gen_crossing(3)
    assert cube.wall_distance(0, 7) == 3
    for p in cube.points():
        assert cube.wall_distance(p, p) == 0


def test_pseudo_metric_properties():
    rng = random.Random(20260815)
    spaces = [nested4(), gen_crossing(3)]
    spaces += [random_wall_space(rng) for _ in range(3)]
    for sp in spaces:
        raw = sp.to_dict()["walls"]
        for p in sp.points():
            assert sp.wall_distance(p, p) == 0
            for q in sp.points():
                d = sp.wall_distance(p, q)
                assert d == sp.wall_distance(q, p)
                assert d == oracles.separating_wall_count(raw, p, q)
                for r in sp.points():
                    assert d <= sp.wall_distance(p, r) + sp.wall_distance(r, q)


def test_crosses():
    cube = gen_crossing(3)
    for i in range(3):
        for j in range(i + 1, 3):
            assert cube.crosses(i, j)
            assert cube.crosses(j, i)
    sp = nested4()
    for i in range(3):
        for j in range(3):
            if i != j:
                assert not sp.crosses(i, j)
    with pytest.raises(SameWall):
        sp.crosses(1, 1)


def test_crosses_matches_oracle():
    rng = random.Random(77)
    for _ in range(5):
        sp = random_wall_space(rng, point_count=7, wall_count=5)
        raw = sp.to_dict()
        for i in range(sp.wall_count):
            for j in range(i + 1, sp.wall_count):
                assert sp.crosses(i, j) == oracles.walls_cross(
                    raw["points"], raw["walls"], i, j
                )


def test_intersection_number_families():
    for n in range(1, 6):
        assert gen_crossing(n).intersection_number() == n
    assert nested4().intersection_number() == 1


def test_intersection_number_matches_oracle():
    rng = random.Random(4242)
    for _ in range(8):
        sp = random_wall_space(rng, point_count=9, wall_count=7)
        raw = sp.to_dict()
        assert sp.intersection_number() == oracles.max_crossing_family(
            raw["points"], raw["walls"]
        )
    for name, sp, _ in shipped_examples():
        if sp.wall_count <= 12:
            raw = sp.to_dict()
            assert sp.intersection_number() == oracles.max_crossing_family(
                raw["points"], raw["walls"]
            ), name


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st.integers(0, 11).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))
    )
)
def test_max_clique_size_matches_oracle(graph):
    """The branch and bound on neighbour masks against brute force; bit
    i of the drawn int keeps the i-th vertex pair as an edge."""
    n, chosen = graph
    pairs = combinations(range(n), 2)
    edges = {pair for i, pair in enumerate(pairs) if chosen >> i & 1}
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    assert _max_clique_size(adj) == oracles.max_clique(n, edges)


def test_to_dict_roundtrip():
    sp = nested4()
    again = WallSpace.from_dict(sp.to_dict())
    assert again.to_dict() == sp.to_dict()


@pytest.mark.parametrize(
    "data",
    [
        "not a dict",
        {},
        {"points": 3},
        {"walls": [[0]]},
        {"points": "3", "walls": [[0]]},
        {"points": 3, "walls": "nope"},
        {"points": 3, "walls": [0]},
    ],
)
def test_from_dict_rejects_malformed(data):
    from cubulate import InputError

    with pytest.raises(InputError):
        WallSpace.from_dict(data)


def test_oversized_point_count_rejected_before_allocation():
    from cubulate.wallspace import MAX_POINTS

    # 1 << 10**18 cannot be allocated: reaching it would fail loudly
    for n in (10**18, MAX_POINTS + 1):
        with pytest.raises(InputError, match="exceeds the supported maximum"):
            WallSpace(n, [[0]])
        with pytest.raises(InputError, match="exceeds the supported maximum"):
            WallSpace.from_dict({"points": n, "walls": [[0]]})
    # the cap itself is accepted: a 2^20-bit mask is 128 KiB
    assert WallSpace(MAX_POINTS, [[0]]).point_count == MAX_POINTS
