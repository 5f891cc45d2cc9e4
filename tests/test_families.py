import pytest

from cubulate import WallSpace, build_complex, check_flag, dimension
from cubulate.families import (
    FAMILIES,
    SizeOutOfRange,
    gen_crossing,
    gen_nested,
    gen_tree,
    gen_triangle_lattice,
    triangle_lattice,
)

import oracles


def test_crossing_small():
    sp = gen_crossing(1)
    assert sp.point_count == 2
    assert sp.wall_count == 1
    X = build_complex(sp)
    assert X.f_vector() == (2, 1)
    for n in (2, 3, 4):
        assert gen_crossing(n).intersection_number() == n


def test_crossing_range():
    for bad in (0, 16, -1, "3"):
        with pytest.raises(SizeOutOfRange):
            gen_crossing(bad)


def test_nested_small():
    X = build_complex(gen_nested(1))
    assert X.f_vector() == (2, 1)
    sp = gen_nested(3)
    assert sp.wall_distance(0, 3) == 3
    X = build_complex(sp)
    assert X.f_vector() == (4, 3)
    assert build_complex(gen_nested(5)).cubes == {}
    with pytest.raises(SizeOutOfRange):
        gen_nested(0)


@pytest.mark.parametrize("n", [4096, 10**9])
def test_nested_bound_checked_before_building(monkeypatch, n):
    """4095 walls give 4096 points, the tree family's bound; an oversized
    n is refused before any of its n wall lists is built."""
    import cubulate.families as families

    def no_range(*args):
        raise AssertionError("a wall list was built for an oversized n")

    monkeypatch.setattr(families, "range", no_range, raising=False)
    with pytest.raises(SizeOutOfRange, match=f"must be in 1..4095, got {n}"):
        gen_nested(n)


def test_tree_small():
    sp = gen_tree(2, 1)
    assert sp.point_count == 2
    assert sp.wall_count == 1

    # (2,2): level-1 blocks {0,1} and {2,3} give the same partition once
    sp = gen_tree(2, 2)
    assert sp.point_count == 4
    assert sp.wall_count == 5
    raw = sp.to_dict()
    enc = oracles.admissible_encodings(raw["points"], raw["walls"])
    X = build_complex(sp)
    assert (len(X.codes), len(X.edges)) == (6, 5)
    assert len(enc) == 6
    assert X.cubes == {}

    sp = gen_tree(3, 2)
    assert sp.intersection_number() == 1
    assert build_complex(sp).cubes == {}


def test_tree_counts_match_oracle():
    for a, d in ((2, 2), (2, 3), (3, 2)):
        sp = gen_tree(a, d)
        raw = sp.to_dict()
        enc = oracles.admissible_encodings(raw["points"], raw["walls"])
        X = build_complex(sp)
        assert len(X.codes) == len(enc)
        assert len(X.edges) == len(oracles.edges_among(enc))


def test_tree_range():
    for a, d in ((1, 2), (2, 0), (0, 1), (2, 13)):
        with pytest.raises(SizeOutOfRange):
            gen_tree(a, d)


def _tree_walls_by_partition(arity, depth):
    """The subtree walls with every repeated partition skipped, as sets."""
    leaves, walls, seen = arity**depth, [], set()
    for level in range(1, depth + 1):
        block = arity ** (depth - level)
        for node in range(arity**level):
            below = frozenset(range(node * block, (node + 1) * block))
            partition = frozenset((below, frozenset(range(leaves)) - below))
            if partition not in seen:
                seen.add(partition)
                walls.append(sorted(below))
    return walls


def test_tree_skips_exactly_the_repeated_partitions():
    trees = [(a, d) for a in range(2, 129) for d in range(1, 8) if a**d <= 128]
    assert len(trees) == 146
    for a, d in trees:
        expected = WallSpace(a**d, _tree_walls_by_partition(a, d)).to_dict()
        assert gen_tree(a, d).to_dict() == expected, (a, d)


@pytest.mark.parametrize(
    "arity, depth, count",
    [
        (2, 13, "8192"),
        (1000, 1000, str(1000**1000)),
        (10, 4299, str(10**4299)),  # 4300 digits, the most Python prints
        (10, 4300, "10**4300"),
        (2, 14286, "2**14286"),
        (1000, 100000, "1000**100000"),
        (100000, 1000000, "100000**1000000"),
        # a parameter Python will not print is named by its bit length
        (2, 10**4400, "2**<int of 14617 bits>"),
        (10**4400, 2, "<int of 14617 bits>**2"),
    ],
    ids=["8192", "3001_digits", "4300_digits", "4301_digits", "depth_14286", "1000^100000",
         "100000^1000000", "depth_4401_digits", "arity_4401_digits"],
)
def test_tree_names_an_unprintable_leaf_count_by_its_power(arity, depth, count):
    with pytest.raises(SizeOutOfRange) as info:
        gen_tree(arity, depth)
    assert str(info.value) == f"tree has {count} leaves, the supported maximum is 4096"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gen_tree(-(10**4400), 2), "arity must be >= 2, got <negative int of 14617 bits>"),
        (lambda: gen_crossing(10**4400), "crossing size n must be in 1..15, got <int of 14617 bits>"),
    ],
    ids=["negative_arity", "crossing"],
)
def test_a_parameter_of_more_than_4300_digits_is_named_by_its_size(call, message):
    # Python refuses to print an int of more than 4300 digits, so the
    # refusal names its bit length instead
    with pytest.raises(SizeOutOfRange) as info:
        call()
    assert str(info.value) == message


def test_triangle_lattice_radius_one():
    tl = triangle_lattice(1)
    assert tl.space.point_count == 13
    assert tl.space.wall_count == 6
    assert tl.space.intersection_number() == 3
    assert tl.cells[tl.base_point] == (0, 0, 0)
    X = build_complex(tl.space, base_point=tl.base_point)
    assert X.f_vector() == (20, 36, 21, 4)
    assert dimension(X) == 3
    assert check_flag(X)


def test_triangle_lattice_walls_are_separating_lines():
    for r in (1, 2, 3):
        tl = triangle_lattice(r)
        # every wall is one of the three line families, and both of its
        # sides meet the ball (validate would have rejected otherwise)
        assert len(tl.wall_lines) == tl.space.wall_count
        for family, t in tl.wall_lines:
            assert family in (0, 1, 2)
        # walls in a family never cross each other
        by_family = {}
        for w, (family, _) in enumerate(tl.wall_lines):
            by_family.setdefault(family, []).append(w)
        for members in by_family.values():
            for i, w1 in enumerate(members):
                for w2 in members[i + 1 :]:
                    assert not tl.space.crosses(w1, w2)


def test_triangle_lattice_labels():
    for r in (1, 2):
        tl = triangle_lattice(r)
        X = build_complex(tl.space, base_point=tl.base_point)
        labels = [tl.vertex_label(c) for c in X.codes]
        assert len(set(labels)) == len(labels)
        assert tl.vertex_label(X.codes[X.base]) == (0, 0, 0)
        for u, v, _ in X.edges:
            diff = [abs(a - b) for a, b in zip(labels[u], labels[v])]
            assert sorted(diff) == [0, 0, 1]


def test_triangle_lattice_range():
    for bad in (0, 7):
        with pytest.raises(SizeOutOfRange):
            triangle_lattice(bad)


def test_generated_spaces_validate():
    for sp in (
        gen_crossing(4),
        gen_nested(6),
        gen_tree(3, 2),
        gen_triangle_lattice(2),
    ):
        raw = sp.to_dict()
        WallSpace(raw["points"], raw["walls"])


def test_family_registry():
    assert sorted(FAMILIES) == ["crossing", "nested", "tree", "triangle-lattice"]
    sp = FAMILIES["tree"]([2, 2])
    assert sp.wall_count == 5
    with pytest.raises(SizeOutOfRange):
        FAMILIES["crossing"]([1, 2])
    with pytest.raises(SizeOutOfRange):
        FAMILIES["tree"]([2])
