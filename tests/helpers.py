"""Shared fixtures: the shipped example registry, a seeded random
wall-space generator for property checks and a forged complex."""

from itertools import combinations

from cubulate import WallSpace
from cubulate.families import gen_crossing, gen_nested, gen_tree, triangle_lattice


def shipped_examples():
    """(name, space, base_point) at test scale, covering all families."""
    out = []
    for n in range(1, 7):
        out.append((f"crossing{n}", gen_crossing(n), 0))
    for n in (1, 3, 5, 8):
        out.append((f"nested{n}", gen_nested(n), 0))
    for a, d in ((2, 1), (2, 2), (2, 3), (3, 2)):
        out.append((f"tree{a}x{d}", gen_tree(a, d), 0))
    for r in range(1, 5):
        tl = triangle_lattice(r)
        out.append((f"triangle{r}", tl.space, tl.base_point))
    return out


def small_examples(max_walls=15):
    """The shipped examples whose wall count permits 2^M brute force."""
    return [
        (name, sp, base)
        for name, sp, base in shipped_examples()
        if sp.wall_count <= max_walls
    ]


def random_wall_space(rng, point_count=8, wall_count=6):
    """A valid random space: proper sides, pairwise distinct partitions."""
    everything = frozenset(range(point_count))
    walls = []
    seen = set()
    while len(walls) < wall_count:
        listed = [p for p in range(point_count) if rng.random() < 0.5]
        if not listed or len(listed) == point_count:
            continue
        partition = frozenset((frozenset(listed), everything - frozenset(listed)))
        if partition in seen:
            continue
        seen.add(partition)
        walls.append(listed)
    return WallSpace(point_count, walls)


def forge_nested3_cubes(data):
    """Register every square and the 3-cube of a nested(3) complex dict
    at its vertex 000, though no two of its walls cross."""
    vi = data["vertices"].index("000")
    data["cubes"] = {
        "2": [[vi, list(pair)] for pair in combinations(range(3), 2)],
        "3": [[vi, [0, 1, 2]]],
    }


def drop_edge(data, index=0):
    """A copy of a complex dict without its index-th edge."""
    edges = data["edges"]
    return {**data, "edges": edges[:index] + edges[index + 1 :]}
