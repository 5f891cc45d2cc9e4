"""Shared fixtures: the shipped example registry, a seeded random
wall-space generator for property checks, forged complexes, the
decoding of a cube registry and of its corners, the verdict of a chain
of flag checks and the one the oracles expect, and an independent count
of a loop's wall flips, and a space whose cliques are deeper than the
recursion limit."""

import random
from collections import Counter
from itertools import combinations

from cubulate import FlagViolation, WallSpace, encode_section, validate_generator
from cubulate.families import gen_crossing, gen_nested, gen_tree, triangle_lattice

import oracles


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


def swap_bits(p, i, j):
    bi, bj = p >> i & 1, p >> j & 1
    return p & ~(1 << i) & ~(1 << j) | bi << j | bj << i


def cube_swap(space, i, j, name):
    """The crossing(n) generator swapping coordinates i and j."""
    return validate_generator(space, [swap_bits(p, i, j) for p in space.points()], name)


def lattice_reflection(radius):
    """The triangle lattice's wall space with the reflection swapping its
    m and n axes."""
    tl = triangle_lattice(radius)
    index = {c: i for i, c in enumerate(tl.cells)}
    perm = [index[(c.orient, c.n, c.m)] for c in tl.cells]
    return tl.space, validate_generator(tl.space, perm, "t")


def forge_nested3_cubes(data):
    """Register every square and the 3-cube of a nested(3) complex dict
    at its vertex 000, though no two of its walls cross."""
    vi = data["vertices"].index("000")
    data["cubes"] = {
        "2": [[vi, list(pair)] for pair in combinations(range(3), 2)],
        "3": [[vi, [0, 1, 2]]],
    }


def deep_clique_space(wall_count=1200, point_count=64, seed=5):
    """wall_count seeded random halves of the points, each listed by its
    side holding point 0, so point 0's principal code is 0.  Two random
    halves of 64 points almost surely cross: at seed 5 all 1200 walls
    pairwise cross, more than Python's recursion limit."""
    rng = random.Random(seed)
    walls = []
    for _ in range(wall_count):
        half = set(rng.sample(range(point_count), point_count // 2))
        walls.append(sorted(half if 0 in half else set(range(point_count)) - half))
    return WallSpace(point_count, walls)


def forged_star(m):
    """A space of m pairwise crossing walls and a complex file that has
    every square at its base but no 3-cube.

    The points are 0, e_i and e_i + e_j as ints; wall w holds the points
    with coordinate w zero on its listed side, so all four quadrants of
    two walls are filled and a point's principal code is the point.  The
    file's vertices are the points, its edges join codes one bit apart
    and its squares are the C(m, 2) at vertex 0: the dual complex's star
    of the base with the cubes of 3 or more walls left out."""
    points = [0] + [1 << i for i in range(m)]
    points += [1 << i | 1 << j for i, j in combinations(range(m), 2)]
    space = WallSpace(len(points), [[p for p, x in enumerate(points) if not x >> w & 1]
                                    for w in range(m)])
    index = {x: p for p, x in enumerate(points)}
    edges = sorted(
        sorted((index[x], index[x ^ 1 << w])) + [w]
        for x in points
        for w in range(m)
        if x >> w & 1 and x ^ 1 << w in index
    )
    data = {
        "walls": m,
        "base": encode_section(0, m),
        "vertices": [encode_section(x, m) for x in points],
        "edges": edges,
        "cubes": {"2": [[0, list(pair)] for pair in combinations(range(m), 2)]},
    }
    return space, data


def cube_pairs(X, registry):
    """The (vertex index, sorted wall tuple) pair of each int key
    ``code | span << m`` of a cube registry of X, keyed by that key in
    registry order."""
    m = X.space.wall_count
    return {
        key: (
            X.index[key & (1 << m) - 1],
            tuple(w for w in range(m) if key >> m + w & 1),
        )
        for key in registry
    }


def registry_corners(X):
    """The (encoding, wall set) of every corner, read off the cube
    registry: each key gives the vertices c ^ t for t a subset of its
    span, each with the key's walls."""
    m = X.space.wall_count
    out = set()
    for registry in X.cubes.values():
        for key in registry:
            code = key & (1 << m) - 1
            walls = [w for w in range(m) if key >> m + w & 1]
            for size in range(len(walls) + 1):
                for sub in combinations(walls, size):
                    t = sum(1 << w for w in sub)
                    out.add((encode_section(code ^ t, m), frozenset(walls)))
    return out


def flag_verdict(*checks):
    """The witness text of the first check to raise FlagViolation, or
    None when they all pass."""
    try:
        for check in checks:
            check()
    except FlagViolation as exc:
        return str(exc)
    return None


def oracle_flag_verdicts(X):
    """For a complex that the certificate refuses, the witness text that
    check_flag must give, from the oracles, and whether its links fail
    the flag condition.

    The witness is the first corner that oracles.corner_violations names,
    over the cubes registered at their canonical vertices (the only
    keys the package looks up), else the first registered cube that
    oracles.cube_violations names.  The links are those of
    oracles.flag_violations over the same cubes."""
    m = X.space.wall_count
    encodings = [encode_section(c, m) for c in X.codes]
    canonical = [
        (encodings[vi], walls)
        for registry in X.cubes.values()
        for key, (vi, walls) in cube_pairs(X, registry).items()
        if not key & key >> m  # the code chooses the listed side of each wall
    ]
    walls = [list(X.space.points_in(2 * w)) for w in range(m)]
    corners = oracles.corner_violations(X.space.point_count, walls, encodings, canonical)
    if corners:
        vi, S = corners[0]
        witness = (
            f"vertex {vi}: walls {list(S)} cross and label edges at it, "
            f"but no {len(S)}-cube is registered"
        )
    else:
        cubes = [
            (k, vi, S)
            for k, registry in X.cubes.items()
            for vi, S in cube_pairs(X, registry).values()
        ]
        bad = oracles.cube_violations(X.space.point_count, walls, encodings, X.edges, cubes)
        if bad:
            k, vi, S, reason = bad
            witness = f"vertex {vi}: the {k}-cube over walls {list(S)} is not in the complex: {reason}"
        else:
            witness = None
    return witness, bool(oracles.flag_violations(set(encodings), canonical))


def drop_edge(data, index=0):
    """A copy of a complex dict without its index-th edge."""
    edges = data["edges"]
    return {**data, "edges": edges[:index] + edges[index + 1 :]}


def loop_flip_counts(X, loop):
    """{wall: number of edges of the loop flipping it}, read off the codes
    along loop.indices.  Asserts that each edge flips exactly one wall."""
    counts = Counter()
    for a, b in zip(loop.indices, loop.indices[1:]):
        diff = X.codes[a] ^ X.codes[b]
        assert diff.bit_count() == 1, (a, b)
        counts[diff.bit_length() - 1] += 1
    return counts


def assert_even_loop(X, loop):
    """The loop has even length and flips every wall an even number of
    times, counted here rather than by the package."""
    counts = loop_flip_counts(X, loop)
    assert loop.edge_length % 2 == 0, loop.indices
    assert all(c % 2 == 0 for c in counts.values()), (loop.indices, counts)
