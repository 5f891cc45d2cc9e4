"""Set-based brute-force oracles, independent of the package internals.

Everything here recomputes results from the raw (point_count, listed
sides) description with naive enumeration over frozensets.  Package
outputs are compared against these in the tests; none of the package's
bitmask or BFS machinery is used.  Two oracles keep earlier forms of
package code as reference orders: flip_test_bfs, the component BFS that
ran a Roller flip test per wall at every vertex, for the build, with
its own set-based flip test, and contract_by_rescan, the contraction
that rescanned the whole loop for spurs after every move, for the
contraction's moves.  The one exception, median_by_round_trip, reads
only a graph's vertex count and edge pairs, and has the package build
the dual of the walls it finds there.
"""

import math
from collections import deque
from itertools import combinations, product


def side_sets(point_count, walls):
    """Per wall, the pair (listed side, complement) as frozensets."""
    everything = frozenset(range(point_count))
    return [(frozenset(w), everything - frozenset(w)) for w in walls]


def admissible_encodings(point_count, walls):
    """All admissible side assignments, as '0'/'1' strings."""
    sides = side_sets(point_count, walls)
    found = set()
    for bits in product((0, 1), repeat=len(walls)):
        chosen = [sides[i][b] for i, b in enumerate(bits)]
        if all(a & b for a, b in combinations(chosen, 2)):
            found.add("".join(str(b) for b in bits))
    return found


def hamming(a, b):
    assert len(a) == len(b)
    return sum(x != y for x, y in zip(a, b))


def edges_among(encodings):
    """Unordered encoding pairs at Hamming distance 1."""
    ordered = sorted(encodings)
    return {
        (a, b)
        for i, a in enumerate(ordered)
        for b in ordered[i + 1 :]
        if hamming(a, b) == 1
    }


def graph_distances(encodings, start, dropped=()):
    """BFS distances in the Hamming-distance-1 graph on the encodings,
    without the edges whose endpoint pairs (as frozensets) are dropped."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in encodings:
                if v not in dist and hamming(u, v) == 1 and frozenset((u, v)) not in dropped:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def metric_mismatches(point_count, walls, encodings, dropped=()):
    """Every pair of points p < q, in order, whose principal encodings
    are not as many edges apart as there are walls separating p and q,
    as (p, q, wall count, edge-path distance or -1); one BFS per point
    (graph_distances) on the encodings without the dropped edges."""
    principal = [principal_encoding(walls, p) for p in range(point_count)]
    out = []
    for p in range(point_count):
        dist = graph_distances(encodings, principal[p], dropped)
        for q in range(p + 1, point_count):
            expect = separating_wall_count(walls, p, q)
            actual = dist.get(principal[q], -1)
            if actual != expect:
                out.append((p, q, expect, actual))
    return out


def cube_count(encodings, k):
    """Number of k-cubes: pairs (e, S) with e zero on the k walls of S
    and all 2^k bit combinations over S present among the encodings."""
    if not encodings:
        return 0
    m = len(next(iter(encodings)))
    total = 0
    for e in encodings:
        zeros = [i for i in range(m) if e[i] == "0"]
        for s in combinations(zeros, k):
            corners = 0
            for bits in product("01", repeat=k):
                cand = list(e)
                for pos, b in zip(s, bits):
                    cand[pos] = b
                if "".join(cand) in encodings:
                    corners += 1
            if corners == 1 << k:
                total += 1
    return total


def f_vector(encodings):
    """(vertices, edges, squares, ...) of the brute-force complex."""
    out = [len(encodings), len(edges_among(encodings))]
    k = 2
    while True:
        c = cube_count(encodings, k)
        if c == 0:
            break
        out.append(c)
        k += 1
    return tuple(out)


def crossing_f_vector(point_count, walls):
    """The f-vector of the dual complex counted from the crossing graph
    alone: f_k = sum_j C(j, k) * c_j, where c_j counts the j-sets of
    pairwise crossing walls and c_0 = 1 counts the empty set.  For a
    median graph the cube polynomial is the clique polynomial of its
    crossing graph at x + 1 (Brešar, Klavžar and Škrekovski, "The cube
    polynomial and its derivatives: the case of median graphs",
    Electron. J. Combin. 10, 2003).  Needs no section, BFS or cube."""
    m = len(walls)
    cross = {
        pair for pair in combinations(range(m), 2) if walls_cross(point_count, walls, *pair)
    }
    cliques = [1]
    for size in range(1, m + 1):
        count = sum(
            all(pair in cross for pair in combinations(combo, 2))
            for combo in combinations(range(m), size)
        )
        if count == 0:  # a clique's subsets are cliques, so none is larger
            break
        cliques.append(count)
    return tuple(
        sum(math.comb(j, k) * c for j, c in enumerate(cliques)) for k in range(len(cliques))
    )


def separating_wall_count(walls, p, q):
    return sum(1 for w in walls if (p in set(w)) != (q in set(w)))


def walls_cross(point_count, walls, i, j):
    (hi, hic), (hj, hjc) = (
        side_sets(point_count, walls)[i],
        side_sets(point_count, walls)[j],
    )
    return all((a & b) for a in (hi, hic) for b in (hj, hjc))


def max_clique(vertex_count, edges):
    """Largest set of pairwise adjacent vertices by descending-size
    enumeration; ``edges`` holds the pairs (i, j) with i < j.

    Pairwise adjacency is closed under subsets, so the first size that
    admits a set is the maximum.
    """
    for size in range(vertex_count, 1, -1):
        for combo in combinations(range(vertex_count), size):
            if all(pair in edges for pair in combinations(combo, 2)):
                return size
    return min(vertex_count, 1)


def max_crossing_family(point_count, walls):
    """Largest pairwise-crossing wall set."""
    m = len(walls)
    cross = {
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if walls_cross(point_count, walls, i, j)
    }
    return max_clique(m, cross)


def ncube_f_vector(n):
    """Face numbers of the solid n-cube: C(n,k) * 2^(n-k) faces per k."""
    return tuple(math.comb(n, k) * 2 ** (n - k) for k in range(n + 1))


def principal_encoding(walls, p):
    """The encoding choosing, on every wall, the side containing p."""
    return "".join("0" if p in set(w) else "1" for w in walls)


def encoding_image(encoding, wall_perm, side_swap):
    """Relabel an encoding: bit w moves to wall_perm[w], flipped when
    side_swap[w] is 1."""
    out = ["0"] * len(encoding)
    for w, bit in enumerate(encoding):
        out[wall_perm[w]] = "1" if (bit == "1") != (side_swap[w] == 1) else "0"
    return "".join(out)


def induced_wall_maps(point_count, walls, perm):
    """(wall_perm, side_swap) of a point map, or None unless it is a
    permutation moving every listed side onto a half-space: the listed
    side of wall w goes onto side side_swap[w] of wall wall_perm[w]."""
    if sorted(perm) != list(range(point_count)):
        return None
    sides = side_sets(point_count, walls)
    wall_perm, side_swap = [], []
    for listed, _ in sides:
        image = frozenset(perm[p] for p in listed)
        hits = [(j, pair.index(image)) for j, pair in enumerate(sides) if image in pair]
        if not hits:
            return None
        wall_perm.append(hits[0][0])
        side_swap.append(hits[0][1])
    return wall_perm, side_swap


def _flipped(encoding, i):
    return encoding[:i] + ("1" if encoding[i] == "0" else "0") + encoding[i + 1 :]


def _all_distances(encodings):
    """All-pairs edge-path distances on the Hamming-distance-1 graph,
    by a plain BFS from every encoding over bit-flip neighbours."""
    def neighbours(e):
        for i in range(len(e)):
            f = _flipped(e, i)
            if f in encodings:
                yield f

    out = {}
    for start in encodings:
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in neighbours(u):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        out[start] = dist
    return out


def corners_of(point_count, walls, encodings):
    """All (encoding, wall set) with two or more pairwise crossing walls
    each of which flips the encoding to another encoding."""
    m = len(walls)
    cross = {
        (i, j)
        for i in range(m)
        for j in range(m)
        if i != j and walls_cross(point_count, walls, i, j)
    }
    out = set()
    for e in encodings:
        flippable = [i for i in range(m) if _flipped(e, i) in encodings]
        for k in range(2, len(flippable) + 1):
            for combo in combinations(flippable, k):
                if all(pair in cross for pair in combinations(combo, 2)):
                    out.add((e, frozenset(combo)))
    return out


def equivariance_violations(point_count, walls, perm):
    """Check the action of a point map exhaustively on the brute-force
    complex.

    The complex is every admissible encoding with Hamming-distance-1
    edges.  The action sends an encoding to encoding_image under the
    wall maps the point map induces (induced_wall_maps).  Returns
    (violations, corner count): the list names every failed property
    (empty when the action is equivariant), and the count is the number
    of corners of the complex.
    """
    n = point_count
    maps = induced_wall_maps(point_count, walls, perm)
    if maps is None:
        return ["the point map is not a permutation of the half-spaces"], 0
    wall_perm, side_swap = maps
    image = lambda e: encoding_image(e, wall_perm, side_swap)
    encodings = admissible_encodings(point_count, walls)
    corners = corners_of(point_count, walls, encodings)
    violations = []
    for p in range(n):
        if image(principal_encoding(walls, p)) != principal_encoding(walls, perm[p]):
            violations.append(f"principal section of point {p}")
    for p in range(n):
        for q in range(n):
            if separating_wall_count(walls, p, q) != separating_wall_count(
                walls, perm[p], perm[q]
            ):
                violations.append(f"wall distance of ({p},{q})")
    outside = [e for e in encodings if image(e) not in encodings]
    if outside:
        violations.append(f"image of {outside[0]} is not admissible")
        return violations, len(corners)
    dist = _all_distances(encodings)
    for u in encodings:
        for v in encodings:
            if dist[u].get(v) != dist[image(u)].get(image(v)):
                violations.append(f"path distance of ({u},{v})")
    for e, S in corners:
        if (image(e), frozenset(wall_perm[w] for w in S)) not in corners:
            violations.append(f"corner at {e} over walls {sorted(S)}")
    return violations, len(corners)


def flag_violations(encodings, cubes):
    """Brute-force flag check of every vertex link.

    ``cubes`` holds (encoding, walls) pairs; each names the cube of the
    encodings that agree with the encoding off the walls, whichever of
    its vertices is given.  At an encoding e the link's points are the
    walls that flip e to another encoding, two points are joined when
    the square they span through e is among the cubes, and every set of
    three or more pairwise joined points must span one of the cubes.
    Returns the (encoding, sorted walls) sets that do not, sorted.
    """
    present = {_cube(e, S) for e, S in cubes}
    violations = []
    for e in sorted(encodings):
        points = [i for i in range(len(e)) if _flipped(e, i) in encodings]
        joined = {pair for pair in combinations(points, 2) if _cube(e, pair) in present}
        for k in range(3, len(points) + 1):
            for S in combinations(points, k):
                if all(pair in joined for pair in combinations(S, 2)) and _cube(e, S) not in present:
                    violations.append((e, S))
    return violations


def _cube(e, walls):
    """The cube through encoding e over the walls, as (its vertex with a
    0 on each of the walls, frozenset of the walls)."""
    chars = list(e)
    for i in walls:
        chars[i] = "0"
    return "".join(chars), frozenset(walls)


def corner_violations(point_count, walls, encodings, cubes):
    """Every corner whose cube is not among the given ones.

    ``encodings`` lists the vertices in index order and ``cubes`` holds
    (encoding, walls) pairs as in flag_violations.  Vertex by vertex,
    every set of two or more pairwise crossing walls that flip the
    encoding to another encoding spans a cube of the dual complex
    through it; returns (vertex index, sorted walls) for each set whose
    cube is missing, in lexicographic order of the walls per vertex.
    """
    present = {_cube(e, S) for e, S in cubes}
    members = set(encodings)
    crossing = {
        pair for pair in combinations(range(len(walls)), 2) if walls_cross(point_count, walls, *pair)
    }
    violations = []
    for i, e in enumerate(encodings):
        points = [w for w in range(len(walls)) if _flipped(e, w) in members]
        violations += sorted(
            (i, S)
            for k in range(2, len(points) + 1)
            for S in combinations(points, k)
            if all(pair in crossing for pair in combinations(S, 2)) and _cube(e, S) not in present
        )
    return violations


def cube_violations(point_count, walls, encodings, edges, cubes):
    """The first registered cube that is not a cube of the complex, or
    None.

    ``encodings`` lists the vertices in index order, ``edges`` holds
    (u, v, wall) index triples and ``cubes`` holds (k, vertex index,
    walls) triples in registry order.  A k-cube needs k walls that
    pairwise cross as point sets, a vertex with a 0 on each of them, and
    its 2^k corners: every flip of a subset of its walls is a vertex with
    an edge on each of the walls.  Returns (k, vertex index, walls,
    reason), the corner count in the last reason.
    """
    members = set(encodings)
    pairs = {frozenset((encodings[u], encodings[v])) for u, v, _ in edges}
    for k, vi, S in cubes:
        e = encodings[vi]
        corners = 0
        for size in range(len(S) + 1):
            for sub in combinations(S, size):
                c = e
                for w in sub:
                    c = _flipped(c, w)
                corners += c in members and all(frozenset((c, _flipped(c, w))) in pairs for w in S)
        if len(S) != k:
            reason = f"it spans {len(S)} walls"
        elif not all(walls_cross(point_count, walls, *pair) for pair in combinations(S, 2)):
            reason = "its walls do not cross"
        elif any(e[w] == "1" for w in S):
            reason = "its vertex chooses a complement side"
        elif corners < 2 ** k:
            reason = f"it has edges on all its walls at only {corners} of its {2 ** k} vertices"
        else:
            continue
        return k, vi, S, reason
    return None


def orbit_and_stabilizer(point_count, walls, generators, start, word_length):
    """Orbit of an encoding and its stabilizer words, from point maps.

    ``generators`` is a list of (name, point permutation).  Each point
    map acts on encodings through the half-spaces it moves: the listed
    side of wall w goes onto a side of some wall j, and the encoding's
    bit w moves to bit j, flipped when that side is j's complement.  The
    inverse of every map that is not an involution is adjoined as
    name^-1 right after it.  Words are listed by length, then in symbol
    order, skipping a symbol right after its own inverse; those that
    bring ``start`` back are the stabilizer words.  Returns (orbit as a
    set of encodings, stabilizer words as a tuple of name tuples).
    """

    def action(perm):
        maps = induced_wall_maps(point_count, walls, perm)
        assert maps is not None, "the map does not move half-spaces to half-spaces"
        return lambda e: encoding_image(e, *maps)

    symbols, inverse_of = [], {}
    for name, perm in generators:
        symbols.append((name, action(perm)))
        inverse = [0] * point_count
        for p, q in enumerate(perm):
            inverse[q] = p
        if inverse != list(perm):
            symbols.append((name + "^-1", action(inverse)))
            inverse_of[name], inverse_of[name + "^-1"] = name + "^-1", name
    orbit = {start}
    frontier = [start]
    while frontier:
        images = {act(e) for e in frontier for _, act in symbols}
        frontier = images - orbit
        orbit |= images
    words = []
    level = [((), start)]
    for _ in range(word_length):
        level = [
            (word + (name,), act(e))
            for word, e in level
            for name, act in symbols
            if not word or inverse_of.get(word[-1]) != name
        ]
        words.extend(word for word, e in level if e == start)
    return orbit, tuple(words)


def flip_test_bfs(space, base_point):
    """(codes, adjacency) of the component BFS that runs Roller's flip
    test on every wall at every vertex: vertices in discovery order,
    flips in wall id order, V*m flip tests.  A code has bit w set when
    it chooses wall w's complement, and wall w flips when the side it
    would take meets every other chosen side; only the space's raw
    description is read."""
    raw = space.to_dict()
    sides = side_sets(raw["points"], raw["walls"])

    def flips(code):
        chosen = [pair[code >> w & 1] for w, pair in enumerate(sides)]
        return [
            w
            for w, pair in enumerate(sides)
            if all(not pair[1 - (code >> w & 1)].isdisjoint(c) for v, c in enumerate(chosen) if v != w)
        ]

    # the encoding lists bit 0 first
    codes = [int(principal_encoding(raw["walls"], base_point)[::-1], 2)]
    index = {codes[0]: 0}
    adjacency = [{}]
    queue = deque([0])
    while queue:
        ui = queue.popleft()
        code = codes[ui]
        for w in flips(code):
            t = code ^ 1 << w
            vi = index.get(t)
            if vi is None:
                vi = len(codes)
                codes.append(t)
                index[t] = vi
                adjacency.append({})
                queue.append(vi)
            adjacency[ui][w] = vi
            adjacency[vi][w] = ui
    return codes, adjacency


def contract_by_rescan(X, indices):
    """The moves that contract a closed edge path of X to its first
    vertex, as (kind, at, walls) triples, by the sweep that rescans the
    loop from position 1 for (v, w, v) spurs after every square move.

    Each square move pushes the first interior vertex at the loop's
    largest BFS distance from the base across the registered square of
    its two loop edges; walls are read with X.edge_wall."""
    dist, _ = X.bfs_tree(indices[0])
    m = X.space.wall_count
    moves = []

    def strip(seq):
        i = 1
        while i < len(seq) - 1:
            if seq[i - 1] == seq[i + 1]:
                moves.append(("backtrack", i, (X.edge_wall(seq[i - 1], seq[i]),)))
                del seq[i : i + 2]
                i = max(i - 1, 1)
            else:
                i += 1
        return seq

    seq = strip(list(indices))
    while len(seq) > 1:
        radius = max(dist[v] for v in seq)
        pos = next(i for i in range(1, len(seq) - 1) if dist[seq[i]] == radius)
        sigma = seq[pos]
        wa = X.edge_wall(sigma, seq[pos - 1])
        wb = X.edge_wall(sigma, seq[pos + 1])
        s = 1 << wa | 1 << wb
        assert (X.codes[sigma] & ~s | s << m) in X.cubes[2], "square not registered"
        seq[pos] = X.index[X.codes[sigma] ^ s]
        assert dist[seq[pos]] == radius - 2
        moves.append(("square", pos, (min(wa, wb), max(wa, wb))))
        seq = strip(seq)
    return moves


def theta_walls(vertex_count, edges):
    """The Djoković–Winkler classes of a graph on the vertices
    0..vertex_count-1 with the given (u, v) edges, as (class, side)
    pairs: for the first edge uv in no class yet, two BFS give
    W_uv = {x : d(x, u) < d(x, v)}, and its class is the frozenset of the
    edges, as frozenset pairs, with exactly one end in W_uv.  In a median
    graph these are its hyperplanes (Djoković 1973; Winkler 1984), and
    no two classes share an edge; in another graph two may.  Reads
    neither codes nor wall labels."""
    adjacent = [[] for _ in range(vertex_count)]
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)

    def distances(start):
        dist = [-1] * vertex_count
        dist[start] = 0
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adjacent[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    classes = []
    classified = set()
    for u, v in edges:
        if frozenset((u, v)) in classified:
            continue
        du, dv = distances(u), distances(v)
        side = frozenset(x for x in range(vertex_count) if du[x] < dv[x])
        cls = frozenset(frozenset((a, b)) for a, b in edges if (a in side) != (b in side))
        classified |= cls
        classes.append((cls, side))
    return classes


def median_by_round_trip(vertex_count, edges):
    """Whether the graph is median, by rebuilding it from its own
    hyperplanes (Roller 1998; Chepoi 2000): its Θ classes (theta_walls)
    must partition the edges, their sides must be the walls of a wall
    space on the vertices as points, and the dual complex of that space
    must have the graph's V and E, with each vertex's principal vertex
    distinct and each edge's ends adjacent.  The graph is then
    isomorphic to the dual, which is connected, so a disconnected graph
    fails too."""
    from cubulate import InputError, WallSpace, build_component, principal_section

    edges = list(edges)
    classes = theta_walls(vertex_count, edges)
    if sum(len(cls) for cls, _ in classes) != len(edges):
        return False
    try:
        space = WallSpace(vertex_count, [sorted(side) for _, side in classes])
    except InputError:
        return False
    dual = build_component(space)
    if (len(dual.codes), len(dual.edges)) != (vertex_count, len(edges)):
        return False
    image = [dual.index[principal_section(space, x)] for x in range(vertex_count)]
    dual_edges = {frozenset((a, b)) for a, b, _ in dual.edges}
    return len(set(image)) == vertex_count and all(
        frozenset((image[u], image[v])) in dual_edges for u, v in edges
    )

