"""Construction of the cube complex dual to a wall space.

The vertices are the admissible sections reachable from a base
principal section by single-wall flips; edges join sections differing
on exactly one wall.  A vertex is an index i into one tuple of codes:
``X.codes[i]`` is its section's code, so a flip is an XOR, and the dict
``X.index`` maps a code back to its index.  Codes become text only in
the JSON form, the DOT labels and witnesses (encode_section).  A k-corner
is a vertex together with k pairwise crossing walls all flipping
admissibly there; each corner spans a unique k-cube whose 2^k vertices
are obtained by flipping subsets of the corner's walls.  A cube has one
key, the int ``code | span << m``: the code of its canonical vertex (the
one choosing every listed side of the cube's walls) and its span, the
wall mask with bit w set for each of its walls, on m walls.  Codes fill
the low m bits and spans the bits above, so the key is injective, and
the same cube found from different corners registers once.  The cube
through any vertex with code c spanned by s has the key
``c & ~s | s << m``, so the flag check, the loop suites and the action
check each find a cube with one dict membership test.  A registered
k-cube is checked through its 2k facets, not its 2^k vertices
(_check_cubes), once, by check_flag.  The 1-skeleton is stored once,
as the adjacency maps; the sorted edge list is derived from them.

Cliques of walls are enumerated as spans (_cliques).  Spans are decoded
to wall tuples only at the boundaries: the JSON form and witnesses
(_walls).  The cliques of the crossing graph also count the complex
before it is built (_f_count): the vertex cap is applied to that count,
and check_flag certifies a complex by comparing its f-vector with it,
searching the vertex links only to name a witness.

Everything is deterministic: vertices are indexed in BFS discovery
order from the base with neighbour walls visited in id order.
"""

from __future__ import annotations

from collections import deque
from math import comb
from typing import Iterable, Sequence

from .errors import BudgetError, CertificateError, InputError
# the benchmark's traced pass wraps admissible_flips here
from .sections import _pointed, admissible_flips, decode_section, encode_section, is_admissible, principal_section
from .wallspace import WallSpace, _is_int

__all__ = [
    "DEFAULT_MAX_VERTICES",
    "CubeComplex",
    "ComplexityBudgetExceeded",
    "FlagViolation",
    "NotInComponent",
    "build_component",
    "attach_cubes",
    "build_complex",
    "dimension",
    "check_flag",
    "complex_to_dict",
    "complex_from_dict",
    "to_dot",
]

DEFAULT_MAX_VERTICES = 1 << 20


class ComplexityBudgetExceeded(BudgetError):
    """The component grew past the configured vertex cap."""


class FlagViolation(CertificateError):
    """A clique of squares in a vertex link spans no registered cube, or
    a registered cube is not in the complex; the witness cube is decoded
    to its vertex index and wall tuple."""

    def __init__(self, vertex: int, walls: tuple[int, ...], message: str):
        super().__init__(message)
        self.vertex = vertex
        self.walls = walls


class NotInComponent(InputError):
    """An index is not a vertex of this complex."""


class CubeComplex:
    """A component of the admissible-section graph with attached cubes.

    A vertex is an index i: ``codes[i]`` is its section's code (bit w set
    when it chooses wall w's complement side) and ``base`` is the index
    of the base vertex.
    ``adjacency[i]`` maps the wall of each edge at i to its far end;
    ``edges``, the sorted ``(u, v, wall)`` triples with u < v, is derived
    from it while each entry is checked once: InputError unless it flips
    exactly its wall's bit and is listed at the far end too, and unless
    the base is an index and the codes are distinct ints that fit the
    space's m walls.
    ``cubes[k]`` holds the key ``codes[b] | span << m`` of each k-cube,
    b being its canonical vertex and span its wall mask, in insertion
    order (a dict with None values).  ``index`` maps each code back to
    its vertex index.  Treat instances as immutable once attach_cubes
    has run; the ``codes``, ``index``, ``edges``, ``adjacency`` and
    ``cubes`` attributes are read-only views of the construction.
    """

    def __init__(
        self,
        space: WallSpace,
        base: int,
        codes: Sequence[int],
        adjacency: Sequence[dict[int, int]],
    ):
        self.space = space
        self.base = base
        self.codes: tuple[int, ...] = tuple(codes)
        self.adjacency: tuple[dict[int, int], ...] = tuple(dict(a) for a in adjacency)
        codes, adjacency, edges, m = self.codes, self.adjacency, [], space.wall_count
        if not _is_int(base) or not 0 <= base < len(codes):
            raise InputError(f"base {base!r} is not a vertex index in 0..{len(codes) - 1}")
        if len(adjacency) != len(codes):
            raise InputError(f"{len(adjacency)} adjacency maps for {len(codes)} vertices")
        if not {*map(type, codes)} <= {int} or min(codes) < 0 or max(codes) >> m:
            raise InputError(f"vertex codes must be ints that fit {m} bits")
        # the codes fit m bits, so an entry that passes the XOR test names
        # a wall in 0..m-1; a far end that is no index raises below
        try:
            for u, a in enumerate(adjacency):
                for w, v in a.items():
                    if codes[u] ^ codes[v] != 1 << w:
                        edge = sorted((u, v)) + [w]
                        raise InputError(f"edge {edge}: endpoints do not differ exactly on wall {w}")
                    if adjacency[v].get(w) != u:
                        raise InputError(f"edge {sorted((u, v)) + [w]} is listed at vertex {u} only")
                    if u < v:
                        edges.append((u, v, w))
                    elif v < 0:  # passed the tests above as index len(codes) + v
                        raise IndexError(v)
        except (IndexError, TypeError, ValueError):
            raise InputError(f"vertex {u}: entry {w!r}: {v!r} is not a wall and a vertex index") from None
        self.edges: tuple[tuple[int, int, int], ...] = tuple(sorted(edges))
        self.index = {c: i for i, c in enumerate(self.codes)}
        if len(self.index) != len(codes):
            raise InputError("two vertices share a code")
        self.cubes: dict[int, dict[int, None]] = {}
        self.cubes_attached = False
        self._last_tree: tuple[int, tuple[int, ...], tuple[int, ...]] | None = None

    # -- lookups ----------------------------------------------------------

    def _flipped(self, vi: int, *walls: int) -> tuple[int, int | None]:
        """The code of vertex vi with the given walls flipped, and the
        index of that section, or None when it is not a vertex."""
        code = self.codes[vi]
        for w in walls:
            code ^= 1 << w
        return code, self.index.get(code)

    def index_of(self, v: int) -> int:
        """v, once it is a vertex index; NotInComponent otherwise."""
        if not _is_int(v):
            raise NotInComponent(f"not a vertex: {v!r}")
        if not 0 <= v < len(self.codes):
            raise NotInComponent(f"vertex index {v} outside 0..{len(self.codes) - 1}")
        return v

    def neighbors(self, i: int) -> list[tuple[int, int]]:
        """(wall, neighbour index) pairs in ascending wall order."""
        adj = self.adjacency[self.index_of(i)]
        return [(w, adj[w]) for w in sorted(adj)]

    def edge_wall(self, i: int, j: int) -> int:
        """The wall labelling the edge between two adjacent vertices."""
        u, v = self.index_of(i), self.index_of(j)
        # an edge's codes differ exactly on its wall; equal codes give -1
        w = (self.codes[u] ^ self.codes[v]).bit_length() - 1
        if self.adjacency[u].get(w) != v:
            raise InputError(f"vertices {i} and {j} are not adjacent")
        return w

    # -- traversal ----------------------------------------------------------

    def bfs_tree(self, start: int) -> tuple[list[int], list[int]]:
        """Distances and BFS parents from a vertex index; unreached
        entries are -1.  Neighbours are visited in wall id order."""
        start = self.index_of(start)
        dist = [-1] * len(self.codes)
        parent = [-1] * len(self.codes)
        dist[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            adj = self.adjacency[u]
            for w in sorted(adj):
                v = adj[w]
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
        return dist, parent

    def cached_tree(self, start: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """bfs_tree(start) as tuples, kept for the last start only.  The
        loop suites ask for the tree at the base once per loop; this
        runs one traversal for all of them in O(V) memory."""
        start = self.index_of(start)
        if self._last_tree is None or self._last_tree[0] != start:
            dist, parent = self.bfs_tree(start)
            self._last_tree = (start, tuple(dist), tuple(parent))
        return self._last_tree[1], self._last_tree[2]

    def distance_table(self, sources: Sequence[int]) -> list[list[int]]:
        """Edge-path distances among distinct vertex indices:
        ``table[j][i]`` is the distance from sources[i] to sources[j], -1
        when they are not connected.  The metric suite calls it only
        after its descent test fails, to name a pair of points whose
        distances differ.

        One BFS sweep from all sources together.  Each vertex holds an
        int whose bit i is set once source i has reached it; a level
        pushes each vertex's new bits to its neighbours, and each
        neighbour keeps the bits it has not yet seen.  A source's level
        is recorded only when it reaches another source, so the sweep
        costs O(diameter * (V + E)) big-int operations plus P^2
        recordings.
        """
        sources = [self.index_of(s) for s in sources]
        slot = {v: j for j, v in enumerate(sources)}
        if len(slot) != len(sources):
            raise InputError("distance_table needs distinct vertices")
        table = [[-1] * len(sources) for _ in sources]
        seen = [0] * len(self.codes)
        frontier: dict[int, int] = {}
        for i, v in enumerate(sources):
            seen[v] = frontier[v] = 1 << i
        adj = self.adjacency
        level = 0
        while frontier:
            for v, bits in frontier.items():
                j = slot.get(v)
                if j is not None:
                    row = table[j]
                    while bits:
                        low = bits & -bits
                        row[low.bit_length() - 1] = level
                        bits ^= low
            reached: dict[int, int] = {}
            for u, bits in frontier.items():
                for v in adj[u].values():
                    reached[v] = reached.get(v, 0) | bits
            frontier = {}
            for v, bits in reached.items():
                bits &= ~seen[v]
                if bits:
                    seen[v] |= bits
                    frontier[v] = bits
            level += 1
        return table

    def f_vector(self) -> tuple[int, ...]:
        """(vertices, edges, squares, 3-cubes, ...) up to the dimension."""
        counts = [len(self.codes), len(self.edges)]
        for k in sorted(self.cubes):
            counts.append(len(self.cubes[k]))
        return tuple(counts)

    def __repr__(self) -> str:
        return (
            f"CubeComplex(vertices={len(self.codes)}, edges={len(self.edges)}, "
            f"cubes={ {k: len(v) for k, v in self.cubes.items()} })"
        )


def resolve_max_vertices(requested: int | None = None) -> int:
    """The vertex cap: the argument, a positive int, or 2^20 for None."""
    if requested is None:
        return DEFAULT_MAX_VERTICES
    if not _is_int(requested) or requested < 1:
        raise InputError(f"vertex cap must be a positive integer, got {requested!r}")
    return requested


def build_component(
    space: WallSpace,
    base_point: int = 0,
    max_vertices: int | None = None,
) -> CubeComplex:
    """BFS the component of the base point's principal section.

    Vertices receive indices in discovery order; flips are tried in wall
    id order, so the construction is deterministic.  Raises
    ComplexityBudgetExceeded when the component outgrows the cap, from
    the clique count before any vertex is visited.

    A queued vertex carries its flips as two masks over the poc set
    pointed at the base (sections._pointed): add, the far sides it may
    take, and rem, those it may give back.  A discovery lies one level
    further from the base than its finder, so it adds a wall w to the
    set d of walls flipped from the base: rem loses req[w] and gains w;
    add loses w and inc[w] and gains each x of cov[w] whose req[x] lies
    in d and whose inc[x] misses it.  O(n*m + V + E + sum_k k*f_k) with
    one test per cov wall per discovery, where a flip test of every wall
    at every vertex cost O(V*m).
    """
    cap = resolve_max_vertices(max_vertices)
    base = principal_section(space, base_point)
    if _f_count(space, cap) is None:
        raise ComplexityBudgetExceeded(f"component exceeds the vertex cap {cap}")
    req, inc, cov = _pointed(space, base)
    codes = [base]
    index = {base: 0}
    adjacency: list[dict[int, int]] = [{}]
    queue = deque([(0, _span(w for w, r in enumerate(req) if not r), 0)])
    while queue:
        ui, add, rem = queue.popleft()
        code = codes[ui]
        flips = add | rem
        while flips:
            low = flips & -flips
            flips ^= low
            w = low.bit_length() - 1
            t = code ^ low
            vi = index.get(t)
            if vi is None:
                if len(codes) >= cap:
                    raise ComplexityBudgetExceeded(
                        f"component exceeds the vertex cap {cap}"
                    )
                d = t ^ base
                grown = _span(x for x in cov[w] if not (req[x] & ~d or inc[x] & d))
                vi = len(codes)
                codes.append(t)
                index[t] = vi
                adjacency.append({})
                queue.append((vi, add & ~low & ~inc[w] | grown, rem & ~req[w] | low))
            adjacency[ui][w] = vi
            adjacency[vi][w] = ui
    return CubeComplex(space, 0, codes, adjacency)


def _span(walls: Iterable[int]) -> int:
    """The wall mask with bit w set for each given wall."""
    span = 0
    for w in walls:
        span |= 1 << w
    return span


def _walls(span: int) -> tuple[int, ...]:
    """The walls of a wall mask, in ascending order."""
    out = []
    while span:
        low = span & -span
        out.append(low.bit_length() - 1)
        span ^= low
    return tuple(out)


def _cliques(
    cands: int, link: Sequence[int], min_size: int, limit: int | None = None
) -> list[int] | None:
    """The span of every clique with at least min_size members among the
    candidate walls (a mask) in the graph whose neighbourhoods are the
    masks link[w], in lexicographic order of the sorted wall tuples.

    Each step takes the lowest remaining candidate w, narrows the rest to
    rest & link[w] and carries the span down, so a clique costs O(1) int
    operations on top of the one it extends.

    With a limit (and min_size 1), None as soon as the graph shows more
    than limit cliques: limit + 1 spans, or a clique of more than
    limit.bit_length() walls, whose subsets alone are more.  So it makes
    O(limit) steps and recurses at most that bit length deep.
    """
    out: list[int] = []
    if limit is None:  # no clique has more walls than cands has bits
        depth = cands.bit_length()
        limit = 1 << depth
    else:
        depth = limit.bit_length()

    def grow(span: int, size: int, rest: int) -> bool:
        while rest:
            low = rest & -rest
            rest ^= low
            nxt = span | low
            if size >= min_size:
                out.append(nxt)
            compatible = rest & link[low.bit_length() - 1]
            if compatible and (
                size >= depth or len(out) > limit or not grow(nxt, size + 1, compatible)
            ):
                return False
        return True

    return out if grow(0, 1, cands) and len(out) <= limit else None


def _f_count(space: WallSpace, limit: int) -> tuple[int, ...] | None:
    """The f-vector (vertices, edges, squares, ...) of the complex dual
    to the space, counted from its crossing graph alone, or None when it
    has more than limit vertices.

    For a median graph the cube polynomial is the clique polynomial of
    its crossing graph at x + 1 (Brešar, Klavžar and Škrekovski, "The
    cube polynomial and its derivatives: the case of median graphs",
    Electron. J. Combin. 10, 2003): f_k = sum_j C(j, k) c_j, where c_j
    counts the j-sets of pairwise crossing walls and c_0 = 1, so the
    complex has sum_j c_j vertices.  The space keeps a count that ran
    to the end, so a check after a build counts nothing.
    """
    f = space._f_counted
    if f is None:
        spans = _cliques((1 << space.wall_count) - 1, space._crossing_masks, 1, limit - 1)
        if spans is None:
            return None
        c = [1] + [0] * space.wall_count
        for span in spans:
            c[span.bit_count()] += 1
        while not c[-1]:
            c.pop()
        f = space._f_counted = tuple(
            sum(comb(j, k) * c[j] for j in range(k, len(c))) for k in range(len(c))
        )
    return f if f[0] <= limit else None


def _check_cubes(X: CubeComplex) -> None:
    """Raise FlagViolation unless X carries every cube of its registry.

    A key ``code | span << m`` names the cube at the vertex with that
    code over the walls of span.  A square needs crossing walls, the
    listed sides of both at its vertex and its four edges.  A k-cube
    with k >= 3 needs its 2k facets in ``cubes[k - 1]``: over each k-1 of
    its walls, at its vertex (key ``code | (span ^ low) << m``) and across
    the remaining wall (key ``(code ^ low) | (span ^ low) << m``, present
    only when that code is a vertex's).  By induction on k that gives
    each k-cube its 2^k vertices and its whole 1-skeleton (the two facets
    across one wall hold every vertex and the edges on the other walls;
    the facets across a second wall hold the edges on the first), walls
    that pairwise cross and the listed sides at its vertex.
    O(sum_k k^2 f_k).
    """
    cross, adj, m, cubes = X.space._crossing_masks, X.adjacency, X.space.wall_count, X.cubes
    full = (1 << m) - 1
    for k, registry in cubes.items():
        facets = cubes.get(k - 1, {})
        for key in registry:
            code, span, reason = key & full, key >> m, ""
            if k > 2:
                rest = span
                while rest:
                    low = rest & -rest
                    rest ^= low
                    facet = (span ^ low) << m
                    if (code | facet) not in facets or (code ^ low | facet) not in facets:
                        missing = list(_walls(span ^ low))
                        reason = f"its facet over walls {missing} is not registered"
            else:
                w1, w2 = _walls(span)
                vi = X.index[code]
                a, b = adj[vi].get(w1), adj[vi].get(w2)
                if not cross[w1] >> w2 & 1:
                    reason = "its walls do not cross"
                elif code >> w1 & 1 or code >> w2 & 1:
                    reason = "its vertex chooses a complement side"
                # an edge flips its wall's bit, so both far edges end at code ^ w1 ^ w2
                elif a is None or b is None or w2 not in adj[a] or w1 not in adj[b]:
                    reason = "one of its edges is missing"
            if reason:
                vi, walls = X.index[code], _walls(span)
                raise FlagViolation(
                    vi, walls, f"vertex {vi}: the {k}-cube over walls {list(walls)} "
                    f"is not in the complex: {reason}"
                )


def attach_cubes(X: CubeComplex) -> CubeComplex:
    """Attach one cube per corner, keyed canonically; idempotent.

    Corners are enumerated at each cube's canonical vertex (the one
    choosing every listed side of the cube's walls), so every cube is
    found exactly once and registered under its key
    ``code | span << m``.  The cubes are not checked here: by Roller's
    flip criterion, flipping any subset of pairwise crossing walls that
    each flip admissibly keeps a section admissible, so every cube found
    at a corner of a built component lies in it, and check_flag checks
    every registry it is given (_check_cubes).
    """
    if X.cubes_attached:
        return X
    cross, m = X.space._crossing_masks, X.space.wall_count
    cubes: dict[int, dict[int, None]] = {}
    for vi, code in enumerate(X.codes):
        for span in _cliques(_span(X.adjacency[vi]) & ~code, cross, 2):
            cubes.setdefault(span.bit_count(), {})[code | span << m] = None
    X.cubes = {k: cubes[k] for k in sorted(cubes)}
    X.cubes_attached = True
    return X


def build_complex(
    space: WallSpace,
    base_point: int = 0,
    max_vertices: int | None = None,
) -> CubeComplex:
    """build_component followed by attach_cubes."""
    return attach_cubes(build_component(space, base_point, max_vertices))


def dimension(X: CubeComplex) -> int:
    """Largest k with a k-cube; 1 for edge-only, 0 for a lone vertex."""
    if not X.cubes_attached:
        raise InputError("attach cubes before asking for the dimension")
    if X.cubes:
        return max(X.cubes)
    return 1 if X.edges else 0


def _certified(X: CubeComplex) -> bool:
    """True when X is the whole cube complex dual to its space, by three
    tests, cheapest first: its f-vector equals the count from the
    crossing graph (_f_count); its base is admissible and every other
    vertex hangs in the base's BFS tree from an edge whose flip passes
    Roller's test at the parent; and every registered cube is in X
    (_check_cubes).

    The tree makes every vertex admissible, and each edge flips one wall
    (the constructor checks it), so X holds V distinct admissible
    sections, E distinct single-wall flips between them and, by
    _check_cubes, f_k distinct cubes of the dual complex.  The dual
    complex of a finite wall space holds every admissible section and
    has exactly the counted numbers of each, so X is all of it.
    """
    f = _f_count(X.space, len(X.codes))
    # f_vector lists the registries in key order, so their keys must be 2..d
    if f != X.f_vector() or sorted(X.cubes) != [*range(2, len(f))]:
        return False
    codes, flips = X.codes, X.space._flip_masks
    _, parent = X.cached_tree(X.base)
    if not is_admissible(X.space, codes[X.base]) or parent.count(-1) != 1:
        return False  # only the base has no parent when every vertex is reached
    for u, code in zip(parent, codes):
        if u >= 0:
            c = codes[u]
            w = (c ^ code).bit_length() - 1
            inside_listed, inside_any = flips[w][c >> w & 1]
            if c & inside_any != inside_listed:
                return False
    try:
        _check_cubes(X)
    except FlagViolation:  # check_flag searches the links first, for its witness
        return False
    return True


def _search_links(X: CubeComplex) -> None:
    """Raise FlagViolation at the first clique of squares in a vertex
    link that spans no registered cube.

    In each link, join two incident walls when the square they span at
    the vertex is registered; every clique of that graph must then carry
    a registered cube, which costs one test per corner (sum_k 2^k f_k
    corners in all).
    """
    m, cubes = X.space.wall_count, X.cubes
    by_size = [cubes.get(k, {}) for k in range(m + 1)]
    squares = cubes.get(2, {})
    for vi, code in enumerate(X.codes):
        incident = sorted(X.adjacency[vi])
        link = [0] * m
        for i, w1 in enumerate(incident):
            for w2 in incident[i + 1 :]:
                s = 1 << w1 | 1 << w2
                if (code & ~s | s << m) in squares:
                    link[w1] |= 1 << w2
                    link[w2] |= 1 << w1
        for span in _cliques(_span(incident), link, 3):
            if (code & ~span | span << m) not in by_size[span.bit_count()]:
                walls = _walls(span)
                raise FlagViolation(
                    vi,
                    walls,
                    f"vertex {vi}: walls {list(walls)} span pairwise squares "
                    f"but no {len(walls)}-cube is registered",
                )


def check_flag(X: CubeComplex) -> bool:
    """Certify that every vertex link is a flag complex and that every
    registered cube is a cube of the complex.

    A complex that passes _certified is the whole cube complex dual to
    its space: a median graph (Chepoi, "Graphs of some CAT(0)
    complexes", Adv. Appl. Math. 24, 2000) with every cube filled, which
    is CAT(0), so by Gromov's link condition every link is flag.  Its
    f-vector is compared with the count from the crossing graph
    (Brešar, Klavžar and Škrekovski, 2003; see _f_count), which is
    O(V + E + sum_k k^2 f_k) in all, and no link is searched.

    Any other complex gets the link search (_search_links), whose
    cliques each cost one registry lookup, then _check_cubes; facet
    closure alone is weaker than the flag condition (three squares at a
    corner with no far vertex pass it).  So the search runs only to name
    a witness.  Works on externally supplied complexes, so a missing,
    forged or misplaced cube is detected and reported with a witness.
    """
    if not X.cubes_attached:
        raise InputError("attach cubes before checking the flag condition")
    if not _certified(X):
        _search_links(X)
        _check_cubes(X)
    return True


# -- serialization ----------------------------------------------------------


def complex_to_dict(X: CubeComplex) -> dict:
    """The JSON form; each cube key is decoded to [vertex, [walls]],
    sorted by vertex index, then wall tuple.  Cubes with the same span
    share one wall list, so each span is decoded once."""
    m, index = X.space.wall_count, X.index
    full = (1 << m) - 1
    vertices = [encode_section(c, m) for c in X.codes]
    walls_of: dict[int, list[int]] = {}
    cubes = {}
    for k in sorted(X.cubes):
        entries = []
        for key in X.cubes[k]:
            span = key >> m
            walls = walls_of.get(span)
            if walls is None:
                walls = walls_of[span] = list(_walls(span))
            entries.append([index[key & full], walls])
        entries.sort()
        cubes[str(k)] = entries
    return {
        "walls": m,
        "base": vertices[X.base],
        "vertices": vertices,
        "edges": [list(e) for e in X.edges],
        "cubes": cubes,
    }


def complex_from_dict(
    space: WallSpace, data: object, max_vertices: int | None = None
) -> CubeComplex:
    """Rebuild a complex from its JSON form without re-deriving cubes.

    Structural well-formedness (edge labels consistent with the vertex
    encodings) is enforced; completeness of the cube dictionary is not,
    so broken complexes can be loaded and then failed by check_flag.  An
    empty cube list is checked like any other and registers nothing.
    A vertex list longer than the cap (see resolve_max_vertices) raises
    ComplexityBudgetExceeded before any encoding is decoded.
    """
    if not isinstance(data, dict):
        raise InputError("complex input must be a JSON object")
    missing = {"walls", "base", "vertices", "edges", "cubes"} - set(data)
    if missing:
        raise InputError(f"complex input lacks keys: {sorted(missing)}")
    m = space.wall_count
    if not _is_int(data["walls"]) or data["walls"] != m:
        raise InputError(f"complex has {data['walls']!r} walls, wall space has {m}")
    raw_vertices = data["vertices"]
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise InputError("'vertices' must be a nonempty list of encodings")
    cap = resolve_max_vertices(max_vertices)
    if len(raw_vertices) > cap:
        raise ComplexityBudgetExceeded(
            f"complex has {len(raw_vertices)} vertices, over the vertex cap {cap}"
        )
    codes = [decode_section(t, m) for t in raw_vertices]
    index: dict[int, int] = {}
    for i, c in enumerate(codes):
        if c in index:
            raise InputError(f"duplicate vertex encoding {raw_vertices[i]}")
        index[c] = i
    base = index.get(decode_section(data["base"], m))
    if base is None:
        raise InputError("base encoding is not among the vertices")
    adjacency: list[dict[int, int]] = [{} for _ in codes]
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise InputError("'edges' must be a list of [u, v, wall] entries")
    # `type(x) is int or _is_int(x)` is _is_int(x) without a call for a plain int
    n = len(codes)
    for e in raw_edges:
        if not (isinstance(e, list) and len(e) == 3):
            raise InputError(f"edge entries must be [u, v, wall], got {e!r}")
        u, v, w = e
        if not (
            (type(u) is int or _is_int(u)) and 0 <= u < n
            and (type(v) is int or _is_int(v)) and 0 <= v < n
        ):
            raise InputError(f"edge {e!r}: vertex index out of range")
        if not (type(w) is int or _is_int(w)) or not 0 <= w < m:
            raise InputError(f"edge {e!r}: wall out of range")
        if codes[u] ^ codes[v] != 1 << w:  # a later entry could hide it from the constructor
            raise InputError(f"edge {e!r}: endpoints do not differ exactly on wall {w}")
        adjacency[u][w] = v
        adjacency[v][w] = u
    X = CubeComplex(space, base, codes, adjacency)
    cubes: dict[int, dict[int, None]] = {}
    raw_cubes = data["cubes"]
    if not isinstance(raw_cubes, dict):
        raise InputError("'cubes' must be an object keyed by dimension")
    for key in raw_cubes:
        try:
            k = int(key)
        except (TypeError, ValueError):
            raise InputError(f"cube dimension key {key!r} is not an integer")
        # "02" and " 2" would name dimension 2 too, and the later key
        # would silently replace the earlier one
        if key != str(k):
            raise InputError(f"cube dimension key {key!r} is not written {str(k)!r}")
        if k < 2:
            raise InputError(f"cube dimension {k} must be >= 2")
        if not isinstance(raw_cubes[key], list):
            raise InputError(f"cubes of dimension {k} must be a list of [vertex, [walls]]")
        registry: dict[int, None] = {}
        for entry in raw_cubes[key]:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise InputError(f"cube entries must be [vertex, [walls]], got {entry!r}")
            b, walls = entry
            if not (type(b) is int or _is_int(b)) or not 0 <= b < n:
                raise InputError(f"cube entry {entry!r}: vertex index out of range")
            # k increasing wall ids: span >> w is 0 unless an earlier wall is >= w
            ok, span = isinstance(walls, list) and len(walls) == k, 0
            for w in walls if ok else ():
                if not (type(w) is int or _is_int(w)) or not 0 <= w < m or span >> w:
                    ok = False
                    break
                span |= 1 << w
            if not ok:
                raise InputError(f"cube entry {entry!r}: walls must be {k} sorted wall ids")
            registry[codes[b] | span << m] = None
        if registry:  # no dimension without a cube
            cubes[k] = registry
    X.cubes = {k: cubes[k] for k in sorted(cubes)}
    X.cubes_attached = True
    return X


def to_dot(X: CubeComplex) -> str:
    """DOT text of the 1-skeleton; edges carry the wall id, the base
    vertex is drawn with a double border."""
    lines = ["graph cubing {", "  node [shape=circle];"]
    m = X.space.wall_count
    for i, c in enumerate(X.codes):
        mark = ", peripheries=2" if i == X.base else ""
        lines.append(f'  v{i} [label="{encode_section(c, m)}"{mark}];')
    for u, v, w in X.edges:
        lines.append(f'  v{u} -- v{v} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
