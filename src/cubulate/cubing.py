"""Construction of the cube complex dual to a wall space.

The vertices are the admissible sections; edges join sections
differing on exactly one wall.  Rooted at an admissible base, a vertex
is fixed by the walls of its edges toward the base, which pairwise
cross, and every set of pairwise crossing walls is so fixed by one
vertex, so the cliques of the crossing graph list the vertices
(_vertices).  A vertex is an index i into one tuple of codes:
``X.codes[i]`` is its section's code, so a flip is an XOR, and the dict
``X.index`` maps a code back to its index.  Codes become text only in
the JSON form, the DOT labels and witnesses (encode_section).

The 1-skeleton fixes the cubes: k pairwise crossing walls labelling
edges at a vertex span a k-cube through it (Roller 1998), and the same
cliques count them (_f_count), so a built complex registers none.  The
registry ``X.cubes`` belongs to the file format: complex_to_dict builds
it (attach_cubes) and complex_from_dict reads it.  A cube's key is the
int ``code | span << m``: the code of its canonical vertex, which
chooses the listed side of each of its walls, and its span, their wall
mask; the cube through code c spanned by s has the key
``c & ~s | s << m``.

check_flag compares a complex's vertex and edge numbers with the count
and its vertices with the listed ones, and a registry's sizes with the
count and each key with Roller's criterion in O(k) mask operations
(_certified).  A registry that fails is walked vertex by vertex with
the enumerator that attaches the cubes (_missing_cube), which names
the first cube it lacks or the first registered cube not at all 2^k
corners.
"""

from __future__ import annotations

from collections import deque
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import BudgetError, CertificateError, InputError
# the benchmark's traced pass wraps admissible_flips here
from .sections import admissible_flips, decode_section, encode_section, is_admissible, principal_section
from .wallspace import WallSpace, _bit_indices, _is_int

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
    """Pairwise crossing walls labelling edges at a vertex span no
    registered cube, or a registered k-cube is not in the complex at all
    2^k corners; the witness is decoded to a vertex index and walls."""

    def __init__(self, vertex: int, walls: tuple[int, ...], message: str):
        super().__init__(message)
        self.vertex = vertex
        self.walls = walls


class NotInComponent(InputError):
    """An index is not a vertex of this complex."""


class CubeComplex:
    """A component of the admissible-section graph; its cubes are those
    of the rule (see the module docstring) unless it has a registry.

    A vertex is an index i: ``codes[i]`` is its section's code (bit w set
    when it chooses wall w's complement side) and ``base`` is the index
    of the base vertex.
    ``edges`` lists each edge once, as [u, v, wall] in either orientation.
    The constructor is the one check of a complex's vertices and edges:
    InputError unless the base is an index and the codes distinct ints
    that fit the space's m walls, and at the first entry, in list order,
    that is malformed, out of range, not a flip of exactly its wall or
    an edge listed before.  ``adjacency[i]``, built from the checked
    entries, maps the wall of each edge at i to its far end, and
    ``edges`` becomes their sorted ``(u, v, wall)`` triples with u < v.
    ``cubes`` is None or the registry: ``cubes[k]`` holds the key of each
    k-cube (a dict with None values).  ``index`` maps each code back to
    its vertex index.  Treat instances as immutable once attach_cubes
    has run; the attributes are read-only.
    """

    def __init__(
        self,
        space: WallSpace,
        base: int,
        codes: Sequence[int],
        edges: Iterable[Sequence[int]],
    ):
        self.space = space
        self.base = base
        self.codes: tuple[int, ...] = tuple(codes)
        codes, n, m = self.codes, len(self.codes), space.wall_count
        if not _is_int(base) or not 0 <= base < n:
            raise InputError(f"base {base!r} is not a vertex index in 0..{n - 1}")
        if not {*map(type, codes)} <= {int} or min(codes) < 0 or max(codes) >> m:
            raise InputError(f"vertex codes must be ints that fit {m} bits")
        self.index = dict(zip(codes, range(n)))
        if len(self.index) != n:
            seen: set[int] = set()
            twice = next(c for c in codes if c in seen or seen.add(c))
            raise InputError(f"duplicate vertex encoding {encode_section(twice, m)}")
        adjacency: list[dict[int, int]] = [{} for _ in codes]
        pairs = []
        # `type(x) is int or _is_int(x)` is _is_int(x) without a call for a plain int
        for e in edges:
            if not (isinstance(e, (list, tuple)) and len(e) == 3):
                raise InputError(f"edge entries must be [u, v, wall], got {e!r}")
            u, v, w = e
            if not (
                (type(u) is int or _is_int(u)) and 0 <= u < n
                and (type(v) is int or _is_int(v)) and 0 <= v < n
            ):
                raise InputError(f"edge {e!r}: vertex index out of range")
            if not (type(w) is int or _is_int(w)) or not 0 <= w < m:
                raise InputError(f"edge {e!r}: wall out of range")
            if codes[u] ^ codes[v] != 1 << w:
                raise InputError(f"edge {e!r}: endpoints do not differ exactly on wall {w}")
            if w in adjacency[u]:  # the XOR test leaves one far end on wall w: this edge
                raise InputError(f"edge {e!r} is listed twice")
            adjacency[u][w] = v
            adjacency[v][w] = u
            # an ordered tuple, as build_component lists, is stored without a copy
            pairs.append(e if u < v and type(e) is tuple else (u, v, w) if u < v else (v, u, w))
        self.adjacency: tuple[dict[int, int], ...] = tuple(adjacency)
        self.edges: tuple[tuple[int, int, int], ...] = tuple(sorted(pairs))
        self.cubes: dict[int, dict[int, None]] | None = None
        self._last_tree: tuple[int, tuple[int, ...], tuple[int, ...]] | None = None

    # -- lookups ----------------------------------------------------------

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
        codes = self.codes
        if not (type(i) is type(j) is int and 0 <= i < len(codes) and 0 <= j < len(codes)):
            i, j = self.index_of(i), self.index_of(j)
        # an edge's codes differ exactly on its wall; equal codes give -1
        w = (codes[i] ^ codes[j]).bit_length() - 1
        if self.adjacency[i].get(w) != j:
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

    def cube_counts(self) -> dict[int, int]:
        """{k: f_k} for k >= 2: the registry's sizes, or without one the
        count (_f_count); CertificateError when the count's V or E is not
        X's.  A hand-built X with the dual's V and E but other vertices
        still needs check_flag before the count is its own."""
        if self.cubes is not None:
            return {k: len(self.cubes[k]) for k in sorted(self.cubes)}
        f = _f_count(self.space, len(self.codes))
        if f is None:
            raise CertificateError(f"the dual complex has more than {len(self.codes)} vertices")
        if f[:2] != (len(self.codes), len(self.edges)):
            raise CertificateError(_skeleton_fault(self, f))  # its count witness
        return dict(enumerate(f[2:], 2))

    def f_vector(self) -> tuple[int, ...]:
        """(vertices, edges, squares, 3-cubes, ...) up to the dimension."""
        return (len(self.codes), len(self.edges), *self.cube_counts().values())

    def __repr__(self) -> str:
        cubes = "by rule" if self.cubes is None else {k: len(v) for k, v in self.cubes.items()}
        return f"CubeComplex(vertices={len(self.codes)}, edges={len(self.edges)}, cubes={cubes})"


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
    """The cube complex's 1-skeleton, rooted at the base point's principal
    section.

    Raises ComplexityBudgetExceeded when the clique count (_f_count)
    exceeds the cap, before any vertex is listed; the complex has
    exactly that many vertices, so the listing needs no cap check of its
    own.  _vertices
    lists each vertex with the walls of its edges toward the base; each
    such edge leads away from the base at its other end, which gives
    every vertex the mask of its edges away from the base.  A BFS from
    the base, walls in id order, numbers the vertices in discovery order
    as a flip test of every wall at every vertex would.  It meets the
    other end of each edge toward the base first, so it need follow
    only the edges away from it: O(n*m + V + E) int operations beyond
    the count, where that test cost O(V*m).  The constructor checks these
    edges like any others: the certificates cite that check.
    """
    cap = resolve_max_vertices(max_vertices)
    base = principal_section(space, base_point)
    if _f_count(space, cap) is None:
        raise ComplexityBudgetExceeded(f"component exceeds the vertex cap {cap}")
    up: dict[int, int] = {}  # code -> the walls of its edges away from the base
    for code, down in _vertices(space, base):
        while down:
            low = down & -down
            down ^= low
            below = code ^ low
            up[below] = up.get(below, 0) | low
    codes = [base]
    index = {base: 0}
    edges: list[tuple[int, int, int]] = []
    for ui, code in enumerate(codes):  # a BFS queue: discoveries append to codes
        mask = up.get(code, 0)
        while mask:
            low = mask & -mask
            mask ^= low
            t = code ^ low
            vi = index.get(t)
            if vi is None:
                vi = index[t] = len(codes)
                codes.append(t)
            edges.append((ui, vi, low.bit_length() - 1))
    return CubeComplex(space, 0, codes, edges)


def _vertices(space: WallSpace, base: int) -> Iterator[tuple[int, int]]:
    """(code, down span) of every vertex of the complex dual to the space,
    rooted at the admissible section with code base: the base first,
    then one vertex per clique of the crossing graph in _cliques order.

    With F_w the far side of wall w, the side base does not choose, a
    vertex is fixed by the set D of walls whose F_w it chooses, and D is
    admissible exactly when it holds every wall whose far side contains
    the far side of a wall in D and no two far sides in D are disjoint
    (Roller 1998).  The walls of D with no far side of D strictly inside theirs
    are its edges toward the base (the down span): they pairwise cross,
    D is them together with req[w] for each of them, req[w] being the
    walls whose far side strictly contains F_w, and each clique K gives
    such a D as K | req[K].  So the vertex of K is base ^ (K | req[K]).
    """
    m, meets = space.wall_count, space._meets_masks
    full = (1 << m) - 1
    far = full ^ base
    req = []
    for w in range(m):
        listed, comp = meets[2 * w | far >> w & 1]  # the pair of F_w
        # v's base side is its listed side where far has bit v, so
        # listed & far | comp & base are the walls whose base side meets F_w
        req.append(full ^ 1 << w ^ (listed & far | comp & base))
    yield base, 0
    for span in _cliques(full, space._crossing_masks, 1):
        flipped, rest = span, span
        while rest:
            low = rest & -rest
            rest ^= low
            flipped |= req[low.bit_length() - 1]
        yield base ^ flipped, span


def _span(walls: Iterable[int]) -> int:
    """The wall mask with bit w set for each given wall."""
    span = 0
    for w in walls:
        span |= 1 << w
    return span


def _cliques(cands: int, link: Sequence[int], min_size: int) -> Iterator[int]:
    """The span of every clique with at least min_size members among the
    candidate walls (a mask) in the graph whose neighbourhoods are the
    masks link[w], lazily, in lexicographic order of the sorted wall
    tuples, so each clique comes before its extensions.

    Each step takes the lowest remaining candidate w, narrows the rest to
    rest & link[w] and carries the span down, so a clique costs O(1) int
    operations on top of the one it extends, and link[w] is read after
    the clique ending in w is yielded, so a caller that stops at a
    clique reads nothing beyond it.  The cliques being extended wait on
    an explicit stack, not in recursion: a clique may have more walls
    than Python's recursion limit.
    """
    stack = [(0, 1, cands)]  # (span, size, rest) of the cliques to resume
    while stack:
        span, size, rest = stack.pop()
        while rest:
            low = rest & -rest
            rest ^= low
            nxt = span | low
            if size >= min_size:
                yield nxt
            compatible = rest & link[low.bit_length() - 1]
            if compatible:
                stack.append((span, size, rest))
                span, size, rest = nxt, size + 1, compatible


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
        # limit nonempty cliques, or one of more than depth walls (whose
        # nonempty subsets alone number limit or more), mean more than
        # limit vertices: O(limit) steps at most depth levels deep
        c, depth = [1] + [0] * space.wall_count, (limit - 1).bit_length()
        spans = _cliques((1 << space.wall_count) - 1, space._crossing_masks, 1)
        for n, span in enumerate(spans, 1):
            size = span.bit_count()
            if n >= limit or size > depth:
                return None
            c[size] += 1
        while not c[-1]:
            c.pop()
        f = space._f_counted = tuple(
            sum(comb(j, k) * c[j] for j in range(k, len(c))) for k in range(len(c))
        )
    return f if f[0] <= limit else None


def attach_cubes(X: CubeComplex) -> CubeComplex:
    """Register the cubes of the rule, keyed canonically, for a complex
    that has no registry; complex_to_dict calls it to write a file.

    Corners are enumerated at each cube's canonical vertex, so each cube
    is found once.  The cubes are not checked here: by Roller's
    flip criterion, flipping any subset of pairwise crossing walls that
    each flip admissibly keeps a section admissible, so every cube found
    at a corner of a built component lies in it.  check_flag relies on
    the same criterion to certify every registry it is given.
    """
    if X.cubes is not None:
        return X
    cross, m = X.space._crossing_masks, X.space.wall_count
    cubes: dict[int, dict[int, None]] = {}
    for vi, code in enumerate(X.codes):
        for span in _cliques(_span(X.adjacency[vi]) & ~code, cross, 2):
            cubes.setdefault(span.bit_count(), {})[code | span << m] = None
    X.cubes = {k: cubes[k] for k in sorted(cubes)}
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
    return max(X.cube_counts(), default=1 if X.edges else 0)


def _skeleton_fault(X: CubeComplex, f: tuple[int, ...] | None) -> str | None:
    """None when X's vertices and edges are the whole 1-skeleton of the
    dual complex, else a witness.  Tests, cheapest first: f_0 and f_1 of
    the count f (_f_count; None for more than V vertices) are V and E,
    the base is admissible, and X has every vertex listed from it
    (_vertices).  The listing then yields X's V codes, and each of the E
    edges flips one wall (the constructor checks it): the whole dual
    1-skeleton.  With f None it lists a code X lacks."""
    V, E, m, base = len(X.codes), len(X.edges), X.space.wall_count, X.codes[X.base]
    if f is not None and f[:2] != (V, E):
        return f"the complex has {V} vertices and {E} edges, the dual complex {f[0]} and {f[1]}"
    if not is_admissible(X.space, base):
        return f"vertex {X.base}: its section {encode_section(base, m)} is not admissible"
    for code, _ in _vertices(X.space, base):
        if code not in X.index:
            return f"the dual complex's vertex {encode_section(code, m)} is not in the complex"
    return None


def _certified(X: CubeComplex) -> bool:
    """True when X's registry and 1-skeleton (_skeleton_fault) are the
    dual complex's: the registry's sizes are the count, by keys 2..d,
    and every key of cubes[k] spans k pairwise crossing walls labelling
    edges at its vertex, which chooses their listed sides.  Every
    admissible flip being an edge, Roller's criterion (see attach_cubes)
    makes each key a cube of the dual with the key's vertex canonical,
    so the f_k distinct keys are all its k-cubes.  Edge walls are read
    only at vertices that keys name, crossing once per span."""
    f = _f_count(X.space, len(X.codes))
    # f_vector lists the registries in key order, so their keys must be 2..d
    if f != X.f_vector() or sorted(X.cubes) != [*range(2, len(f))] or _skeleton_fault(X, f):
        return False
    m, cross = X.space.wall_count, X.space._crossing_masks
    full = (1 << m) - 1
    closed: dict[int, int] = {}  # code -> the walls a span at it must avoid
    for k, registry in X.cubes.items():
        spans: set[int] = set()  # spans of k pairwise crossing walls
        for key in registry:
            code, span = key & full, key >> m
            if span not in spans:
                if span.bit_count() != k or not _pairwise_crossing(cross, span):
                    return False
                spans.add(span)
            avoid = closed.get(code)
            if avoid is None:
                avoid = closed[code] = ~_span(X.adjacency[X.index[code]]) | code
            if span & avoid:
                return False
    return True


def _pairwise_crossing(cross: Sequence[int], span: int) -> bool:
    """Whether each wall of span crosses (cross[w]) every higher one."""
    while span:
        low = span & -span
        span ^= low
        if span & ~cross[low.bit_length() - 1]:
            return False
    return True


def _missing_cube(X: CubeComplex) -> None:
    """Raise FlagViolation at the first vertex, in index order, with a set
    of two or more pairwise crossing walls labelling edges at it whose
    cube through it is not registered, the first such set in
    lexicographic order; else at the first registered cube not in X.

    In the dual complex every such set spans a cube (Roller's criterion,
    see attach_cubes).  _cliques gives each set before its extensions,
    so the walk stops at the first miss and extends registered cubes
    only: O(V + E) steps plus one lookup per corner that X registers.
    Each lookup counts a vertex for its key.  A key is found at exactly
    those vertices of its cube with edges on all its walls, and only
    when its walls cross and its vertex chooses their listed sides, so a
    key of cubes[k] is a cube of X when it spans k walls and is found at
    2^k vertices.
    """
    m, cubes, cross = X.space.wall_count, X.cubes, X.space._crossing_masks
    found = {key: 0 for registry in cubes.values() for key in registry}
    for vi, code in enumerate(X.codes):
        for span in _cliques(_span(X.adjacency[vi]), cross, 2):
            try:
                found[code & ~span | span << m] += 1
            except KeyError:
                walls = _bit_indices(span)
                raise FlagViolation(vi, walls, f"vertex {vi}: walls {list(walls)} cross and label "
                                    f"edges at it, but no {len(walls)}-cube is registered") from None
    full = (1 << m) - 1
    for k, registry in cubes.items():
        for key in registry:
            code, span, n = key & full, key >> m, found[key]
            if span.bit_count() != k:
                reason = f"it spans {span.bit_count()} walls"
            elif n == 1 << k:
                continue
            elif not _pairwise_crossing(cross, span):
                reason = "its walls do not cross"
            elif code & span:
                reason = "its vertex chooses a complement side"
            else:
                reason = f"it has edges on all its walls at only {n} of its {1 << k} vertices"
            vi, walls = X.index[code], _bit_indices(span)
            raise FlagViolation(vi, walls, f"vertex {vi}: the {k}-cube over walls {list(walls)} "
                                f"is not in the complex: {reason}")


def check_flag(X: CubeComplex) -> bool:
    """Certify that every vertex link is a flag complex and that every
    cube, registered or by rule, is a cube of the complex.

    A 1-skeleton that is the dual's (_skeleton_fault) is a median graph
    (Chepoi, "Graphs of some CAT(0) complexes", Adv. Appl. Math. 24,
    2000); with every cube filled, as by rule, it is CAT(0), so by
    Gromov's link condition every link is flag.  Without a registry that
    is the check, and a failure raises CertificateError with a witness.
    A registry that passes _certified is the dual's, in O(V + E +
    sum_k k f_k) in all.

    Any other registry must hold the cube spanned by every set of
    pairwise crossing walls labelling edges at a vertex, and have each
    registered cube at all 2^k of its vertices (_missing_cube).  Then it
    is the set of cubes by rule, which the loop suites rely on, and the
    links are flag: edges at a vertex with registered squares, which are
    then in X, have pairwise crossing walls, so their cube is registered
    too.  crossing(2) without its square has flag links but fails.  A
    missing, forged or misplaced cube fails with a witness.
    """
    if X.cubes is None:
        fault = _skeleton_fault(X, _f_count(X.space, len(X.codes)))
        if fault:
            raise CertificateError(fault)
    elif not _certified(X):
        _missing_cube(X)
    return True


# -- serialization ----------------------------------------------------------


def complex_to_dict(X: CubeComplex) -> dict:
    """The JSON form, with the registry, which attach_cubes builds when X
    has none; each cube key is decoded to [vertex, [walls]], sorted by
    vertex index, then wall tuple.  Cubes with the same span share one
    wall list, so each span is decoded once."""
    m, index, registries = X.space.wall_count, X.index, attach_cubes(X).cubes
    full = (1 << m) - 1
    vertices = [encode_section(c, m) for c in X.codes]
    walls_of: dict[int, list[int]] = {}
    cubes = {}
    for k in sorted(registries):
        entries = []
        for key in registries[k]:
            span = key >> m
            walls = walls_of.get(span)
            if walls is None:
                walls = walls_of[span] = list(_bit_indices(span))
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

    The edge list goes to the CubeComplex constructor unchanged, which
    checks it entry by entry.  Cube entries are checked for form and
    repeats, not completeness, so broken complexes can be loaded and
    then failed by check_flag.  An empty cube list registers nothing.
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
    base = decode_section(data["base"], m)
    if base not in codes:
        raise InputError("base encoding is not among the vertices")
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise InputError("'edges' must be a list of [u, v, wall] entries")
    X = CubeComplex(space, codes.index(base), codes, raw_edges)
    n = len(codes)
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
            if codes[b] | span << m in registry:
                raise InputError(f"cube entry {entry!r} is listed twice")
            registry[codes[b] | span << m] = None
        if registry:  # no dimension without a cube
            cubes[k] = registry
    X.cubes = {k: cubes[k] for k in sorted(cubes)}
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
