"""Group actions on a wall space and the induced action on its complex.

A generator is a point permutation sending half-spaces to half-spaces.
It induces a wall permutation P and a side swap S (Sageev 1995): P
moves wall w to wall P[w], and bit w of S is set when wall w's listed
side lands on the complement of its image.  validate_generator derives
them once per perm and keeps them on the space; induced_maps reads them.  On section codes the generator acts by c -> P(c ^ S), the
image section choosing, on each image wall, the image of the originally
chosen side; wallspace._permute_bits applies P.

check_equivariance certifies this action on a complex in time linear
in the size of the complex, with no BFS.  It checks directly that the
generator's perm is valid (P and S are then its maps by construction),
that the vertex map stays in the component and that edges go to edges.
The rest follows from those checks (Sageev 1995; Chepoi 2000):
principal vertices go to principal vertices, vertex images are
admissible, the vertex map is injective, both metrics are preserved
and corners, hence cubes, go to corners; the argument is spelled out
in check_equivariance rather than recomputed.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Sequence

from .cubing import CubeComplex
from .errors import BudgetError, CertificateError, InputError
# unused here, but the benchmark's traced pass wraps principal_section in this module
from .sections import encode_section, is_admissible, principal_section
from .wallspace import WallSpace, _is_int, _permute_bits

__all__ = [
    "Generator",
    "OrbitStabilizer",
    "NotBijective",
    "HalfSpaceNotPreserved",
    "EquivarianceViolation",
    "BudgetExceeded",
    "validate_generator",
    "induced_maps",
    "load_generators",
    "act_on_section",
    "check_equivariance",
    "orbit_and_stabilizer",
]


class NotBijective(InputError):
    """The point map is not a permutation."""


class HalfSpaceNotPreserved(InputError):
    """The image of some half-space is not in the family."""


class EquivarianceViolation(CertificateError):
    """The induced action broke one of the certified properties."""


class BudgetExceeded(BudgetError):
    """Word enumeration grew past the configured budget."""


class Generator(NamedTuple):
    """A point permutation: perm[p] is the image point of point p.

    Its wall maps are not stored: induced_maps derives them from perm
    once per space.  The inverse is not stored either:
    orbit_and_stabilizer inverts the vertex map where it needs g^-1.
    """

    name: str
    perm: tuple[int, ...]


def validate_generator(space: WallSpace, perm: Sequence[int], name: str = "g") -> Generator:
    """Check bijectivity and half-space preservation, then derive the
    induced wall permutation and side swap.  The space keeps the maps of
    each perm that passed, so checking it again, as induced_maps does, is
    one lookup.  Only a perm of plain ints is looked up: True and 1.0
    would find the entry of 1."""
    perm = tuple(perm)
    if {*map(type, perm)} == {int} and perm in space._induced:
        return Generator(name, perm)
    n = space.point_count
    if len(perm) != n or not all(map(_is_int, perm)) or sorted(perm) != list(range(n)):
        raise NotBijective(f"{name}: not a permutation of 0..{n - 1}")
    mask_to_id = {space.mask(a): a for a in range(2 * space.wall_count)}
    wall_perm = []
    swap = 0
    for w in range(space.wall_count):
        a = mask_to_id.get(_permute_bits(space.mask(2 * w), perm))
        if a is None:
            raise HalfSpaceNotPreserved(
                f"{name}: the image of wall {w}'s listed side "
                f"{sorted(space.points_in(2 * w))} is not a half-space"
            )
        wall_perm.append(a >> 1)
        swap |= (a & 1) << w
    if sorted(wall_perm) != list(range(space.wall_count)):
        raise HalfSpaceNotPreserved(f"{name}: walls do not map bijectively")
    space._induced[perm] = (tuple(wall_perm), swap)
    return Generator(name, perm)


def induced_maps(space: WallSpace, gen: Generator) -> tuple[tuple[int, ...], int]:
    """(P, S) of gen on the space: P[w] is the image wall of wall w, and
    bit w of S is set when wall w's listed side maps onto the complement
    of its image.  A Generator can be built without validate_generator,
    so this runs it (one lookup for a perm that passed) and raises
    EquivarianceViolation with its witness when perm is not valid.

    A valid perm sends side b of wall w onto side b ^ S_w of wall P[w],
    so sig[g.p] = P(sig[p] ^ S) for every point p, with P moving bit w
    to bit P[w]: principal sections go to principal sections."""
    try:
        perm = validate_generator(space, gen.perm, gen.name).perm
    except InputError as exc:
        raise EquivarianceViolation(str(exc)) from None
    return space._induced[perm]


def load_generators(space: WallSpace, data: object) -> list[Generator]:
    """Parse {"generators": [{"name": ..., "perm": [...]}, ...]}."""
    if not isinstance(data, dict) or "generators" not in data:
        raise InputError("generator input must be an object with a 'generators' list")
    raw = data["generators"]
    if not isinstance(raw, list) or not raw:
        raise InputError("'generators' must be a nonempty list")
    out = []
    seen = set()
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "name" not in entry or "perm" not in entry:
            raise InputError(f"generator {i} must have 'name' and 'perm'")
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise InputError(f"generator {i}: name must be a nonempty string")
        # words are printed space-separated and inverses are named g^-1
        if name.endswith("^-1") or any(c.isspace() for c in name):
            raise InputError(
                f"generator {i}: name {name!r} may not end in '^-1' or contain whitespace"
            )
        if name in seen:
            raise InputError(f"generator name {name!r} appears twice")
        seen.add(name)
        if not isinstance(entry["perm"], list):
            raise InputError(f"generator {name}: 'perm' must be a list")
        out.append(validate_generator(space, entry["perm"], name))
    return out


def act_on_section(space: WallSpace, gen: Generator, code: int) -> int:
    """The code of the image section, checked for admissibility; raises
    InputError unless code is a section code of the space's m walls."""
    # checked first: _permute_bits never ends on a negative int
    text = encode_section(code, space.wall_count)
    P, S = induced_maps(space, gen)
    image = _permute_bits(code ^ S, P)
    if not is_admissible(space, image):
        raise EquivarianceViolation(f"{gen.name}: image of section {text} is not admissible")
    return image


def _vertex_map(X: CubeComplex, name: str, P: tuple[int, ...], S: int) -> list[int]:
    """The index of each vertex's image under c -> P(c ^ S); raises
    EquivarianceViolation at the first vertex whose image is not a vertex
    of X.  An edge flips exactly its wall's bit, so a vertex v with a
    neighbour u < v across wall w maps to u's image flipped on P[w]; only
    the others are mapped bit by bit: O(V + E)."""
    codes, index = X.codes, X.index
    gv: list[int] = []
    for v, adj in enumerate(X.adjacency):
        for w, u in adj.items():
            if u < v:
                image = codes[gv[u]] ^ 1 << P[w]
                break
        else:
            image = _permute_bits(codes[v] ^ S, P)
        i = index.get(image)
        if i is None:
            raise EquivarianceViolation(f"{name}: image of vertex {v} leaves the component")
        gv.append(i)
    return gv


def check_equivariance(space: WallSpace, X: CubeComplex, gen: Generator) -> dict:
    """Certify the induced action on the complex in linear time.

    Checked directly: the generator's perm is valid, so P and S are its
    induced maps (induced_maps); the vertex map c -> P(c ^ S) stays in
    the component; edges map to edges with relabelled walls.  Implied,
    and argued in the comments below rather than recomputed: principal
    vertices map to the principal vertices of the image points, vertex
    images are admissible, the vertex map is injective, the wall
    pseudo-metric and the edge-path metric are preserved on all pairs,
    and corners, hence cubes, map to corners.  Costs O(n*m + V + E) time
    and O(V) memory.  Returns a summary of what was checked; raises
    EquivarianceViolation with a witness otherwise.
    """
    P, S = induced_maps(space, gen)
    name = gen.name
    # Wall distance.  induced_maps gives sig[g.p] = P(sig[p] ^ S) for
    # every point p, with P a bit permutation, so sig[g.p] ^ sig[g.q] =
    # P(sig[p] ^ sig[q]) has the same popcount as sig[p] ^ sig[q]:
    # wall_distance(g.p, g.q) = wall_distance(p, q).
    #
    # Admissibility.  The point bijection g maps wall w's side b onto
    # wall P[w]'s side b ^ S_w, so disjoint sides go to disjoint sides
    # and the images of admissible sections need no test.
    # Injectivity.  c -> P(c ^ S) is a bijection of the m-bit codes.
    gv = _vertex_map(X, name, P, S)
    for u, v, w in X.edges:
        w2 = P[w]
        if X.adjacency[gv[u]].get(w2) != gv[v]:
            raise EquivarianceViolation(
                f"{name}: edge ({u},{v}) on wall {w} has no image edge on wall {w2}"
            )
    # Edge-path distance.  gv is an injective self-map of the finite
    # vertex set, hence a bijection.  It sends each edge to an edge, and
    # distinct edges (distinct endpoint pairs) to distinct edges, so it
    # is a bijection on the finite edge set too.  A bijection on vertices
    # and on edges is a graph automorphism of the 1-skeleton (a median
    # graph, Chepoi 2000), and automorphisms preserve the path metric.
    #
    # Corners.  If walls i and j cross, some points lie in each of the
    # four quadrants of (i, j).  g maps sides onto sides, so their images
    # lie in the four matching quadrants of (P[i], P[j]), and P[i] and
    # P[j] cross; crossing walls go to crossing walls.  A corner is a
    # vertex with pairwise crossing walls that flip there, i.e. label
    # edges at it; the edge check maps those edges to edges at the image
    # vertex with the image walls, so corners go to corners, injectively
    # because gv and P are injective.
    #
    # A cube is spanned by the walls of one of its corners, so cubes go to
    # cubes.  A k-cube has 2^k corners, one per vertex, so the corners are
    # counted from the cube counts (CubeComplex.cube_counts), not listed.
    counts = X.cube_counts()
    return {
        "generator": name,
        "points": space.point_count,
        "vertices": len(X.codes),
        "edges": len(X.edges),
        "corners": sum((1 << k) * n for k, n in counts.items()),
        "cubes": sum(counts.values()),
    }


class OrbitStabilizer(NamedTuple):
    vertex: int
    orbit: tuple[int, ...]
    stabilizer_words: tuple[tuple[str, ...], ...]
    word_length: int


def orbit_and_stabilizer(
    space: WallSpace,
    X: CubeComplex,
    generators: Iterable[Generator],
    vertex: int,
    word_length: int = 4,
    max_words: int = 200_000,
) -> OrbitStabilizer:
    """Orbit of a vertex under the generated group, with the stabilizer
    described by all generator words up to the given length fixing it.

    Inverses are adjoined automatically (skipped for involutions) under
    the name g^-1.  Raises InputError when two generators, adjoined
    inverses included, share a name, EquivarianceViolation when a
    generator's perm is not valid (as in check_equivariance) or it sends
    a vertex out of the component, and BudgetExceeded when the word
    enumeration grows past max_words.
    """
    start = X.index_of(vertex)
    generators = list(generators)
    maps = [induced_maps(space, g) for g in generators]
    names: list[str] = []
    inverse_of: dict[str, str] = {}
    for g in generators:
        names.append(g.name)
        if any(g.perm[q] != p for p, q in enumerate(g.perm)):  # not an involution
            inverse = g.name + "^-1"
            names.append(inverse)
            inverse_of[g.name], inverse_of[inverse] = inverse, g.name
    if not names:
        raise InputError("at least one generator is required")
    if len(set(names)) != len(names):
        raise InputError(f"generator names clash, adjoined inverses included: {names}")
    # c -> P(c ^ S) is injective (see check_equivariance), so a vertex map
    # that stays in the finite component permutes it.  g^-1 acts by the
    # inverse permutation.
    symbols: list[tuple[str, list[int]]] = []
    for g, (P, S) in zip(generators, maps):
        gv = _vertex_map(X, g.name, P, S)
        symbols.append((g.name, gv))
        if g.name in inverse_of:
            inverse = [0] * len(gv)
            for v, image in enumerate(gv):
                inverse[image] = v
            symbols.append((inverse_of[g.name], inverse))
    orbit = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for _, vertex_map in symbols:
            v = vertex_map[u]
            if v not in orbit:
                orbit.add(v)
                queue.append(v)
    explored = 0
    words: list[tuple[str, ...]] = []
    frontier: list[tuple[tuple[str, ...], int]] = [((), start)]
    for _ in range(word_length):
        nxt = []
        for word, at in frontier:
            for name, vertex_map in symbols:
                if word and inverse_of.get(word[-1]) == name:
                    continue
                explored += 1
                if explored > max_words:
                    raise BudgetExceeded(
                        f"word enumeration exceeded the budget of {max_words}"
                    )
                w2 = word + (name,)
                at2 = vertex_map[at]
                if at2 == start:
                    words.append(w2)
                nxt.append((w2, at2))
        frontier = nxt
    return OrbitStabilizer(
        vertex=start,
        orbit=tuple(sorted(orbit)),
        stabilizer_words=tuple(words),
        word_length=word_length,
    )
