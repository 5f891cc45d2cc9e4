"""Group actions on a wall space and the induced action on its complex.

A generator is a point permutation sending half-spaces to half-spaces.
It induces a wall permutation with a per-wall side swap, and acts on a
section by relabelling: the image section chooses, on the image wall,
the image of the originally chosen side.

check_equivariance certifies this action on a complex in time linear
in the size of the complex, with no BFS.  It checks directly that the
generator's wall maps are the ones its point map induces (rerunning
validate_generator), that the vertex map stays in the component and
that edges go to edges.  The rest follows from those checks (Sageev
1995; Chepoi 2000): principal vertices go to principal vertices, vertex
images are admissible, the vertex map is injective, both metrics are
preserved and corners, hence cubes, go to corners; the argument is
spelled out in check_equivariance rather than recomputed.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Sequence

from .cubing import CubeComplex
from .errors import BudgetError, CertificateError, InputError
# unused here, but the benchmark's traced pass wraps principal_section in this module
from .sections import encode_section, is_admissible, principal_section
from .wallspace import WallSpace, _is_int

__all__ = [
    "Generator",
    "OrbitStabilizer",
    "NotBijective",
    "HalfSpaceNotPreserved",
    "EquivarianceViolation",
    "BudgetExceeded",
    "validate_generator",
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
    """A validated point permutation with its induced wall data.

    perm[p] is the image point of point p; wall_perm[i] is the image
    wall of wall i; side_swap[i] is 1 when the listed side of wall i maps
    onto the complement side of its image.  Both are functions of perm,
    and the checks that take a Generator rerun validate_generator to
    confirm them.  The inverse is not stored: orbit_and_stabilizer
    inverts the vertex map where it needs g^-1.
    """

    name: str
    perm: tuple[int, ...]
    wall_perm: tuple[int, ...]
    side_swap: tuple[int, ...]


def _apply_perm_to_mask(mask: int, perm: Sequence[int]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def validate_generator(space: WallSpace, perm: Sequence[int], name: str = "g") -> Generator:
    """Check bijectivity and half-space preservation, then derive the
    induced wall permutation and side swaps.  The space keeps the maps of
    each perm that passed, so checking it again, as check_equivariance
    and orbit_and_stabilizer do, is one lookup.  Only a perm of plain
    ints is looked up: True and 1.0 would find the entry of 1."""
    perm = tuple(perm)
    if {*map(type, perm)} == {int} and perm in space._induced:
        return Generator(name, perm, *space._induced[perm])
    n = space.point_count
    if len(perm) != n or not all(map(_is_int, perm)) or sorted(perm) != list(range(n)):
        raise NotBijective(f"{name}: not a permutation of 0..{n - 1}")
    mask_to_id = {space.mask(a): a for a in range(2 * space.wall_count)}
    wall_perm = []
    side_swap = []
    for w in range(space.wall_count):
        image = _apply_perm_to_mask(space.mask(2 * w), perm)
        a = mask_to_id.get(image)
        if a is None:
            raise HalfSpaceNotPreserved(
                f"{name}: the image of wall {w}'s listed side "
                f"{sorted(space.points_in(2 * w))} is not a half-space"
            )
        wall_perm.append(a >> 1)
        side_swap.append(a & 1)
    if sorted(wall_perm) != list(range(space.wall_count)):
        raise HalfSpaceNotPreserved(f"{name}: walls do not map bijectively")
    space._induced[perm] = (tuple(wall_perm), tuple(side_swap))
    return Generator(name, perm, tuple(wall_perm), tuple(side_swap))


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


def _image_code(gen: Generator, code: int, m: int) -> int:
    """The code of the image section: on each image wall, the image of
    the side the section of code chose on the source wall."""
    image = 0
    # as in is_admissible, the encoding spells the bits in wall order
    for j, swap, bit in zip(gen.wall_perm, gen.side_swap, encode_section(code, m)):
        if swap != (bit == "1"):
            image |= 1 << j
    return image


def act_on_section(space: WallSpace, gen: Generator, code: int) -> int:
    """The code of the image section, checked for admissibility; raises
    InputError unless code is a section code of the space's m walls."""
    m = space.wall_count
    image = _image_code(gen, code, m)
    if not is_admissible(space, image):
        raise EquivarianceViolation(
            f"{gen.name}: image of section {encode_section(code, m)} is not admissible"
        )
    return image


def _vertex_map(X: CubeComplex, gen: Generator) -> list[int]:
    """The index of each vertex's image; raises EquivarianceViolation at
    the first vertex whose image is not a vertex of X.  On codes the map
    is c -> P(c ^ S) and an edge flips exactly its wall's bit, so a vertex
    v with a neighbour u < v across wall w maps to u's image flipped on
    wall_perm[w]; only the others are mapped bit by bit: O(V + E)."""
    m, codes, index, perm = X.space.wall_count, X.codes, X.index, gen.wall_perm
    gv: list[int] = []
    for v, adj in enumerate(X.adjacency):
        for w, u in adj.items():
            if u < v:
                image = codes[gv[u]] ^ 1 << perm[w]
                break
        else:
            image = _image_code(gen, codes[v], m)
        i = index.get(image)
        if i is None:
            raise EquivarianceViolation(f"{gen.name}: image of vertex {v} leaves the component")
        gv.append(i)
    return gv


def _check_induced(space: WallSpace, gen: Generator) -> Generator:
    """validate_generator(space, gen.perm, gen.name), once gen's wall_perm
    and side_swap equal its maps (a Generator can be built without it).
    Equality implies that perm and wall_perm are permutations, the swaps
    are bits and g sends side b of wall w onto side b ^ S_w of wall_perm[w],
    so sig[g.p] = P(sig[p] ^ S), with P moving bit w to bit wall_perm[w]:
    principal sections go to principal sections.  Callers use the copy, whose maps are ints."""
    try:
        valid = validate_generator(space, gen.perm, gen.name)
    except InputError as exc:
        raise EquivarianceViolation(str(exc)) from None
    for label, given, induced in (
        ("wall_perm", gen.wall_perm, valid.wall_perm),
        ("side_swap", gen.side_swap, valid.side_swap),
    ):
        if tuple(given) != induced:
            raise EquivarianceViolation(
                f"{gen.name}: {label} is {tuple(given)}, but perm induces {induced}"
            )
    return valid


def check_equivariance(space: WallSpace, X: CubeComplex, gen: Generator) -> dict:
    """Certify the induced action on the complex in linear time.

    Checked directly: the generator's wall permutation and side swaps
    are the ones its point permutation induces (_check_induced); the
    vertex map stays in the component; edges map to edges with
    relabelled walls.  Implied, and argued in the comments below rather
    than recomputed: principal vertices map to the principal vertices of
    the image points, vertex images are admissible, the vertex map is
    injective, the wall pseudo-metric and the edge-path metric are
    preserved on all pairs, and corners, hence cubes, map to corners.
    Costs O(n*m + V + E) time and O(V) memory.  Returns a summary of
    what was checked; raises EquivarianceViolation with a witness
    otherwise.
    """
    gen = _check_induced(space, gen)
    name = gen.name
    # Wall distance.  _check_induced gives sig[g.p] = P(sig[p] ^ S) for
    # every point p, with P a bit permutation, so sig[g.p] ^ sig[g.q] =
    # P(sig[p] ^ sig[q]) has the same popcount as sig[p] ^ sig[q]:
    # wall_distance(g.p, g.q) = wall_distance(p, q).
    #
    # Admissibility.  The point bijection g maps wall w's side b onto
    # wall_perm[w]'s side b ^ S_w, so disjoint sides go to disjoint sides
    # and the images of admissible sections need no test.
    # Injectivity.  On codes the vertex map is c -> P(c ^ S).
    gv = _vertex_map(X, gen)
    for u, v, w in X.edges:
        w2 = gen.wall_perm[w]
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
    # four quadrants of (i, j).  By _check_induced their images lie
    # in the four matching quadrants of (g.i, g.j), so g.i and g.j cross;
    # crossing walls go to crossing walls.  A corner is a vertex with
    # pairwise crossing walls that flip there, i.e. label edges at it;
    # the edge check maps those edges to edges at the image vertex with
    # the image walls, so corners go to corners, injectively because gv
    # and wall_perm are injective.
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
    generator's wall maps are not the ones its perm induces (as in
    check_equivariance) or it sends a vertex out of the component, and
    BudgetExceeded when the word enumeration grows past max_words.
    """
    start = X.index_of(vertex)
    generators = [_check_induced(space, g) for g in generators]
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
    # Once _check_induced has accepted wall_perm, c -> P(c ^ S) is
    # injective (see check_equivariance), so a vertex map that stays in
    # the finite component permutes it.  g^-1 acts by the inverse
    # permutation.
    symbols: list[tuple[str, list[int]]] = []
    for g in generators:
        gv = _vertex_map(X, g)
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
