"""Group actions on a wall space and the induced action on its complex.

A generator is a point permutation sending half-spaces to half-spaces.
It induces a wall permutation with a per-wall side swap, and acts on a
section by relabelling: the image section chooses, on the image wall,
the image of the originally chosen side.

check_equivariance certifies this action on a complex in time linear
in the size of the complex, with no BFS.  It checks directly that the
generator's maps are permutations, that principal vertices go to the
principal vertices of the image points, that the vertex map stays in
the component, that edges go to edges and that cubes go to registered
cubes.  That vertex images are admissible and the vertex map is
injective, that the wall pseudo-metric and the edge-path metric are
preserved and that corners go to corners follows from those checks
(Sageev 1995; Chepoi 2000); the argument is spelled out in
check_equivariance rather than recomputed.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Sequence

from .cubing import CubeComplex, _walls
from .errors import BudgetError, CertificateError, InputError
from .sections import Section, _check_section, is_admissible, principal_section
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
    onto the complement side of its image.  The inverse is not stored:
    orbit_and_stabilizer inverts the vertex map where it needs g^-1.
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
    induced wall permutation and side swaps."""
    perm = tuple(perm)
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


def _image_code(gen: Generator, s: Section) -> int:
    """The code of the image section: on each image wall, the image of
    the side s chose on the source wall."""
    image = 0
    # as in is_admissible, the encoding spells the bits in wall order
    for j, swap, bit in zip(gen.wall_perm, gen.side_swap, s.encode()):
        if swap != (bit == "1"):
            image |= 1 << j
    return image


def act_on_section(space: WallSpace, gen: Generator, s: Section) -> Section:
    """The image section, checked for admissibility; raises InputError
    when s has the wrong number of walls."""
    _check_section(space, s)
    t = Section.from_code(_image_code(gen, s), space.wall_count)
    if not is_admissible(space, t):
        raise EquivarianceViolation(
            f"{gen.name}: image of section {s.encode()} is not admissible"
        )
    return t


def _vertex_map(X: CubeComplex, gen: Generator) -> list[int]:
    """The index of each vertex's image; raises EquivarianceViolation at
    the first vertex whose image is not a vertex of X."""
    m = X.space.wall_count
    gv = [X._index.get(_image_code(gen, Section.from_code(c, m))) for c in X.codes]
    if None in gv:
        raise EquivarianceViolation(
            f"{gen.name}: image of vertex {gv.index(None)} leaves the component"
        )
    return gv


def _check_permutation(name: str, label: str, values: Sequence[int], size: int) -> None:
    """Raise EquivarianceViolation unless values permute 0..size-1."""
    if len(values) != size:
        raise EquivarianceViolation(
            f"{name}: {label} has {len(values)} entries, expected {size}"
        )
    first = [-1] * size
    for i, x in enumerate(values):
        if not _is_int(x) or not 0 <= x < size:
            raise EquivarianceViolation(
                f"{name}: {label}[{i}] = {x!r} is not in 0..{size - 1}"
            )
        if first[x] >= 0:
            raise EquivarianceViolation(
                f"{name}: {label}[{first[x]}] and {label}[{i}] are both {x}"
            )
        first[x] = i


def _check_generator(space: WallSpace, gen: Generator) -> None:
    """The structure the implied checks of check_equivariance and the
    word search of orbit_and_stabilizer rest on: perm and wall_perm are
    permutations and every side swap is 0 or 1.  A Generator can be
    built without validate_generator, so this is checked, not assumed."""
    _check_permutation(gen.name, "perm", gen.perm, space.point_count)
    _check_permutation(gen.name, "wall_perm", gen.wall_perm, space.wall_count)
    if len(gen.side_swap) != space.wall_count:
        raise EquivarianceViolation(
            f"{gen.name}: side_swap has {len(gen.side_swap)} entries, "
            f"expected {space.wall_count}"
        )
    for w, swap in enumerate(gen.side_swap):
        if isinstance(swap, bool) or swap not in (0, 1):
            raise EquivarianceViolation(
                f"{gen.name}: side_swap[{w}] = {swap!r} is not 0 or 1"
            )


def check_equivariance(space: WallSpace, X: CubeComplex, gen: Generator) -> dict:
    """Certify the induced action on the complex in linear time.

    Checked directly: the generator's point and wall maps are
    permutations and its side swaps are bits; principal vertices map to
    the principal vertices of the image points; the vertex map stays in
    the component; edges map to edges with relabelled walls; cubes map
    to registered cubes.  Implied, and argued in the comments below
    rather than recomputed: vertex images are admissible, the vertex map
    is injective, the wall pseudo-metric and the edge-path metric are
    preserved on all pairs, and corners map to corners.  Costs
    O(n*m + V*m + E + sum_k k*f_k) time and O(V) memory.
    Returns a summary of what was checked; raises EquivarianceViolation
    with a witness otherwise.
    """
    name, m = gen.name, space.wall_count
    _check_generator(space, gen)
    # an image equal to a principal section is admissible, so no image
    # Section is built or tested
    for p in range(space.point_count):
        got = _image_code(gen, principal_section(space, p))
        expected = space._signatures[gen.perm[p]]
        if got != expected:
            raise EquivarianceViolation(
                f"{name}: point {p}: image of its principal section is "
                f"{Section.from_code(got, m).encode()}, "
                f"expected {Section.from_code(expected, m).encode()}"
            )
    # Wall distance.  The loop above proves sig[g.p] = P(sig[p]) ^ S for
    # every point p, where P moves bit w to bit wall_perm[w] (a bit
    # permutation, by _check_generator) and S is the swap mask.  So
    # sig[g.p] ^ sig[g.q] = P(sig[p] ^ sig[q]) has the same popcount as
    # sig[p] ^ sig[q]: wall_distance(g.p, g.q) = wall_distance(p, q).
    #
    # Admissibility.  By the same identity the point bijection g maps wall
    # w's side b onto wall_perm[w]'s side b ^ S_w, so disjoint sides go to
    # disjoint sides and the images of admissible sections need no test.
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
    # four quadrants of (i, j).  By the principal check their images lie
    # in the four matching quadrants of (g.i, g.j), so g.i and g.j cross;
    # crossing walls go to crossing walls.  A corner is a vertex with
    # pairwise crossing walls that flip there, i.e. label edges at it;
    # the edge check maps those edges to edges at the image vertex with
    # the image walls, so corners go to corners, injectively because gv
    # and wall_perm are injective.
    #
    # Cubes.  The image of the cube keyed code | span << m is the cube
    # through the image vertex spanned by the image walls; wall_perm is a
    # permutation, so the image lies in the same registry.
    full = (1 << m) - 1
    cube_total = 0
    for k, registry in X.cubes.items():
        for key in registry:
            b, walls, image = X._index[key & full], _walls(key >> m), 0
            for w in walls:
                image |= 1 << gen.wall_perm[w]
            if (X.codes[gv[b]] & ~image | image << m) not in registry:
                raise EquivarianceViolation(
                    f"{name}: {k}-cube at vertex {b} over walls {list(walls)} "
                    f"has no image cube"
                )
            cube_total += 1
    # Every corner of a complex built by attach_cubes spans exactly one
    # registered cube, and a k-cube has 2^k corners (one per vertex), so
    # the corners are counted from the registry, not enumerated.
    corners = sum((1 << k) * len(registry) for k, registry in X.cubes.items())
    return {
        "generator": name,
        "points": space.point_count,
        "vertices": len(X.codes),
        "edges": len(X.edges),
        "corners": corners,
        "cubes": cube_total,
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
    vertex: "Section | int",
    word_length: int = 4,
    max_words: int = 200_000,
) -> OrbitStabilizer:
    """Orbit of a vertex under the generated group, with the stabilizer
    described by all generator words up to the given length fixing it.

    Inverses are adjoined automatically (skipped for involutions) under
    the name g^-1.  Raises InputError when two generators, adjoined
    inverses included, share a name, EquivarianceViolation when a
    generator is not well formed (as in check_equivariance) or sends a
    vertex out of the component, and BudgetExceeded when the word
    enumeration grows past max_words.
    """
    start = X.index_of(vertex)
    generators = list(generators)
    names: list[str] = []
    inverse_of: dict[str, str] = {}
    for g in generators:
        _check_generator(space, g)
        names.append(g.name)
        if any(g.perm[q] != p for p, q in enumerate(g.perm)):  # not an involution
            inverse = g.name + "^-1"
            names.append(inverse)
            inverse_of[g.name], inverse_of[inverse] = inverse, g.name
    if not names:
        raise InputError("at least one generator is required")
    if len(set(names)) != len(names):
        raise InputError(f"generator names clash, adjoined inverses included: {names}")
    # Once _check_generator has accepted wall_perm, c -> P(c ^ S) is
    # injective (see check_equivariance), so a vertex map that stays in
    # the finite component permutes it.  g^-1 acts by the inverse
    # permutation: the vertices sorted by their images under g.
    symbols: list[tuple[str, list[int]]] = []
    for g in generators:
        gv = _vertex_map(X, g)
        symbols.append((g.name, gv))
        if g.name in inverse_of:
            symbols.append((inverse_of[g.name], sorted(range(len(gv)), key=gv.__getitem__)))
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
