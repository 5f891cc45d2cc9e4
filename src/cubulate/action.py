"""Group actions on a wall space and the induced action on its complex.

A generator is a point permutation sending half-spaces to half-spaces.
It induces a wall permutation with a per-wall side swap, and acts on a
section by relabelling: the image section chooses, on the image wall,
the image of the originally chosen side.  check_equivariance certifies
that this action takes principal vertices to principal vertices, edges
to edges, preserves both metrics exactly and permutes corners and
cubes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cubing import CubeComplex, _cliques, _cube_key
from .errors import BudgetError, CertificateError, InputError
from .sections import Section, is_admissible, principal_section
from .wallspace import WallSpace

__all__ = [
    "Generator",
    "OrbitStabilizer",
    "NotBijective",
    "HalfSpaceNotPreserved",
    "EquivarianceViolation",
    "BudgetExceeded",
    "validate_generator",
    "inverse_generator",
    "load_generators",
    "act_on_point",
    "act_on_wall",
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


@dataclass(frozen=True)
class Generator:
    """A validated point permutation with its induced wall data.

    wall_perm[i] is the image wall of wall i; side_swap[i] is 1 when the
    listed side of wall i maps onto the complement side of its image.
    """

    name: str
    perm: tuple[int, ...]
    wall_perm: tuple[int, ...]
    side_swap: tuple[int, ...]
    inverse_perm: tuple[int, ...]


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
    if len(perm) != n or any(
        isinstance(p, bool) or not isinstance(p, int) for p in perm
    ) or sorted(perm) != list(range(n)):
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
    inverse = [0] * n
    for p, q in enumerate(perm):
        inverse[q] = p
    return Generator(
        name=name,
        perm=perm,
        wall_perm=tuple(wall_perm),
        side_swap=tuple(side_swap),
        inverse_perm=tuple(inverse),
    )


def inverse_generator(space: WallSpace, gen: Generator) -> Generator:
    return validate_generator(space, gen.inverse_perm, name=gen.name + "^-1")


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
        if name in seen:
            raise InputError(f"generator name {name!r} appears twice")
        seen.add(name)
        if not isinstance(entry["perm"], list):
            raise InputError(f"generator {name}: 'perm' must be a list")
        out.append(validate_generator(space, entry["perm"], name))
    return out


def act_on_point(gen: Generator, p: int) -> int:
    return gen.perm[p]


def act_on_wall(gen: Generator, w: int) -> int:
    return gen.wall_perm[w]


def act_on_section(space: WallSpace, gen: Generator, s: Section) -> Section:
    """The image section: on each image wall, the image of the side the
    original section chose on the source wall."""
    image = 0
    # as in is_admissible, the encoding spells the bits in wall order
    for j, swap, bit in zip(gen.wall_perm, gen.side_swap, s.encode()):
        if swap != (bit == "1"):
            image |= 1 << j
    t = Section.from_code(image, space.wall_count)
    if not is_admissible(space, t):
        raise EquivarianceViolation(
            f"{gen.name}: image of section {s.encode()} is not admissible"
        )
    return t


def check_equivariance(space: WallSpace, X: CubeComplex, gen: Generator) -> dict:
    """Certify the induced action on the complex, exhaustively.

    Checks: principal vertices map to principal vertices of image
    points, edges map to edges with relabelled walls, the wall pseudo-metric and
    the edge-path metric are preserved on all pairs, and corners and
    cubes are permuted.  Returns a summary of what was checked; raises
    EquivarianceViolation with a witness otherwise.
    """
    name = gen.name
    for p in range(space.point_count):
        expected = principal_section(space, gen.perm[p])
        got = act_on_section(space, gen, principal_section(space, p))
        if got != expected:
            raise EquivarianceViolation(
                f"{name}: point {p}: image of its principal section is "
                f"{got.encode()}, expected {expected.encode()}"
            )
    gv = []
    for i, s in enumerate(X.vertices):
        j = X.find(act_on_section(space, gen, s))
        if j is None:
            raise EquivarianceViolation(
                f"{name}: image of vertex {i} leaves the component"
            )
        gv.append(j)
    if len(set(gv)) != len(gv):
        raise EquivarianceViolation(f"{name}: the action is not injective on vertices")
    for u, v, w in X.edges:
        w2 = gen.wall_perm[w]
        if X.adjacency[gv[u]].get(w2) != gv[v]:
            raise EquivarianceViolation(
                f"{name}: edge ({u},{v}) on wall {w} has no image edge on wall {w2}"
            )
    for p in range(space.point_count):
        for q in range(p + 1, space.point_count):
            d = space.wall_distance(p, q)
            gd = space.wall_distance(gen.perm[p], gen.perm[q])
            if d != gd:
                raise EquivarianceViolation(
                    f"{name}: wall distance of ({p},{q}) is {d}, of images {gd}"
                )
    rows = [X.distances_from_index(i) for i in range(len(X.vertices))]
    for u in range(len(X.vertices)):
        ru, rgu = rows[u], rows[gv[u]]
        for v in range(len(X.vertices)):
            if ru[v] != rgu[gv[v]]:
                raise EquivarianceViolation(
                    f"{name}: edge-path distance of ({u},{v}) is {ru[v]}, "
                    f"of images {rgu[gv[v]]}"
                )
    cross = space._crossing_masks
    corners = set()
    for vi in range(len(X.vertices)):
        incident = sorted(X.adjacency[vi])
        for clique in _cliques(incident, cross, 2):
            corners.add((vi, clique))
    for vi, walls in corners:
        image = (gv[vi], tuple(sorted(gen.wall_perm[w] for w in walls)))
        if image not in corners:
            raise EquivarianceViolation(
                f"{name}: corner at vertex {vi} over walls {list(walls)} "
                f"has no image corner"
            )
    cube_total = 0
    for k, registry in X.cubes.items():
        for b, walls in registry:
            image_walls = tuple(sorted(gen.wall_perm[w] for w in walls))
            image_key = _cube_key(X, gv[b], image_walls)
            if image_key is None or image_key not in X.cubes.get(k, {}):
                raise EquivarianceViolation(
                    f"{name}: {k}-cube at vertex {b} over walls {list(walls)} "
                    f"has no image cube"
                )
            cube_total += 1
    return {
        "generator": name,
        "points": space.point_count,
        "vertices": len(X.vertices),
        "edges": len(X.edges),
        "corners": len(corners),
        "cubes": cube_total,
    }


@dataclass(frozen=True)
class OrbitStabilizer:
    vertex: int
    orbit: tuple[int, ...]
    stabilizer_words: tuple[tuple[str, ...], ...]
    word_length: int


def _formal_inverse(name: str) -> str:
    return name[: -len("^-1")] if name.endswith("^-1") else name + "^-1"


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

    Inverses are adjoined automatically (skipped for involutions).
    Raises BudgetExceeded when the word enumeration grows past
    max_words.
    """
    start = X.index_of(vertex)
    symbols: list[tuple[str, Generator]] = []
    for g in generators:
        symbols.append((g.name, g))
        if g.inverse_perm != g.perm:
            symbols.append((g.name + "^-1", inverse_generator(space, g)))
    if not symbols:
        raise InputError("at least one generator is required")
    maps = {
        name: [X.index_of(act_on_section(space, g, s)) for s in X.vertices]
        for name, g in symbols
    }
    orbit = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for name, _ in symbols:
            v = maps[name][u]
            if v not in orbit:
                orbit.add(v)
                queue.append(v)
    explored = 0
    words: list[tuple[str, ...]] = []
    frontier: list[tuple[tuple[str, ...], int]] = [((), start)]
    for _ in range(word_length):
        nxt = []
        for word, at in frontier:
            for name, _ in symbols:
                if word and _formal_inverse(word[-1]) == name:
                    continue
                explored += 1
                if explored > max_words:
                    raise BudgetExceeded(
                        f"word enumeration exceeded the budget of {max_words}"
                    )
                w2 = word + (name,)
                at2 = maps[name][at]
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
