"""Deterministic generators for model wall spaces.

Four families: coordinate walls on a binary cube (everything crosses),
nested half-lines on a segment (nothing crosses), subtree walls on the
nodes' leaf sets of a rooted tree, and the three line families of a
triangular lattice patch, whose complex embeds into the integer grid.
"""

from __future__ import annotations

from math import log10
from typing import NamedTuple

from .errors import InputError
from .wallspace import WallSpace, _is_int

__all__ = [
    "SizeOutOfRange",
    "Cell",
    "TriangleLattice",
    "gen_crossing",
    "gen_nested",
    "gen_tree",
    "gen_triangle_lattice",
    "triangle_lattice",
    "FAMILIES",
]


class SizeOutOfRange(InputError):
    """A family parameter is outside its supported range."""


def _shown(value: int) -> str:
    """value as a refusal prints it, or its size where Python will not
    print an int of that many digits (4300 by default)."""
    try:
        return f"{value}"
    except ValueError:
        sign = "negative " if value < 0 else ""
        return f"<{sign}int of {value.bit_length()} bits>"


def _check_int(value: int, name: str) -> int:
    if not _is_int(value):
        raise SizeOutOfRange(f"{name} must be an integer, got {value!r}")
    return value


def gen_crossing(n: int) -> WallSpace:
    """Points {0,1}^n, one wall per coordinate, listed side where the
    coordinate is 0.  All walls pairwise cross; the complex is one
    n-cube.  1 <= n <= 15."""
    _check_int(n, "n")
    if not 1 <= n <= 15:
        raise SizeOutOfRange(f"crossing size n must be in 1..15, got {_shown(n)}")
    points = 1 << n
    walls = [
        [p for p in range(points) if not p >> i & 1] for i in range(n)
    ]
    return WallSpace(points, walls)


def gen_nested(n: int) -> WallSpace:
    """Points 0..n with the nested walls {x >= i} for i = 1..n.  No two
    walls cross; the complex is a path with n+1 vertices.  1 <= n <= 4095,
    so at most 4096 points, as for the tree family; the bound is checked
    before any of the n wall lists is built."""
    _check_int(n, "n")
    if not 1 <= n <= 4095:
        raise SizeOutOfRange(f"nested size n must be in 1..4095, got {_shown(n)}")
    return WallSpace(n + 1, [list(range(i, n + 1)) for i in range(1, n + 1)])


def gen_tree(arity: int, depth: int) -> WallSpace:
    """Leaves of the complete rooted (arity, depth) tree; every edge
    contributes the wall splitting off the leaves below it.

    Two edges induce the same partition only when their leaf blocks are
    complements: the two root edges for arity 2, whose second wall is
    skipped.  No two walls cross; the complex is a tree."""
    _check_int(arity, "arity")
    _check_int(depth, "depth")
    if arity < 2:
        raise SizeOutOfRange(f"arity must be >= 2, got {_shown(arity)}")
    if depth < 1:
        raise SizeOutOfRange(f"depth must be >= 1, got {_shown(depth)}")
    # a leaf count of 4301 or more digits, which Python would not print
    # and whose power can take seconds, is named by the power unevaluated;
    # 2**14286 has 4301 digits
    if depth >= 14286 or depth * log10(arity) >= 4300:
        raise SizeOutOfRange(
            f"tree has {_shown(arity)}**{_shown(depth)} leaves, the supported maximum is 4096"
        )
    leaves = arity**depth
    if leaves > 4096:
        raise SizeOutOfRange(
            f"tree has {leaves} leaves, the supported maximum is 4096"
        )
    walls: list[list[int]] = []
    # walk internal levels top-down; a node at level d covers a
    # contiguous block of leaves
    for level in range(1, depth + 1):
        block = arity ** (depth - level)
        for node in range(arity**level):
            # distinct blocks are complements only for the two root children
            if not (level == 1 and node == 1 and arity == 2):
                walls.append(list(range(node * block, (node + 1) * block)))
    return WallSpace(leaves, walls)


class Cell(NamedTuple):
    """A triangle of the lattice: orientation 0 points up, 1 points down.

    The up cell (0, m, n) has corners (m, n), (m+1, n), (m, n+1); the
    down cell (1, m, n) has corners (m+1, n), (m, n+1), (m+1, n+1).
    """

    orient: int
    m: int
    n: int


def _cell_coord(cell: Cell, family: int) -> int:
    if family == 0:
        return cell.m
    if family == 1:
        return cell.n
    return cell.m + cell.n + cell.orient


def _cell_corners(cell: Cell) -> tuple[tuple[int, int], ...]:
    o, m, n = cell
    if o == 0:
        return ((m, n), (m + 1, n), (m, n + 1))
    return ((m + 1, n), (m, n + 1), (m + 1, n + 1))


def _cells_at_corner(x: int, y: int) -> tuple[Cell, ...]:
    return (
        Cell(0, x, y),
        Cell(0, x - 1, y),
        Cell(0, x, y - 1),
        Cell(1, x - 1, y),
        Cell(1, x, y - 1),
        Cell(1, x - 1, y - 1),
    )


class TriangleLattice(NamedTuple):
    """A triangular-lattice patch with its wall space and grid labelling.

    Walls come from the three parallel line families: family 0 counts m,
    family 1 counts n, family 2 counts m + n + orientation.  A line is a
    wall exactly when it separates two cells of the patch.  vertex_label
    maps a section's code to integer coordinates by counting, per family
    and with sign, the chosen sides relative to the lines through the
    base cell's origin corner.
    """

    space: WallSpace
    cells: tuple[Cell, ...]
    wall_lines: tuple[tuple[int, int], ...]
    base_point: int

    def vertex_label(self, code: int) -> tuple[int, int, int]:
        label = [0, 0, 0]
        for w, (family, t) in enumerate(self.wall_lines):
            side = code >> w & 1
            if t >= 1 and not side:
                label[family] += 1
            elif t <= 0 and side:
                label[family] -= 1
        return tuple(label)


def triangle_lattice(radius: int) -> TriangleLattice:
    """The patch of cells within the given corner-adjacency radius of the
    base up cell at the origin, with one wall per separating lattice
    line.  1 <= radius <= 6."""
    _check_int(radius, "radius")
    if not 1 <= radius <= 6:
        raise SizeOutOfRange(f"radius must be in 1..6, got {_shown(radius)}")
    base = Cell(0, 0, 0)
    ball = {base}
    frontier = [base]
    for _ in range(radius):
        nxt = []
        for cell in frontier:
            for x, y in _cell_corners(cell):
                for nb in _cells_at_corner(x, y):
                    if nb not in ball:
                        ball.add(nb)
                        nxt.append(nb)
        frontier = nxt
    cells = tuple(sorted(ball))
    cell_index = {c: i for i, c in enumerate(cells)}
    walls: list[list[int]] = []
    lines: list[tuple[int, int]] = []
    for family in range(3):
        values = sorted({_cell_coord(c, family) for c in cells})
        assert values == list(range(values[0], values[-1] + 1))
        for t in range(values[0] + 1, values[-1] + 1):
            walls.append(
                [i for i, c in enumerate(cells) if _cell_coord(c, family) >= t]
            )
            lines.append((family, t))
    return TriangleLattice(
        space=WallSpace(len(cells), walls),
        cells=cells,
        wall_lines=tuple(lines),
        base_point=cell_index[base],
    )


def gen_triangle_lattice(radius: int) -> WallSpace:
    """The wall space of triangle_lattice(radius)."""
    return triangle_lattice(radius).space


def _family_crossing(params: list[int]) -> WallSpace:
    if len(params) != 1:
        raise SizeOutOfRange("crossing takes one parameter: n")
    return gen_crossing(params[0])


def _family_nested(params: list[int]) -> WallSpace:
    if len(params) != 1:
        raise SizeOutOfRange("nested takes one parameter: n")
    return gen_nested(params[0])


def _family_tree(params: list[int]) -> WallSpace:
    if len(params) != 2:
        raise SizeOutOfRange("tree takes two parameters: arity,depth")
    return gen_tree(params[0], params[1])


def _family_triangle(params: list[int]) -> WallSpace:
    if len(params) != 1:
        raise SizeOutOfRange("triangle-lattice takes one parameter: radius")
    return gen_triangle_lattice(params[0])


FAMILIES = {
    "crossing": _family_crossing,
    "nested": _family_nested,
    "tree": _family_tree,
    "triangle-lattice": _family_triangle,
}
