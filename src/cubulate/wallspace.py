"""Finite spaces with walls.

A wall space is a finite point set 0..N-1 together with a family of
proper subsets (half-spaces) closed under taking complements.  A wall
is the unordered pair {h, h^c}.  Wall i owns half-space ids 2*i (the
listed side, exactly as given in the input) and 2*i + 1 (its
complement), so complementation is the involution ``id ^ 1``.

Half-spaces are stored as bitmasks over the point set.  Every other
table is derived lazily, on first use, from one int per point: the
signature of p has bit w set when p lies on wall w's complement, which
is exactly p's principal section (see the sections module).  The wall
distance of p and q is then ``(sig[p] ^ sig[q]).bit_count()``.  From
the signatures each half-space gets two m-bit masks, the walls whose
listed side and the walls whose complement it meets; the crossing
graph and Roller's flip masks both read off those two masks, so no
table costs m^2 half-space comparisons.

Instances are immutable after construction; every operation is a pure
read and safe to share between threads.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import InputError

MAX_POINTS = 1 << 20  # point sets are bitmasks and signatures are per point

__all__ = [
    "MAX_POINTS",
    "WallSpace",
    "EmptyHalfSpace",
    "DuplicateWall",
    "PointOutOfRange",
    "EmptyWallFamily",
    "SameWall",
]


def _is_int(x: object) -> bool:
    """An int that is not a bool: JSON true and false load as bools, and
    isinstance(True, int) holds."""
    return isinstance(x, int) and not isinstance(x, bool)


class EmptyHalfSpace(InputError):
    """A listed side or its complement contains no point."""


class DuplicateWall(InputError):
    """Two walls induce the same partition of the point set."""


class PointOutOfRange(InputError):
    """A point index is not an integer in 0..N-1."""


class EmptyWallFamily(InputError):
    """The half-space family may not be empty."""


class SameWall(InputError):
    """A two-wall operation was called with the same wall twice."""


def _bit_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class WallSpace:
    """A validated wall space.

    Construction performs full validation: every listed side must be a
    proper nonempty subset of the points, and no two walls may induce
    the same partition.
    """

    def __init__(self, point_count: int, walls: Sequence[Iterable[int]]):
        if not _is_int(point_count):
            raise InputError("point count must be an integer")
        if point_count < 1:
            raise InputError("point count must be positive")
        if point_count > MAX_POINTS:
            raise InputError(
                f"point count {point_count} exceeds the supported maximum {MAX_POINTS}"
            )
        full = (1 << point_count) - 1
        masks: list[int] = []
        seen: dict[int, int] = {}
        for w, side in enumerate(walls):
            mask = 0
            for p in side:
                if not _is_int(p):
                    raise PointOutOfRange(f"wall {w}: point {p!r} is not an integer")
                if not 0 <= p < point_count:
                    raise PointOutOfRange(
                        f"wall {w}: point {p} outside 0..{point_count - 1}"
                    )
                mask |= 1 << p
            comp = full ^ mask
            if mask == 0:
                raise EmptyHalfSpace(f"wall {w}: listed side is empty")
            if comp == 0:
                raise EmptyHalfSpace(f"wall {w}: complement is empty")
            canon = min(mask, comp)
            if canon in seen:
                raise DuplicateWall(
                    f"walls {seen[canon]} and {w} induce the same partition"
                )
            seen[canon] = w
            masks.append(mask)
            masks.append(comp)
        if not masks:
            raise EmptyWallFamily("a wall space needs at least one wall")
        self._n = point_count
        self._full = full
        self._masks = tuple(masks)
        self._iw: int | None = None
        self._sigs: tuple[int, ...] | None = None
        self._meets: tuple[tuple[int, int], ...] | None = None
        self._crossing: tuple[int, ...] | None = None
        self._flip: tuple[tuple[tuple[int, int], tuple[int, int]], ...] | None = None

    # -- basic accessors ------------------------------------------------

    @property
    def point_count(self) -> int:
        return self._n

    @property
    def wall_count(self) -> int:
        return len(self._masks) // 2

    def points(self) -> range:
        return range(self._n)

    def walls(self) -> range:
        return range(self.wall_count)

    @staticmethod
    def complement(half_space_id: int) -> int:
        return half_space_id ^ 1

    def mask(self, half_space_id: int) -> int:
        """Bitmask of the half-space; id 2*i is wall i's listed side."""
        self._check_half_space(half_space_id)
        return self._masks[half_space_id]

    def points_in(self, half_space_id: int) -> tuple[int, ...]:
        return tuple(_bit_indices(self.mask(half_space_id)))

    def _check_point(self, p: int) -> None:
        if not _is_int(p) or not 0 <= p < self._n:
            raise PointOutOfRange(f"point {p!r} outside 0..{self._n - 1}")

    def _check_wall(self, w: int) -> None:
        if not _is_int(w) or not 0 <= w < self.wall_count:
            raise InputError(f"wall {w!r} outside 0..{self.wall_count - 1}")

    def _check_half_space(self, a: int) -> None:
        if not _is_int(a) or not 0 <= a < len(self._masks):
            raise InputError(f"half-space id {a!r} outside 0..{len(self._masks) - 1}")

    # -- separation and the wall pseudo-metric --------------------------

    @property
    def _signatures(self) -> tuple[int, ...]:
        """Per point, the m-bit int with bit w set when the point lies on
        wall w's complement.  Built by transposing the complements' bit
        strings: O(n*m) character work, done once."""
        if self._sigs is None:
            n = self._n
            rows = [format(self._masks[2 * w + 1], f"0{n}b") for w in reversed(self.walls())]
            # column i of the rows is point n-1-i, its walls high to low
            sigs = [int("".join(col), 2) for col in zip(*rows)]
            sigs.reverse()
            self._sigs = tuple(sigs)
        return self._sigs

    def wall_distance(self, p: int, q: int) -> int:
        """Number of walls separating p from q (a pseudo-metric)."""
        self._check_point(p)
        self._check_point(q)
        sigs = self._signatures
        return (sigs[p] ^ sigs[q]).bit_count()

    # -- crossing -------------------------------------------------------

    def crosses(self, w1: int, w2: int) -> bool:
        """True when all four pairwise side intersections are nonempty."""
        self._check_wall(w1)
        self._check_wall(w2)
        if w1 == w2:
            raise SameWall(f"crossing is defined for distinct walls, got {w1} twice")
        h, hc = self._masks[2 * w1], self._masks[2 * w1 + 1]
        k, kc = self._masks[2 * w2], self._masks[2 * w2 + 1]
        return bool(h & k and h & kc and hc & k and hc & kc)

    @property
    def _meets_masks(self) -> tuple[tuple[int, int], ...]:
        """Per half-space id, the pair (walls whose listed side it meets,
        walls whose complement it meets), as m-bit masks.

        A side of wall w holds the points whose signature has bit w equal
        to the side's id bit.  It meets wall v's complement when one of
        those signatures has bit v set (an OR), and v's listed side when
        not all of them do (an AND): m passes over the distinct
        signatures, O(n*m) bit work.
        """
        if self._meets is None:
            full = (1 << self.wall_count) - 1
            distinct = set(self._signatures)
            meets = []
            for w in self.walls():
                bit = 1 << w
                any0 = any1 = 0
                all0 = all1 = full
                for sig in distinct:
                    if sig & bit:
                        any1 |= sig
                        all1 &= sig
                    else:
                        any0 |= sig
                        all0 &= sig
                meets += ((full ^ all0, any0), (full ^ all1, any1))
            self._meets = tuple(meets)
        return self._meets

    @property
    def _crossing_masks(self) -> tuple[int, ...]:
        """Per wall, the bitmask of walls crossing it: both of its sides
        meet both sides of the other wall.  A wall never crosses itself,
        since its complement misses its listed side."""
        if self._crossing is None:
            meets = self._meets_masks
            self._crossing = tuple(
                meets[a][0] & meets[a][1] & meets[a + 1][0] & meets[a + 1][1]
                for a in range(0, len(meets), 2)
            )
        return self._crossing

    def intersection_number(self) -> int:
        """Size of a maximum family of pairwise crossing walls (exact)."""
        if self._iw is None:
            self._iw = _max_clique_size(self._crossing_masks)
        return self._iw

    # -- admissibility support ------------------------------------------

    @property
    def _flip_masks(self) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
        """Roller's flip test.  Per wall w, for its listed side and then its
        complement a, the pair (inside_listed, inside_any) of masks over
        the other walls: the walls whose listed side lies in a and the
        walls with either side in a.

        A section s (bit v set when it chooses wall v's complement) that
        chooses a on wall w may flip w exactly when no other chosen side
        lies in a, i.e. ``s & inside_any == inside_listed``.  A side lies
        in a exactly when it misses a's complement, which the meets masks
        record; no wall has both sides in a proper half-space.
        """
        if self._flip is None:
            full = (1 << self.wall_count) - 1
            meets = self._meets_masks
            sides = []
            for a in range(len(meets)):
                others = full ^ 1 << (a >> 1)
                listed, comp = meets[a ^ 1]
                inside_listed = others & ~listed
                sides.append((inside_listed, inside_listed | others & ~comp))
            self._flip = tuple(zip(sides[::2], sides[1::2]))
        return self._flip

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "points": self._n,
            "walls": [list(self.points_in(2 * w)) for w in range(self.wall_count)],
        }

    @classmethod
    def from_dict(cls, data: object) -> "WallSpace":
        if not isinstance(data, dict):
            raise InputError("wall space input must be a JSON object")
        missing = {"points", "walls"} - set(data)
        if missing:
            raise InputError(f"wall space input lacks keys: {sorted(missing)}")
        walls = data["walls"]
        if not isinstance(walls, list) or not all(isinstance(w, list) for w in walls):
            raise InputError("'walls' must be a list of point lists")
        return cls(data["points"], walls)

    def __repr__(self) -> str:
        return f"WallSpace(points={self._n}, walls={self.wall_count})"


def _max_clique_size(adj: Sequence[int]) -> int:
    """Exact maximum clique size via branch and bound.

    Vertices are relabelled by degree, densest first (ties by index),
    then searched with the classic greedy-colouring bound.  The order
    only steers the search, so one O(n log n) sort serves.  Exponential
    worst case, exact always; intended for the desk-scale wall counts
    here.
    """
    n = len(adj)
    if n == 0:
        return 0
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    pos = {v: i for i, v in enumerate(order)}
    radj = [0] * n
    for v in range(n):
        for u in _bit_indices(adj[v]):
            radj[pos[v]] |= 1 << pos[u]

    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if cand == 0:
            if size > best:
                best = size
            return
        colour_order: list[tuple[int, int]] = []
        uncoloured = cand
        colour = 0
        while uncoloured:
            colour += 1
            avail = uncoloured
            while avail:
                v = (avail & -avail).bit_length() - 1
                colour_order.append((v, colour))
                avail &= ~radj[v]
                avail &= ~(1 << v)
                uncoloured &= ~(1 << v)
        for v, c in reversed(colour_order):
            if size + c <= best:
                return
            expand(size + 1, cand & radj[v])
            cand &= ~(1 << v)

    expand(0, (1 << n) - 1)
    return best
