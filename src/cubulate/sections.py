"""Sections of the wall-to-half-space projection.

A section chooses one side of every wall.  It is one Python int, its
code: bit w is 0 when the section chooses wall w's listed side and 1
for its complement, so flipping a wall is an XOR, the Hamming distance
of two sections is ``(s ^ t).bit_count()`` and the principal section of
a point is that point's signature in the wall space.  The text encoding
lists the bits in wall order; encode_section and decode_section are the
only places that spell it out.

A section is admissible when no two chosen sides are disjoint;
admissible sections are the vertices of the cube complex.  Flips are
decided by Roller's criterion (Roller, *Poc sets, median algebras and
group actions*, 1998; Sageev 1995): flipping wall w keeps a section
admissible exactly when no other chosen side is contained in w's
chosen side.  The wall space precomputes, per half-space, the masks of
walls with a side inside it, so a flip test is one AND and one compare.

Pointed at a base section, the walls a section flips relative to it
form a set D, and the section is admissible exactly when D holds every
wall whose far side contains the far side of a wall in D and no two far
sides in D are disjoint (Roller 1998).  _pointed gives these relations
as masks, from which the component BFS updates each vertex's flips
across an edge instead of testing every wall.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import InputError
from .wallspace import WallSpace, _bit_indices, _is_int

__all__ = [
    "principal_section",
    "is_admissible",
    "admissible_flips",
    "encode_section",
    "decode_section",
]


def encode_section(code: int, m: int) -> str:
    """The m-character 0/1 text of a section code, bit 0 first; raises
    InputError unless code is an int in 0..2^m - 1 (not a bool)."""
    # a negative code shifts to -1, so one test bounds both ends
    if not _is_int(code) or code >> m:
        raise InputError(f"section code {code!r} is not an int in 0..2^{m}-1")
    return format(code, f"0{m}b")[::-1] if m else ""


def decode_section(text: object, m: int) -> int:
    """The code of an m-character 0/1 text, bit 0 first."""
    # nothing but 0 and 1 is left to int(), which would also accept
    # "_", whitespace, a "0b" prefix and non-ASCII digits
    if not isinstance(text, str) or text.strip("01"):
        raise InputError(f"section encoding must be a 0/1 string, got {text!r}")
    if len(text) != m:
        raise InputError(f"section encoding has length {len(text)}, expected {m}")
    return int(text[::-1] or "0", 2)


def principal_section(space: WallSpace, p: int) -> int:
    """The section choosing, on every wall, the side containing p: the
    point's signature."""
    space._check_point(p)
    return space._signatures[p]


def is_admissible(space: WallSpace, code: int) -> bool:
    """True when no two chosen sides are disjoint: no other chosen side
    lies in the unchosen side of any wall.  InputError unless code is a
    section code of the space's walls (see encode_section)."""
    # the encoding spells the bits in wall order; iterating it beats
    # shifting the m-bit code once per wall
    for sides, bit in zip(space._flip_masks, encode_section(code, space.wall_count)):
        inside_listed, inside_any = sides[bit == "0"]
        if code & inside_any != inside_listed:
            return False
    return True


def admissible_flips(space: WallSpace, code: int) -> list[int]:
    """All walls that flip admissibly, in ascending id order; InputError
    as for is_admissible."""
    out = []
    for w, (sides, bit) in enumerate(zip(space._flip_masks, encode_section(code, space.wall_count))):
        inside_listed, inside_any = sides[bit == "1"]
        if code & inside_any == inside_listed:
            out.append(w)
    return out


def _pointed(space: WallSpace, base: int) -> tuple[list[int], list[int], list[tuple[int, ...]]]:
    """The poc set pointed at the section with code base.  Per wall w,
    with F_w its far side (the side base does not choose): req[w], the
    mask of walls whose far side strictly contains F_w; inc[w], of those
    whose far side misses F_w; and cov[w], the walls whose far sides are
    maximal among those strictly inside F_w.

    The meets masks give req and inc in O(m) int operations.  Far sides
    of one size are never nested, so the largest inside F_w are maximal
    there: cov[w] takes them, drops everything below them and repeats,
    finding each size by bisection, O(log n) ANDs a step.
    """
    m, meets, masks = space.wall_count, space._meets_masks, space._masks
    full = (1 << m) - 1
    far = full ^ base
    req, dep, inc, by_size = [], [], [], {}
    for w in range(m):
        bit, a = 1 << w, 2 * w | far >> w & 1  # a is F_w's half-space id
        (listed, comp), (blisted, bcomp) = meets[a], meets[a ^ 1]
        # v's base side is its listed side where far has bit v, so
        # listed & far | comp & base are the walls whose base side meets F_w
        req.append(full ^ bit ^ (listed & far | comp & base))
        inc.append(full ^ (listed & base | comp & far))
        dep.append(full ^ bit ^ (blisted & base | bcomp & far))
        size = masks[a].bit_count()
        by_size[size] = by_size.get(size, 0) | bit
    atleast, acc = [], 0  # atleast[i]: the walls whose far sides have the i + 1 largest sizes
    for size in sorted(by_size, reverse=True):
        acc |= by_size[size]
        atleast.append(acc)
    cov = []
    for d in dep:
        out = 0
        while d:
            top = d & atleast[bisect_left(atleast, True, key=lambda a: d & a != 0)]
            out |= top
            d &= ~top
            for x in _bit_indices(top):
                d &= ~dep[x]
        cov.append(tuple(_bit_indices(out)))
    return req, inc, cov
