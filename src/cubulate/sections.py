"""Sections of the wall-to-half-space projection.

A section chooses one side of every wall.  It is one Python int, its
code: bit w is 0 when the section chooses wall w's listed side and 1
for its complement, so flipping a wall is an XOR, the Hamming distance
of two sections is ``(s ^ t).bit_count()`` and the principal section of
a point is that point's signature in the wall space.  The text encoding
lists the bits in wall order; encode_section and decode_section are the
only places that spell it out.

A section is admissible when no two chosen sides are disjoint;
admissible sections are the vertices of the cube complex.  The wall
space keeps, per half-space, the pair of masks (walls whose listed
side it meets, walls whose complement it meets), so a chosen side meets
every chosen side exactly when ``listed & ~code | comp & code`` has all
m bits: one test per wall decides admissibility.  Flips are decided by
Roller's criterion (Roller, *Poc sets, median algebras and group
actions*, 1998; Sageev 1995): flipping wall w keeps a section
admissible exactly when the side it takes meets every other chosen
side, the same test on w's other side.
"""

from __future__ import annotations

from .errors import InputError
from .wallspace import WallSpace, _is_int

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
    """True when no two chosen sides are disjoint: each chosen side meets
    every chosen side.  InputError unless code is a section code of the
    space's walls (see encode_section)."""
    # the encoding spells the bits in wall order; iterating it beats
    # shifting the m-bit code once per wall
    text = encode_section(code, space.wall_count)
    # on_listed has bit v set when the section chooses wall v's listed side
    meets, full, on_listed = space._meets_masks, (1 << space.wall_count) - 1, ~code
    for w, bit in enumerate(text):
        listed, comp = meets[2 * w + (bit == "1")]
        if (listed & on_listed | comp & code) != full:
            return False
    return True


def admissible_flips(space: WallSpace, code: int) -> list[int]:
    """All walls that flip admissibly, in ascending id order: those whose
    unchosen side meets every other chosen side.  It never meets the
    chosen side of its own wall, so the test asks for all bits but w's.
    InputError as for is_admissible."""
    text = encode_section(code, space.wall_count)
    meets, full, on_listed, out = space._meets_masks, (1 << space.wall_count) - 1, ~code, []
    for w, bit in enumerate(text):
        listed, comp = meets[2 * w + (bit == "0")]
        if (listed & on_listed | comp & code) == full ^ 1 << w:
            out.append(w)
    return out
