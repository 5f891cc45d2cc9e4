"""Sections of the wall-to-half-space projection.

A section chooses one side of every wall.  A Section is one Python int
plus the wall count: bit w is 0 when the section chooses wall w's
listed side and 1 for its complement, so flipping a wall is an XOR,
the Hamming distance of two sections is ``(s ^ t).bit_count()`` and
the principal section of a point is that point's signature in the
wall space.  The text encoding lists the bits in wall order.

A section is admissible when no two chosen sides are disjoint;
admissible sections are the vertices of the cube complex.  Flips are
decided by Roller's criterion (Roller, *Poc sets, median algebras and
group actions*, 1998; Sageev 1995): flipping wall w keeps a section
admissible exactly when no other chosen side is contained in w's
chosen side.  The wall space precomputes, per half-space, the masks of
walls with a side inside it, so a flip test is one AND and one compare.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InputError
from .wallspace import WallSpace

__all__ = [
    "Section",
    "principal_section",
    "is_admissible",
    "admissible_flips",
]


class Section:
    """One chosen side per wall; bit i is 0 for wall i's listed side.

    ``code`` is the int whose bit i is the side chosen on wall i.
    Instances are immutable and hash by (code, wall count).
    """

    __slots__ = ("code", "_width")

    def __init__(self, bits: Iterable[int]):
        bits = tuple(bits)
        if any(b not in (0, 1) for b in bits):
            raise InputError("section bits must be 0 or 1")
        code = 0
        for i, b in enumerate(bits):
            if b:
                code |= 1 << i
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "_width", len(bits))

    @classmethod
    def from_code(cls, code: int, wall_count: int) -> "Section":
        """The section over wall_count walls whose bit i is code's bit i."""
        if code < 0 or code >> wall_count:
            raise InputError(f"section code {code} does not fit {wall_count} walls")
        s = cls.__new__(cls)
        object.__setattr__(s, "code", code)
        object.__setattr__(s, "_width", wall_count)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Section is immutable")

    def __delattr__(self, name):
        raise AttributeError("Section is immutable")

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__
        return (Section.from_code, (self.code, self._width))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self.code >> i & 1 for i in range(self._width))

    def __len__(self) -> int:
        return self._width

    def encode(self) -> str:
        return format(self.code, f"0{self._width}b")[::-1] if self._width else ""

    @classmethod
    def decode(cls, text: str, wall_count: int | None = None) -> "Section":
        # nothing but 0 and 1 is left to int(), which would also accept
        # "_", whitespace, a "0b" prefix and non-ASCII digits
        if not isinstance(text, str) or text.strip("01"):
            raise InputError(f"section encoding must be a 0/1 string, got {text!r}")
        if wall_count is not None and len(text) != wall_count:
            raise InputError(
                f"section encoding has length {len(text)}, expected {wall_count}"
            )
        return cls.from_code(int(text[::-1] or "0", 2), len(text))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.code == other.code and self._width == other._width

    def __hash__(self) -> int:
        return hash((self.code, self._width))

    def __repr__(self) -> str:
        return f"Section({self.encode()!r})"


def _check_section(space: WallSpace, s: Section) -> None:
    if len(s) != space.wall_count:
        raise InputError(
            f"section has {len(s)} walls, space has {space.wall_count}"
        )


def principal_section(space: WallSpace, p: int) -> Section:
    """The section choosing, on every wall, the side containing p: the
    point's signature."""
    space._check_point(p)
    return Section.from_code(space._signatures[p], space.wall_count)


def is_admissible(space: WallSpace, s: Section) -> bool:
    """True when no two chosen sides are disjoint: no other chosen side
    lies in the unchosen side of any wall."""
    _check_section(space, s)
    code = s.code
    # the encoding spells the bits in wall order; iterating it beats
    # shifting the m-bit code once per wall
    for sides, bit in zip(space._flip_masks, s.encode()):
        inside_listed, inside_any = sides[bit == "0"]
        if code & inside_any != inside_listed:
            return False
    return True


def admissible_flips(space: WallSpace, s: Section) -> list[int]:
    """All walls that flip admissibly, in ascending id order."""
    _check_section(space, s)
    code = s.code
    out = []
    for w, (sides, bit) in enumerate(zip(space._flip_masks, s.encode())):
        inside_listed, inside_any = sides[bit == "1"]
        if code & inside_any == inside_listed:
            out.append(w)
    return out
