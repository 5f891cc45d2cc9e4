import itertools
import random

import pytest

from cubulate import (
    InputError,
    Section,
    WallSpace,
    admissible_flips,
    is_admissible,
    principal_section,
)
from cubulate.families import gen_crossing, gen_nested

import oracles
from helpers import random_wall_space


def test_section_encode_decode():
    s = Section((0, 1, 1, 0))
    assert s.encode() == "0110"
    assert Section.decode("0110") == s
    assert Section.decode("0110", wall_count=4) == s
    assert len(s) == 4
    assert s.bits[1] == 1


def test_section_decode_rejects_garbage():
    with pytest.raises(InputError):
        Section.decode("01x0")
    with pytest.raises(InputError):
        Section.decode("011", wall_count=4)
    with pytest.raises(InputError):
        Section((0, 2, 1))


def test_principal_sections():
    sp = gen_nested(3)
    assert principal_section(sp, 0).encode() == "111"
    assert principal_section(sp, 3).encode() == "000"
    cube = gen_crossing(3)
    assert principal_section(cube, 0).encode() == "000"
    for p in cube.points():
        assert is_admissible(cube, principal_section(cube, p))


def test_admissibility_examples():
    # h1 = {1,2}, h2 = {2}; picking h1's complement with h2 leaves {0} vs {2}
    sp = WallSpace(3, [[1, 2], [2]])
    assert not is_admissible(sp, Section((1, 0)))
    assert is_admissible(sp, Section((0, 0)))
    cube = gen_crossing(3)
    for bits in itertools.product((0, 1), repeat=3):
        assert is_admissible(cube, Section(bits))


def test_admissibility_matches_oracle():
    rng = random.Random(90125)
    spaces = [gen_nested(4), gen_crossing(3)]
    spaces += [random_wall_space(rng, point_count=7, wall_count=6) for _ in range(5)]
    for sp in spaces:
        raw = sp.to_dict()
        expect = oracles.admissible_encodings(raw["points"], raw["walls"])
        for bits in itertools.product((0, 1), repeat=sp.wall_count):
            s = Section(bits)
            assert is_admissible(sp, s) == (s.encode() in expect)


def test_flip_cube_always_admissible():
    cube = gen_crossing(3)
    for bits in itertools.product((0, 1), repeat=3):
        assert admissible_flips(cube, Section(bits)) == [0, 1, 2]


def test_flip_rejected_on_nested_end():
    sp = gen_nested(3)
    sigma0 = principal_section(sp, 0)
    assert admissible_flips(sp, sigma0) == [0]
    assert not is_admissible(sp, Section.from_code(sigma0.code ^ 1 << 2, 3))


def test_flip_single_wall_space():
    sp = WallSpace(2, [[1]])
    assert admissible_flips(sp, Section((0,))) == [0]
    assert admissible_flips(sp, Section((1,))) == [0]


def test_admissible_flips_agree_with_admissibility():
    # Roller's criterion against flipping and testing admissibility
    rng = random.Random(8)
    for _ in range(4):
        sp = random_wall_space(rng, point_count=6, wall_count=5)
        m = sp.wall_count
        for bits in itertools.product((0, 1), repeat=m):
            s = Section(bits)
            if not is_admissible(sp, s):
                continue
            flipped = [Section.from_code(s.code ^ 1 << w, m) for w in sp.walls()]
            expect = [w for w, t in enumerate(flipped) if is_admissible(sp, t)]
            assert admissible_flips(sp, s) == expect


def test_principal_injective_on_classes():
    rng = random.Random(65)
    spaces = [gen_nested(4), WallSpace(3, [[2]])]
    spaces += [random_wall_space(rng, point_count=6, wall_count=4) for _ in range(4)]
    for sp in spaces:
        for p in sp.points():
            for q in sp.points():
                same = principal_section(sp, p) == principal_section(sp, q)
                assert same == (sp.wall_distance(p, q) == 0)
