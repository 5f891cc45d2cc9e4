import random

import pytest

from cubulate import (
    InputError,
    WallSpace,
    admissible_flips,
    decode_section,
    encode_section,
    is_admissible,
    principal_section,
)
from cubulate.families import gen_crossing, gen_nested

import oracles
from helpers import random_wall_space


def test_section_encode_decode():
    assert encode_section(0b0110, 4) == "0110"
    assert decode_section("0110", 4) == 0b0110
    assert encode_section(1, 4) == "1000"
    assert decode_section("1000", 4) == 1


def test_section_decode_rejects_garbage():
    with pytest.raises(InputError):
        decode_section("01x0", 4)
    with pytest.raises(InputError):
        decode_section("011", 4)
    for code in (True, -1, 1 << 4, 1.0, "0110"):
        with pytest.raises(InputError):
            encode_section(code, 4)
        with pytest.raises(InputError):
            is_admissible(gen_crossing(4), code)
        with pytest.raises(InputError):
            admissible_flips(gen_crossing(4), code)


def test_principal_sections():
    sp = gen_nested(3)
    assert principal_section(sp, 0) == 0b111
    assert principal_section(sp, 3) == 0b000
    cube = gen_crossing(3)
    assert principal_section(cube, 0) == 0
    for p in cube.points():
        assert is_admissible(cube, principal_section(cube, p))


def test_admissibility_examples():
    # h1 = {1,2}, h2 = {2}; picking h1's complement with h2 leaves {0} vs {2}
    sp = WallSpace(3, [[1, 2], [2]])
    assert not is_admissible(sp, 0b01)
    assert is_admissible(sp, 0b00)
    cube = gen_crossing(3)
    for code in range(1 << 3):
        assert is_admissible(cube, code)


def test_admissibility_matches_oracle():
    rng = random.Random(90125)
    spaces = [gen_nested(4), gen_crossing(3)]
    spaces += [random_wall_space(rng, point_count=7, wall_count=6) for _ in range(5)]
    for sp in spaces:
        raw = sp.to_dict()
        expect = oracles.admissible_encodings(raw["points"], raw["walls"])
        for code in range(1 << sp.wall_count):
            assert is_admissible(sp, code) == (encode_section(code, sp.wall_count) in expect)


def test_flip_cube_always_admissible():
    cube = gen_crossing(3)
    for code in range(1 << 3):
        assert admissible_flips(cube, code) == [0, 1, 2]


def test_flip_rejected_on_nested_end():
    sp = gen_nested(3)
    sigma0 = principal_section(sp, 0)
    assert admissible_flips(sp, sigma0) == [0]
    assert not is_admissible(sp, sigma0 ^ 1 << 2)


def test_flip_single_wall_space():
    sp = WallSpace(2, [[1]])
    assert admissible_flips(sp, 0) == [0]
    assert admissible_flips(sp, 1) == [0]


def test_admissible_flips_agree_with_admissibility():
    # Roller's criterion against flipping and testing admissibility
    rng = random.Random(8)
    for _ in range(4):
        sp = random_wall_space(rng, point_count=6, wall_count=5)
        m = sp.wall_count
        for s in range(1 << m):
            if not is_admissible(sp, s):
                continue
            expect = [w for w in sp.walls() if is_admissible(sp, s ^ 1 << w)]
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
