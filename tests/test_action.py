import copy
import json
import random
from pathlib import Path

import pytest

from cubulate import (
    BudgetExceeded,
    EquivarianceViolation,
    Generator,
    HalfSpaceNotPreserved,
    InputError,
    NotBijective,
    WallSpace,
    act_on_section,
    build_complex,
    check_equivariance,
    encode_section,
    induced_maps,
    load_generators,
    orbit_and_stabilizer,
    principal_section,
    validate_generator,
)
from cubulate import action
from cubulate.cubing import CubeComplex, complex_from_dict, complex_to_dict
from cubulate.families import gen_crossing, gen_nested
from cubulate.wallspace import _permute_bits

import oracles
from helpers import cube_swap, lattice_reflection, registry_corners, swap_bits

FIXTURES = Path(__file__).parent / "fixtures"


def test_identity_generator():
    sp = gen_crossing(3)
    g = validate_generator(sp, list(range(8)), "e")
    assert g == Generator("e", tuple(range(8)))
    assert Generator._fields == ("name", "perm")
    assert induced_maps(sp, g) == ((0, 1, 2), 0)
    assert sorted(range(8), key=g.perm.__getitem__) == list(g.perm)  # an involution


def test_coordinate_swap_swaps_walls():
    sp = gen_crossing(3)
    g = cube_swap(sp, 0, 1, "s01")
    assert induced_maps(sp, g) == ((1, 0, 2), 0)


def test_nested_reflection_swaps_sides():
    sp = gen_nested(4)
    r = validate_generator(sp, [4 - x for x in range(5)], "r")
    # wall {x>=i} maps to {x<=4-i}, the complement of wall {x>=5-i}
    assert induced_maps(sp, r) == ((3, 2, 1, 0), 0b1111)


def test_not_bijective():
    sp = gen_crossing(2)
    with pytest.raises(NotBijective):
        validate_generator(sp, [0, 0, 1, 2], "g")
    with pytest.raises(NotBijective):
        validate_generator(sp, [0, 1], "g")


def test_half_space_not_preserved():
    sp = gen_crossing(3)
    with pytest.raises(HalfSpaceNotPreserved):
        validate_generator(sp, [7, 1, 2, 3, 4, 5, 6, 0], "bad")


def test_act_on_section_examples():
    sp = gen_crossing(3)
    e = validate_generator(sp, list(range(8)), "e")
    s = principal_section(sp, 5)
    assert act_on_section(sp, e, s) == s

    two = WallSpace(2, [[1]])
    swap = validate_generator(two, [1, 0], "t")
    a = principal_section(two, 0)
    b = principal_section(two, 1)
    assert act_on_section(two, swap, a) == b
    assert act_on_section(two, swap, b) == a

    g = cube_swap(sp, 0, 1, "s01")
    sigma0 = principal_section(sp, 0)
    assert act_on_section(sp, g, sigma0) == sigma0


@pytest.mark.parametrize("code", [True, -1, 1 << 3, 1.0])
def test_act_on_section_rejects_a_section_of_another_length(code, monkeypatch):
    sp = gen_crossing(3)
    g = cube_swap(sp, 0, 1, "s01")

    def unchecked(*args):
        raise AssertionError("a code was permuted before it was checked")

    # _permute_bits would never end on -1
    monkeypatch.setattr(action, "_permute_bits", unchecked)
    with pytest.raises(InputError) as info:
        act_on_section(sp, g, code)
    assert str(info.value) == f"section code {code!r} is not an int in 0..2^3-1"


def test_action_maps_principal_to_principal():
    cases = [
        (gen_crossing(3), [swap_bits(p, 1, 2) for p in range(8)]),
        (gen_nested(4), [4 - x for x in range(5)]),
    ]
    for sp, perm in cases:
        g = validate_generator(sp, perm, "g")
        for p in sp.points():
            got = act_on_section(sp, g, principal_section(sp, p))
            assert got == principal_section(sp, g.perm[p])


def test_action_commutes_with_flips():
    for sp, perm in (
        (gen_crossing(3), [swap_bits(p, 0, 1) for p in range(8)]),
        (gen_nested(3), [3 - x for x in range(4)]),
    ):
        g = validate_generator(sp, perm, "g")
        P, _ = induced_maps(sp, g)
        X = build_complex(sp)
        # the complex's edges at a vertex are its section's admissible flips
        for s, adj in zip(X.codes, X.adjacency):
            gs = act_on_section(sp, g, s)
            for w in adj:
                assert act_on_section(sp, g, s ^ 1 << w) == gs ^ 1 << P[w]


def test_inverse_generator_roundtrip():
    sp = gen_crossing(3)
    g = cube_swap(sp, 1, 2, "s12")
    # the inverse permutation: the points sorted by their images
    inv = validate_generator(sp, sorted(range(8), key=g.perm.__getitem__), "s12^-1")
    X = build_complex(sp)
    for s in X.codes:
        assert act_on_section(sp, inv, act_on_section(sp, g, s)) == s


def test_check_equivariance_passes():
    sp = gen_crossing(3)
    X = build_complex(sp)
    for name, (i, j) in (("s01", (0, 1)), ("s12", (1, 2))):
        report = check_equivariance(sp, X, cube_swap(sp, i, j, name))
        assert report["generator"] == name
        assert report["cubes"] == 7

    spn = gen_nested(4)
    Xn = build_complex(spn)
    r = validate_generator(spn, [4 - x for x in range(5)], "r")
    report = check_equivariance(spn, Xn, r)
    assert report["vertices"] == 5
    assert report["edges"] == 4


@pytest.mark.parametrize(
    "call, perm, witness",
    [
        ("check", (4, 3, 2, 1, 1), "not a permutation of 0..4"),
        ("check", (1, 0, 2, 3, 4), "the image of wall 0's listed side [1, 2, 3, 4] is not a half-space"),
        ("orbit", (4, 3, 2, 1, 1), "not a permutation of 0..4"),
        ("orbit", (1, 0, 2, 3, 4), "the image of wall 0's listed side [1, 2, 3, 4] is not a half-space"),
    ],
    ids=["perm", "half_space", "orbit-perm", "orbit-half_space"],
)
def test_check_equivariance_catches_forged_generator_structure(call, perm, witness):
    """A Generator built by hand, not by validate_generator, whose perm
    validate_generator refuses: the checks raise with its witness."""
    sp = gen_nested(4)
    X = build_complex(sp)
    forged = Generator("r", perm)
    with pytest.raises(EquivarianceViolation) as info:
        if call == "check":
            check_equivariance(sp, X, forged)
        else:
            orbit_and_stabilizer(sp, X, [forged], 0)
    assert str(info.value) == "r: " + witness


def test_a_generator_built_by_hand_acts_through_its_perm():
    """A valid perm needs no validate_generator first: induced_maps
    derives its maps on first use, and every call agrees with the
    validated generator's."""
    perm = [4 - x for x in range(5)]
    sp = gen_nested(4)
    X = build_complex(sp)
    by_hand = Generator("r", perm)
    assert sp._induced == {}
    assert induced_maps(sp, by_hand) == ((3, 2, 1, 0), 0b1111)
    valid = validate_generator(gen_nested(4), perm, "r")
    assert check_equivariance(sp, X, by_hand) == check_equivariance(sp, X, valid)
    assert orbit_and_stabilizer(sp, X, [by_hand], 0) == orbit_and_stabilizer(sp, X, [valid], 0)
    assert [act_on_section(sp, by_hand, c) for c in X.codes] == [act_on_section(sp, valid, c) for c in X.codes]


def test_each_generator_is_validated_once(monkeypatch):
    """load_generators derives each generator's wall maps; the checks
    that read them through induced_maps find them kept on the space.  A
    perm that fails is never kept, and a perm spelled with True for 1
    does not find the entry of the plain perm.  Deriving the maps reads
    the half-space masks, which nothing else in the checks reads."""
    sp = gen_nested(4)
    perm = [4 - x for x in range(5)]
    with pytest.raises(HalfSpaceNotPreserved):
        validate_generator(sp, [1, 0, 2, 3, 4], "bad")
    (r,) = load_generators(sp, {"generators": [{"name": "r", "perm": perm}]})
    X = build_complex(sp)

    def no_rederivation(*args):
        raise AssertionError("a generator's wall maps were derived again")

    monkeypatch.setattr(WallSpace, "mask", no_rederivation)
    assert check_equivariance(sp, X, r)["generator"] == "r"
    assert orbit_and_stabilizer(sp, X, [r], 0).orbit == (0, 4)
    assert validate_generator(sp, perm, "again") == r._replace(name="again")
    with pytest.raises(NotBijective):
        validate_generator(sp, [4, 3, 2, True, 0], "r")
    with pytest.raises(AssertionError, match="derived again"):
        validate_generator(sp, [1, 0, 2, 3, 4], "bad")


def equivariance_cases():
    """(space, generator): the crossing(3) swaps, the nested(4)
    reflection and the triangle-lattice(2) axis reflection, plus two
    generators built by hand whose perms validate_generator refuses:
    one is not a permutation, one moves a half-space off the family."""
    c3 = gen_crossing(3)
    n4 = gen_nested(4)
    cases = [(c3, cube_swap(c3, i, j, f"s{i}{j}")) for i, j in ((0, 1), (1, 2), (0, 2))]
    cases.append((n4, validate_generator(n4, [4 - x for x in range(5)], "r")))
    cases.append(lattice_reflection(2))
    cases.append((n4, Generator("points", (0, 0, 1, 2, 3))))
    cases.append((c3, Generator("half-space", (1, 0, 2, 3, 4, 5, 6, 7))))
    return cases


def test_check_equivariance_agrees_with_brute_force_oracle():
    verdicts = []
    for sp, g in equivariance_cases():
        raw = sp.to_dict()
        violations, corners = oracles.equivariance_violations(raw["points"], raw["walls"], g.perm)
        X = build_complex(sp)
        try:
            report = check_equivariance(sp, X, g)
        except EquivarianceViolation:
            report = None
        assert (report is not None) == (not violations), (g.name, violations[:3])
        if report is not None:
            assert report["vertices"] == len(X.codes)
            assert report["corners"] == corners, g.name
        else:
            with pytest.raises(EquivarianceViolation):
                orbit_and_stabilizer(sp, X, [g], X.base)
        verdicts.append(report is not None)
    assert verdicts == [True] * 5 + [False] * 2


def test_check_equivariance_needs_no_bfs_and_no_wall_distance(monkeypatch):
    built = [(sp, build_complex(sp), g) for sp, g in equivariance_cases()[:5]]

    def forbidden(*args, **kwargs):
        raise AssertionError("check_equivariance recomputed a metric")

    monkeypatch.setattr(CubeComplex, "bfs_tree", forbidden)
    monkeypatch.setattr(WallSpace, "wall_distance", forbidden)
    for sp, X, g in built:
        assert check_equivariance(sp, X, g)["vertices"] == len(X.codes)


def _per_vertex_map(X, name, P, S):
    """The vertex map with every image computed bit by bit, the witness
    being the first vertex whose image is not a vertex."""
    gv = [X.index.get(_permute_bits(c ^ S, P)) for c in X.codes]
    if None in gv:
        raise EquivarianceViolation(f"{name}: image of vertex {gv.index(None)} leaves the component")
    return gv


def _shuffled_complex(space, X, rng, drop=None):
    """X reloaded from its JSON form with the vertex list shuffled, so
    not in BFS order; with drop, that vertex, its edges and every cube
    are left out first."""
    data = complex_to_dict(X)
    order = [v for v in range(len(X.codes)) if v != drop]
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    data["vertices"] = [data["vertices"][v] for v in order]
    data["edges"] = [[pos[u], pos[v], w] for u, v, w in data["edges"] if drop not in (u, v)]
    if drop is None:
        data["cubes"] = {k: [[pos[b], walls] for b, walls in cubes] for k, cubes in data["cubes"].items()}
    else:
        data["cubes"] = {}
    return complex_from_dict(space, data)


def _outcomes(space, Y, gens, start):
    """What check_equivariance gives for each generator and what
    orbit_and_stabilizer gives for all of them: a value or a message."""
    out = []
    for call in [lambda g=g: check_equivariance(space, Y, g) for g in gens] + [
        lambda: orbit_and_stabilizer(space, Y, gens, start)
    ]:
        try:
            out.append(call())
        except EquivarianceViolation as exc:
            out.append(str(exc))
    return out


def test_vertex_map_of_a_shuffled_vertex_list_matches_the_per_vertex_map(monkeypatch):
    rng = random.Random(11)
    roots = leaving = 0
    for space, gens in orbit_cases():
        X = build_complex(space)
        gv = _per_vertex_map(X, gens[0].name, *induced_maps(space, gens[0]))
        moved = next(v for v in range(len(gv)) if gv[v] != v)
        for drop in (None, gv[moved]):
            Y = _shuffled_complex(space, X, rng, drop)
            start = Y.index[X.codes[X.base]]
            roots += sum(min(a.values(), default=v) >= v for v, a in enumerate(Y.adjacency))
            carried = _outcomes(space, Y, gens, start)
            with monkeypatch.context() as patch:
                patch.setattr(action, "_vertex_map", _per_vertex_map)
                assert carried == _outcomes(space, Y, gens, start)
            leaving += isinstance(carried[0], str)
    # vertex 0 is a root of every complex; the shuffles make others, and
    # every dropped vertex makes the first generator leave
    assert roots > 2 * len(orbit_cases())
    assert leaving == len(orbit_cases())


def test_corner_count_matches_enumerated_corners():
    c4 = gen_crossing(4)
    n5 = gen_nested(5)
    cases = [
        (c4, cube_swap(c4, 0, 1, "s01")),
        (n5, validate_generator(n5, [5 - x for x in range(6)], "r")),
        lattice_reflection(2),
    ]
    for sp, g in cases:
        X = build_complex(sp)
        enumerated = len(registry_corners(X))
        assert check_equivariance(sp, X, g)["corners"] == enumerated, g.name
    assert enumerated > 0


def test_orbit_identity_only():
    sp = gen_crossing(3)
    X = build_complex(sp)
    e = validate_generator(sp, list(range(8)), "e")
    orb = orbit_and_stabilizer(sp, X, [e], X.base)
    assert orb.orbit == (X.base,)


def test_orbit_sizes_under_swap_group():
    sp = gen_crossing(3)
    X = build_complex(sp)
    gens = [cube_swap(sp, 0, 1, "s01"), cube_swap(sp, 1, 2, "s12")]
    orb = orbit_and_stabilizer(sp, X, gens, X.base)
    assert len(orb.orbit) == 1
    neighbor = X.neighbors(X.base)[0][1]
    orb = orbit_and_stabilizer(sp, X, gens, neighbor)
    assert len(orb.orbit) == 3
    assert all(w[-1] in ("s01", "s12") for w in orb.stabilizer_words)


def test_orbit_rejects_names_that_clash_with_adjoined_inverses():
    sp = gen_crossing(3)
    X = build_complex(sp)
    # moves coordinate i to i + 1 mod 3: order 3, so a^-1 is adjoined
    a = validate_generator(sp, [(p << 1 | p >> 2) & 7 for p in range(8)], "a")
    impostor = validate_generator(sp, list(range(8)), "a^-1")
    for gens in ([a, impostor], [impostor, a], [a, a]):
        with pytest.raises(InputError, match="clash"):
            orbit_and_stabilizer(sp, X, gens, X.base)
    neighbor = X.neighbors(X.base)[0][1]
    words = orbit_and_stabilizer(sp, X, [a], neighbor, word_length=3).stabilizer_words
    assert words == (("a", "a", "a"), ("a^-1", "a^-1", "a^-1"))


def orbit_cases():
    """(space, generators): the crossing(3) swaps, the order-3 rotation of
    crossing(3), whose inverse is adjoined, alone and with a swap (words
    mixing a and a^-1 tell a^-1 from a), the nested(4) reflection and the
    triangle-lattice(2) axis reflection."""
    c3 = gen_crossing(3)
    n4 = gen_nested(4)
    lattice, t = lattice_reflection(2)
    a = validate_generator(c3, [(p << 1 | p >> 2) & 7 for p in range(8)], "a")
    return [
        (c3, [cube_swap(c3, i, j, f"s{i}{j}") for i, j in ((0, 1), (1, 2), (0, 2))]),
        (c3, [a]),
        (c3, [a, cube_swap(c3, 0, 1, "s01")]),
        (n4, [validate_generator(n4, [4 - x for x in range(5)], "r")]),
        (lattice, [t]),
    ]


@pytest.mark.parametrize("at", ["base", "neighbour"])
def test_orbit_and_stabilizer_agree_with_oracle(at):
    found_words = 0
    for sp, gens in orbit_cases():
        X = build_complex(sp)
        start = X.base if at == "base" else X.neighbors(X.base)[0][1]
        raw = sp.to_dict()
        orbit, words = oracles.orbit_and_stabilizer(
            raw["points"],
            raw["walls"],
            [(g.name, g.perm) for g in gens],
            encode_section(X.codes[start], sp.wall_count),
            word_length=4,
        )
        orb = orbit_and_stabilizer(sp, X, gens, start, word_length=4)
        assert {encode_section(X.codes[i], sp.wall_count) for i in orb.orbit} == orbit, gens[0].name
        assert orb.stabilizer_words == words, gens[0].name
        found_words += len(words)
    assert found_words > 0


def test_orbit_reports_a_vertex_that_leaves_the_component():
    """crossing(2)'s complex restricted to 00, 10 and 11: the valid swap
    s01 sends 10 to 01, which is not a vertex there.  check_equivariance
    gives the same witness."""
    sp = gen_crossing(2)
    X = CubeComplex(sp, 0, [0b00, 0b01, 0b11], [(0, 1, 0), (1, 2, 1)])
    assert [encode_section(c, 2) for c in X.codes] == ["00", "10", "11"]
    s01 = cube_swap(sp, 0, 1, "s01")
    for run in (
        lambda: check_equivariance(sp, X, s01),
        lambda: orbit_and_stabilizer(sp, X, [s01], X.base),
    ):
        with pytest.raises(EquivarianceViolation) as info:
            run()
        assert str(info.value) == "s01: image of vertex 1 leaves the component"


def test_orbit_budget():
    sp = gen_crossing(3)
    X = build_complex(sp)
    gens = [cube_swap(sp, 0, 1, "s01"), cube_swap(sp, 1, 2, "s12")]
    with pytest.raises(BudgetExceeded):
        orbit_and_stabilizer(sp, X, gens, X.base, word_length=12, max_words=50)


def test_load_generators():
    sp = gen_crossing(3)
    data = json.loads((FIXTURES / "generators_swaps.json").read_text())
    gens = load_generators(sp, data)
    assert [g.name for g in gens] == ["s01", "s12"]
    with pytest.raises(InputError):
        load_generators(sp, {"generators": [{"name": "x"}]})
    with pytest.raises(InputError):
        load_generators(sp, {"generators": []})
    dup = {
        "generators": [
            {"name": "a", "perm": list(range(8))},
            {"name": "a", "perm": list(range(8))},
        ]
    }
    with pytest.raises(InputError):
        load_generators(sp, dup)
    bad = json.loads((FIXTURES / "generators_bad.json").read_text())
    with pytest.raises(HalfSpaceNotPreserved):
        load_generators(sp, bad)


def test_equivariance_with_seeded_relabeled_space():
    # relabel points of a random-ish space by a permutation that fixes
    # the wall family as a whole: the identity is always safe
    rng = random.Random(99)
    from helpers import random_wall_space

    sp = random_wall_space(rng, point_count=6, wall_count=4)
    X = build_complex(sp)
    e = validate_generator(sp, list(range(6)), "e")
    report = check_equivariance(sp, X, e)
    assert report["vertices"] == len(X.codes)
