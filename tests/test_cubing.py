import itertools
import json
import random
from pathlib import Path

import pytest

from cubulate import (
    ComplexityBudgetExceeded,
    CubeComplex,
    FlagViolation,
    InputError,
    MetricMismatch,
    NotInComponent,
    Section,
    WallSpace,
    attach_cubes,
    build_complex,
    build_component,
    check_equivariance,
    check_flag,
    check_metric_correspondence,
    complex_from_dict,
    complex_to_dict,
    contraction_suite,
    dimension,
    to_dot,
)
from cubulate.families import gen_crossing, gen_nested, gen_tree, triangle_lattice

import oracles
from helpers import (
    cube_pairs,
    cube_swap,
    drop_edge,
    forge_nested3_cubes,
    lattice_reflection,
    random_wall_space,
    shipped_examples,
    small_examples,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_component_counts():
    X = build_component(gen_crossing(3))
    assert len(X.codes) == 8
    assert len(X.edges) == 12
    for n in (1, 3, 5):
        X = build_component(gen_nested(n))
        assert len(X.codes) == n + 1
        assert len(X.edges) == n
    X = build_component(WallSpace(2, [[1]]))
    assert len(X.codes) == 2
    assert len(X.edges) == 1


def test_component_equals_brute_force_sections():
    rng = random.Random(555)
    cases = [(name, sp, base) for name, sp, base in small_examples(max_walls=12)]
    cases += [
        (f"random{i}", random_wall_space(rng, point_count=7, wall_count=6), 0)
        for i in range(4)
    ]
    for name, sp, base in cases:
        raw = sp.to_dict()
        expect = oracles.admissible_encodings(raw["points"], raw["walls"])
        X = build_component(sp, base_point=base)
        got = {X.section(i).encode() for i in range(len(X.codes))}
        assert got == expect, name
        got_edges = {(min(u, v), max(u, v)) for u, v, _ in X.edges}
        want_edges = set()
        for a, b in oracles.edges_among(expect):
            i, j = X.index_of(Section.decode(a)), X.index_of(Section.decode(b))
            want_edges.add((min(i, j), max(i, j)))
        assert got_edges == want_edges, name


def test_build_deterministic():
    sp = triangle_lattice(2).space
    a = build_complex(sp)
    b = build_complex(sp)
    assert a.codes == b.codes
    assert a.edges == b.edges
    assert a.cubes == b.cubes


def test_edges_differ_on_label_only():
    for name, sp, base in shipped_examples():
        X = build_component(sp, base_point=base)
        for u, v, w in X.edges:
            a, b = X.section(u), X.section(v)
            diff = [i for i in range(sp.wall_count) if a.bits[i] != b.bits[i]]
            assert diff == [w], name


def test_vertex_budget():
    with pytest.raises(ComplexityBudgetExceeded):
        build_component(gen_crossing(3), max_vertices=4)


@pytest.mark.parametrize("cap", [0, -1, True, 4.0, "8"])
def test_vertex_budget_must_be_a_positive_int(cap):
    with pytest.raises(InputError, match="vertex cap must be a positive integer"):
        build_component(gen_crossing(3), max_vertices=cap)


def test_attach_cubes_cube_model():
    X = build_complex(gen_crossing(3))
    assert X.f_vector() == (8, 12, 6, 1)
    assert dimension(X) == 3
    X = build_complex(gen_nested(4))
    assert X.cubes == {}
    assert dimension(X) == 1


def test_attach_cubes_idempotent():
    X = build_complex(gen_crossing(3))
    before = {k: dict(v) for k, v in X.cubes.items()}
    attach_cubes(X)
    assert X.cubes == before


def test_triangle_lattice_counts():
    tl = triangle_lattice(1)
    X = build_complex(tl.space, base_point=tl.base_point)
    assert X.f_vector() == (20, 36, 21, 4)
    assert dimension(X) == 3


def test_f_vector_matches_oracle():
    rng = random.Random(31337)
    cases = [gen_crossing(n) for n in range(1, 5)]
    cases += [gen_nested(3), triangle_lattice(1).space]
    cases += [random_wall_space(rng, point_count=8, wall_count=7) for _ in range(3)]
    for sp in cases:
        raw = sp.to_dict()
        expect = oracles.f_vector(oracles.admissible_encodings(raw["points"], raw["walls"]))
        assert build_complex(sp).f_vector() == expect


def test_cube_faces_are_registered():
    for sp in (gen_crossing(4), triangle_lattice(1).space):
        X = build_complex(sp)
        pairs = {k: set(cube_pairs(X, X.cubes[k]).values()) for k in X.cubes}
        for k in sorted(X.cubes):
            for b, walls in pairs[k]:
                for size in range(2, k):
                    for sub in itertools.combinations(walls, size):
                        fixed = [w for w in walls if w not in sub]
                        for bits in itertools.product((0, 1), repeat=len(fixed)):
                            on = [w for w, t in zip(fixed, bits) if t]
                            code = X.codes[b] ^ sum(1 << w for w in on)
                            fb = X.index_of(Section.from_code(code, sp.wall_count))
                            assert (fb, sub) in pairs[size]


def test_cube_keys_are_canonical():
    X = build_complex(gen_crossing(4))
    for k, registry in X.cubes.items():
        pairs = list(cube_pairs(X, registry).values())
        assert len(pairs) == len(set(pairs))
        for b, walls in pairs:
            assert all(X.section(b).bits[w] == 0 for w in walls)
            assert list(walls) == sorted(walls)


def test_dimension_equals_intersection_number_on_examples():
    for name, sp, base in shipped_examples():
        X = build_complex(sp, base_point=base)
        assert dimension(X) == sp.intersection_number(), name


def test_check_flag_passes_on_generated():
    for name, sp, base in shipped_examples():
        X = build_complex(sp, base_point=base)
        assert check_flag(X), name


@pytest.mark.parametrize(
    "space, gen",
    [(gen_crossing(4), cube_swap(gen_crossing(4), 0, 1, "s01")), lattice_reflection(2)],
    ids=["crossing4", "triangle2"],
)
def test_cube_stages_use_int_keys(space, gen):
    """The int key ``code | span << m`` is the only cube key: no
    translation to a second form is left, every key of X.cubes[k] spans
    k walls, and the contraction and equivariance suites, which look
    squares and image cubes up by key, pass."""
    import cubulate.cubing as cubing

    assert not hasattr(cubing, "_cube_key")
    X = attach_cubes(build_component(space))
    m = space.wall_count
    assert X.cubes[2]
    for k, registry in X.cubes.items():
        for key in registry:
            assert type(key) is int and (key >> m).bit_count() == k
    assert check_flag(X)
    assert contraction_suite(X, seed=3, runs=20)["square_moves"] > 0
    assert check_equivariance(space, X, gen)["cubes"] == sum(map(len, X.cubes.values()))


def test_check_flag_negative_fixture():
    sp = WallSpace.from_dict(json.loads((FIXTURES / "crossing3_space.json").read_text()))
    data = json.loads((FIXTURES / "crossing3_missing_cube.json").read_text())
    X = complex_from_dict(sp, data)
    with pytest.raises(FlagViolation) as info:
        check_flag(X)
    assert len(info.value.walls) == 3
    assert 0 <= info.value.vertex < len(X.codes)


def test_attach_cubes_rejects_component_missing_a_vertex():
    # attach_cubes registers the corners it finds without checking them;
    # check_flag finds the square whose far vertex is gone
    X = build_component(gen_crossing(3))
    keep = [i for i in range(len(X.codes)) if X.section(i).encode() != "111"]
    new = {old: i for i, old in enumerate(keep)}
    broken = CubeComplex(
        X.space,
        X.base,
        [X.codes[i] for i in keep],
        [{w: new[j] for w, j in X.adjacency[i].items() if j in new} for i in keep],
    )
    assert broken.edges == tuple(
        (new[u], new[v], w) for u, v, w in X.edges if u in new and v in new
    )
    attach_cubes(broken)
    with pytest.raises(FlagViolation) as info:
        check_flag(broken)
    assert str(info.value) == (
        "vertex 1: the 2-cube over walls [1, 2] is not in the complex: "
        "one of its edges is missing"
    )


@pytest.mark.parametrize(
    "adjacency, witness",
    [
        ([{0: 0}, {}], "edge [0, 0, 0]: endpoints do not differ exactly on wall 0"),
        ([{0: 1}, {}], "edge [0, 1, 0] is listed at vertex 0 only"),
        ([{}, {0: 0}], "edge [0, 1, 0] is listed at vertex 1 only"),
        ([{1: 1}, {1: 0}], "edge [0, 1, 1]: endpoints do not differ exactly on wall 1"),
    ],
    ids=["self_loop", "one_end", "other_end", "wrong_wall"],
)
def test_constructor_checks_each_adjacency_entry(adjacency, witness):
    # a self-loop would make EdgeLoop(X, [0, 0]) a closed loop of odd length
    with pytest.raises(InputError) as info:
        CubeComplex(gen_crossing(1), 0, [0, 1], adjacency)
    assert str(info.value) == witness


def drop_square_under_cube(d):
    d["cubes"]["2"].remove([0, [0, 1]])


def add_square_off_its_corner(d):
    d["cubes"]["2"].append([d["vertices"].index("100"), [0, 1]])


@pytest.mark.parametrize(
    "space, tamper, witness",
    [
        (gen_nested(3), forge_nested3_cubes, "do not cross"),
        (gen_crossing(3), drop_square_under_cube, r"facet over walls \[0, 1\]"),
        (gen_crossing(3), add_square_off_its_corner, "chooses a complement side"),
    ],
    ids=["non_crossing_walls", "dropped_facet", "off_corner"],
)
def test_check_flag_rejects_forged_cubes(space, tamper, witness):
    data = complex_to_dict(build_complex(space))
    tamper(data)
    X = complex_from_dict(space, data)
    with pytest.raises(FlagViolation, match=witness) as info:
        check_flag(X)
    assert 0 <= info.value.vertex < len(X.codes)
    assert info.value.walls


def test_graph_distance():
    cube = gen_crossing(3)
    X = build_complex(cube)
    anti = X.index_of(Section.decode("111"))
    assert X.distance_table([X.base, anti]) == [[0, 3], [3, 0]]
    vertices = range(len(X.codes))
    table = X.distance_table(vertices)
    for u in vertices:
        assert X.bfs_tree(u)[0] == table[u]
        for v in vertices:
            assert table[v][u] == oracles.hamming(
                X.section(u).encode(), X.section(v).encode()
            )


@pytest.mark.parametrize(
    "space, witness",
    [
        (gen_tree(2, 3), "points 0 and 1 are separated by 2 walls but their "
         "principal vertices are -1 edges apart"),
        (gen_crossing(3), "points 0 and 1 are separated by 1 walls but their "
         "principal vertices are 3 edges apart"),
    ],
    ids=["tree2x3", "crossing3"],
)
def test_metric_correspondence_rejects_a_dropped_edge(space, witness):
    X = build_complex(space)
    assert check_metric_correspondence(space, X)["pairs"] == 28
    cut = complex_from_dict(space, drop_edge(complex_to_dict(X)))
    assert len(cut.edges) == len(X.edges) - 1
    with pytest.raises(MetricMismatch) as info:
        check_metric_correspondence(space, cut)
    assert str(info.value) == witness


def test_edge_wall():
    X = build_complex(triangle_lattice(2).space)
    for u, v, w in X.edges:
        assert X.edge_wall(u, v) == X.edge_wall(v, u) == w
        assert X.edge_wall(X.section(u), X.section(v)) == w
    u, v, _ = X.edges[0]
    far = next(x for x in range(len(X.codes)) if x != u and x not in X.adjacency[u].values())
    for i, j in ((u, u), (u, far), (far, u)):
        with pytest.raises(InputError, match="not adjacent"):
            X.edge_wall(i, j)
    with pytest.raises(NotInComponent):
        X.edge_wall(u, len(X.codes))


def test_graph_distance_not_in_component():
    sp = gen_nested(3)
    X = build_complex(sp)
    with pytest.raises(NotInComponent):
        X.distance_table([Section.decode("101"), X.base])
    with pytest.raises(NotInComponent):
        X.index_of(99)
    with pytest.raises(NotInComponent):
        X.distance_table([0, 99])
    with pytest.raises(InputError, match="distinct"):
        X.distance_table([0, 0])


def test_complex_json_roundtrip():
    for sp in (gen_crossing(3), gen_nested(4), triangle_lattice(1).space):
        X = build_complex(sp)
        data = json.loads(json.dumps(complex_to_dict(X)))
        Y = complex_from_dict(sp, data)
        assert Y.codes == X.codes and Y.base == X.base
        assert Y.edges == X.edges
        assert Y.cubes == X.cubes
        assert check_flag(Y)


def one_wall_complex_counted_true(d):
    """Replace d by the one-wall complex of nested(1) with its wall count
    written as JSON true; the space to load it against is returned."""
    sp = gen_nested(1)
    d.clear()
    d.update(complex_to_dict(build_complex(sp)), walls=True)
    return sp


# Each edge flips exactly its wall's bit, so every closed loop is even
# and the parity suite need not count; these two edges break that.  They
# stay lambdas so that the unnamed cases keep their ids <lambda>0..9.
# Listed first, a bad edge's adjacency entry is overwritten by a valid
# edge with the same vertex and wall, so the loader must test it itself.
two_wall_edge = lambda d: d["edges"].append([0, 3, 0])
self_loop_edge = lambda d: d["edges"].append([0, 0, 0])
two_wall_edge_first = lambda d: d["edges"].insert(0, [0, 3, 0])
self_loop_edge_first = lambda d: d["edges"].insert(0, [0, 0, 0])
WITNESSES = {
    two_wall_edge: r"edge \[0, 3, 0\]: endpoints do not differ exactly on wall 0",
    self_loop_edge: r"edge \[0, 0, 0\]: endpoints do not differ exactly on wall 0",
    two_wall_edge_first: r"edge \[0, 3, 0\]: endpoints do not differ exactly on wall 0",
    self_loop_edge_first: r"edge \[0, 0, 0\]: endpoints do not differ exactly on wall 0",
}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("cubes"),
        lambda d: d.__setitem__("walls", 5),
        lambda d: d.__setitem__("base", "111111"),
        lambda d: d["vertices"].append(d["vertices"][0]),
        two_wall_edge,
        lambda d: d["edges"].__setitem__(0, [0, 1]),
        lambda d: d.__setitem__("cubes", {"1": []}),
        lambda d: d["cubes"]["2"].append([0, [1, 0]]),
        lambda d: d.__setitem__("edges", 5),
        lambda d: d.__setitem__("cubes", {"2": 7}),
        # JSON true and false load as bools, and isinstance(True, int) holds
        pytest.param(lambda d: d["edges"].append([True, 3, 1]), id="bool_edge_vertex"),
        pytest.param(lambda d: d["edges"].append([0, 1, False]), id="bool_edge_wall"),
        pytest.param(lambda d: d["cubes"].__setitem__("2", [[False, [0, 1]]]), id="bool_cube_vertex"),
        pytest.param(lambda d: d["cubes"].__setitem__("2", [[0, [False, True]]]), id="bool_cube_walls"),
        pytest.param(one_wall_complex_counted_true, id="bool_wall_count"),
        # a dimension key must be written as str(k): "02" and " 2" also name 2
        pytest.param(lambda d: d.__setitem__("cubes", {"02": d["cubes"]["2"], "2": []}), id="key_02"),
        pytest.param(lambda d: d.__setitem__("cubes", {" 2": d["cubes"]["2"]}), id="key_space_2"),
        pytest.param(lambda d: d["cubes"].__setitem__("2", [[0, ["a", 1]]]), id="str_cube_wall"),
        pytest.param(self_loop_edge, id="self_loop_edge"),
        pytest.param(two_wall_edge_first, id="two_wall_edge_first"),
        pytest.param(self_loop_edge_first, id="self_loop_edge_first"),
    ],
)
def test_complex_from_dict_rejects_malformed(mutate):
    sp = gen_crossing(2)
    data = complex_to_dict(build_complex(sp))
    sp = mutate(data) or sp
    with pytest.raises(InputError, match=WITNESSES.get(mutate)):
        complex_from_dict(sp, data)


def test_to_dot():
    X = build_complex(gen_crossing(2))
    dot = to_dot(X)
    lines = dot.splitlines()
    assert lines[0] == "graph cubing {"
    assert lines[-1] == "}"
    assert sum(1 for ln in lines if " -- " in ln) == 4
    assert sum(1 for ln in lines if "peripheries=2" in ln) == 1
    assert sum(1 for ln in lines if ln.strip().startswith("v") and "label" in ln) == 8
