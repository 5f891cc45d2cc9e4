import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubulate import (
    ComplexityBudgetExceeded,
    CubeComplex,
    FlagViolation,
    InputError,
    MetricMismatch,
    NotInComponent,
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
    decode_section,
    dimension,
    encode_section,
    to_dot,
)
from cubulate import cubing, sections
from cubulate.families import gen_crossing, gen_nested, gen_tree, triangle_lattice

import oracles
from helpers import (
    cube_pairs,
    cube_swap,
    drop_edge,
    flag_verdict,
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
        got = {encode_section(c, sp.wall_count) for c in X.codes}
        assert got == expect, name
        got_edges = {(min(u, v), max(u, v)) for u, v, _ in X.edges}
        want_edges = set()
        for a, b in oracles.edges_among(expect):
            i, j = (X.index[decode_section(t, sp.wall_count)] for t in (a, b))
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
            a, b = X.codes[u], X.codes[v]
            diff = [i for i in range(sp.wall_count) if (a ^ b) >> i & 1]
            assert diff == [w], name


def test_vertex_budget():
    with pytest.raises(ComplexityBudgetExceeded):
        build_component(gen_crossing(3), max_vertices=4)


def test_vertex_budget_is_applied_to_the_clique_count_first(monkeypatch):
    # the count refuses crossing(3) under a cap of 4 before the BFS reads
    # its pointed masks, the first thing it computes
    def no_bfs(*args):
        raise AssertionError("the BFS ran")

    monkeypatch.setattr(cubing, "_pointed", no_bfs)
    with pytest.raises(ComplexityBudgetExceeded, match="^component exceeds the vertex cap 4$"):
        build_component(gen_crossing(3), max_vertices=4)
    # and the BFS keeps its own guard when the count is not there to stop it
    monkeypatch.undo()
    monkeypatch.setattr(cubing, "_f_count", lambda space, limit: (1,))
    with pytest.raises(ComplexityBudgetExceeded, match="^component exceeds the vertex cap 4$"):
        build_component(gen_crossing(3), max_vertices=4)


def _reordered(space, order):
    """The space with its walls in the given order of wall ids."""
    return WallSpace(space.point_count, [list(space.points_in(2 * w)) for w in order])


def _assert_build_matches_oracle(space, base_point):
    X = build_component(space, base_point)
    codes, adjacency = oracles.flip_test_bfs(space, base_point)
    assert list(X.codes) == codes
    # same maps with the same insertion order
    assert [list(a.items()) for a in X.adjacency] == [list(a.items()) for a in adjacency]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(2, 8), st.integers(1, 7), st.integers(0, 1 << 32))
def test_build_matches_the_flip_test_bfs(n, m, seed):
    rng = random.Random(seed)
    space = random_wall_space(rng, point_count=n, wall_count=min(m, 2 ** (n - 1) - 1))
    shuffled = list(space.walls())
    rng.shuffle(shuffled)
    for order in (space.walls(), reversed(space.walls()), shuffled):
        reordered = _reordered(space, order)
        for p in space.points():
            _assert_build_matches_oracle(reordered, p)


def test_build_matches_the_flip_test_bfs_on_reordered_families():
    nested = gen_nested(60)
    _assert_build_matches_oracle(_reordered(nested, reversed(nested.walls())), 0)
    _assert_build_matches_oracle(_reordered(nested, reversed(nested.walls())), 30)
    tree = gen_tree(2, 4)
    shuffled = list(tree.walls())
    random.Random(5).shuffle(shuffled)
    for p in (0, 7, 15):
        _assert_build_matches_oracle(_reordered(tree, shuffled), p)


def test_build_runs_no_flip_test(monkeypatch):
    tl = triangle_lattice(2)
    cases = [(gen_crossing(4), 3), (gen_nested(6), 2), (gen_tree(3, 2), 4), (tl.space, tl.base_point)]
    expected = [oracles.flip_test_bfs(space, p)[0] for space, p in cases]

    def forbidden(*args):
        raise AssertionError("build_component ran a flip test")

    monkeypatch.setattr(cubing, "admissible_flips", forbidden)
    monkeypatch.setattr(sections, "admissible_flips", forbidden)
    assert [list(build_component(space, p).codes) for space, p in cases] == expected


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
                            fb = X.index[code]
                            assert (fb, sub) in pairs[size]


def test_cube_keys_are_canonical():
    X = build_complex(gen_crossing(4))
    for k, registry in X.cubes.items():
        pairs = list(cube_pairs(X, registry).values())
        assert len(pairs) == len(set(pairs))
        for b, walls in pairs:
            assert all(X.codes[b] >> w & 1 == 0 for w in walls)
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
    keep = [i for i, c in enumerate(X.codes) if c != 0b111]
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
        ([{0: 5}, {}], "vertex 0: entry 0: 5 is not a wall and a vertex index"),
        ([{0: "x"}, {}], "vertex 0: entry 0: 'x' is not a wall and a vertex index"),
        ([{-1: 1}, {}], "vertex 0: entry -1: 1 is not a wall and a vertex index"),
        ([{0: -1}, {0: 0}], "vertex 0: entry 0: -1 is not a wall and a vertex index"),
    ],
    ids=["self_loop", "one_end", "other_end", "wrong_wall", "far_end", "str_far_end",
         "negative_wall", "negative_far_end"],
)
def test_constructor_checks_each_adjacency_entry(adjacency, witness):
    # a self-loop would make EdgeLoop(X, [0, 0]) a closed loop of odd length
    with pytest.raises(InputError) as info:
        CubeComplex(gen_crossing(1), 0, [0, 1], adjacency)
    assert str(info.value) == witness


@pytest.mark.parametrize(
    "base, codes, adjacency, witness",
    [
        (7, [0, 1], [{0: 1}, {0: 0}], "base 7 is not a vertex index in 0..1"),
        (0, [0, 1 << 40], [{40: 1}, {40: 0}], "vertex codes must be ints that fit 1 bits"),
        (0, [0, -1], [{}, {}], "vertex codes must be ints that fit 1 bits"),
        (0, [0, "1"], [{}, {}], "vertex codes must be ints that fit 1 bits"),
        (0, [0, 1], [{0: 1}, {0: 0}, {}], "3 adjacency maps for 2 vertices"),
        (0, [1, 1], [{}, {}], "two vertices share a code"),
    ],
    ids=["base", "wide_code", "negative_code", "str_code", "extra_map", "duplicate_code"],
)
def test_constructor_checks_base_and_codes(base, codes, adjacency, witness):
    with pytest.raises(InputError) as info:
        CubeComplex(gen_crossing(1), base, codes, adjacency)
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


def _no_link_search(X):
    raise AssertionError("a passing flag check searched the vertex links")


@pytest.mark.parametrize(
    "space",
    [gen_nested(300), gen_crossing(8), gen_tree(2, 7), triangle_lattice(6).space]
    + [sp for _, sp, _ in shipped_examples()],
    ids=["nested300", "cube_dense", "wall_sparse", "lattice_mixed"]
    + [name for name, _, _ in shipped_examples()],
)
def test_passing_check_flag_searches_no_link(space, monkeypatch):
    """The count certificate passes every built complex and its reloaded
    file, so the link search never runs on them."""
    monkeypatch.setattr(cubing, "_search_links", _no_link_search)
    for base in sorted({0, space.point_count - 1}):
        X = build_complex(space, base_point=base)
        assert check_flag(X)
        assert check_flag(complex_from_dict(space, complex_to_dict(X)))


@pytest.mark.parametrize("space", [gen_crossing(4), triangle_lattice(2).space],
                         ids=["crossing4", "triangle2"])
def test_dropping_any_cube_takes_the_search(space):
    """Without any one of its cubes a built complex fails the count, and
    check_flag's verdict and witness are those of the link search
    followed by _check_cubes."""
    X = build_complex(space)
    assert cubing._certified(X)
    failed = 0
    for k, registry in X.cubes.items():
        for b, walls in cube_pairs(X, registry).values():
            data = complex_to_dict(X)
            data["cubes"][str(k)].remove([b, list(walls)])
            Y = complex_from_dict(space, data)
            assert not cubing._certified(Y)
            verdict = flag_verdict(lambda: check_flag(Y))
            assert verdict == flag_verdict(
                lambda: cubing._search_links(Y), lambda: cubing._check_cubes(Y)
            )
            failed += verdict is not None
    assert failed


def test_certificate_needs_every_vertex_admissible():
    """nested(3)'s complex is the path 111-011-001-000.  The path
    111-110-100-000 has its f-vector, but 110 and 100 choose disjoint
    sides, so the tree test refuses it."""
    sp = gen_nested(3)
    data = {
        "walls": 3,
        "base": "111",
        "vertices": ["111", "110", "100", "000"],
        "edges": [[0, 1, 2], [1, 2, 1], [2, 3, 0]],
        "cubes": {},
    }
    X = complex_from_dict(sp, data)
    assert X.f_vector() == cubing._f_count(sp, 4) == (4, 3)
    assert not cubing._certified(X)


def test_count_falls_back_on_a_small_complex_over_many_crossing_walls():
    """40 pairwise crossing walls have 2^40 cliques.  Counting stops
    after a few of them and a few recursion levels, so the certificate
    refuses a 3-vertex file at once and the search gives today's
    verdict, and a build is refused under the default cap before the BFS."""
    m = 40
    # points 0, e_i and e_i + e_j; wall w holds the points with coordinate w
    # zero on its listed side, so all four quadrants of two walls are filled
    points = [0] + [1 << i for i in range(m)]
    points += [1 << i | 1 << j for i, j in itertools.combinations(range(m), 2)]
    sp = WallSpace(len(points), [[p for p, x in enumerate(points) if not x >> w & 1]
                                 for w in range(m)])
    assert sp.crosses(0, 39)
    zero = "0" * m
    data = {
        "walls": m,
        "base": zero,
        "vertices": [zero, "1" + zero[1:], "01" + zero[2:]],
        "edges": [[0, 1, 0], [0, 2, 1]],
        "cubes": {},
    }
    X = complex_from_dict(sp, data)
    assert not cubing._certified(X)
    assert check_flag(X)
    with pytest.raises(ComplexityBudgetExceeded, match="vertex cap 1048576$"):
        build_component(sp)
    # under the default cap the count descends 20 walls, one lookup each:
    # a 21-clique alone has more than 2^20 subsets
    lookups = []

    class Link(list):
        def __getitem__(self, w):
            lookups.append(w)
            return list.__getitem__(self, w)

    assert cubing._cliques((1 << m) - 1, Link(sp._crossing_masks), 1, (1 << 20) - 1) is None
    assert lookups == list(range(20))


def test_graph_distance():
    cube = gen_crossing(3)
    X = build_complex(cube)
    anti = X.index[0b111]
    assert X.distance_table([X.base, anti]) == [[0, 3], [3, 0]]
    vertices = range(len(X.codes))
    table = X.distance_table(vertices)
    for u in vertices:
        assert X.bfs_tree(u)[0] == table[u]
        for v in vertices:
            assert table[v][u] == oracles.hamming(
                encode_section(X.codes[u], 3), encode_section(X.codes[v], 3)
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


@pytest.mark.parametrize(
    "space, edges",
    [(gen_crossing(3), 12), (gen_tree(2, 3), 13), (triangle_lattice(2).space, 171)],
    ids=["crossing3", "tree2x3", "triangle2"],
)
def test_metric_correspondence_rejects_every_dropped_edge(space, edges):
    # on triangle2, 123 of these cuts keep every principal pair at its distance
    data = complex_to_dict(build_complex(space))
    assert len(data["edges"]) == edges
    for k in range(edges):
        with pytest.raises(MetricMismatch):
            check_metric_correspondence(space, complex_from_dict(space, drop_edge(data, k)))


def test_metric_correspondence_names_the_vertex_when_pairs_agree():
    space = triangle_lattice(2).space
    cut = complex_from_dict(space, drop_edge(complex_to_dict(build_complex(space))))
    with pytest.raises(MetricMismatch) as info:
        check_metric_correspondence(space, cut)
    assert str(info.value) == (
        "vertex 1: no edge at it flips a wall separating it from vertex 0, "
        "the principal vertex of point 0, 1 walls away"
    )


@pytest.mark.parametrize(
    "space",
    [gen_nested(300), gen_crossing(10), gen_crossing(8), gen_tree(2, 7), triangle_lattice(6).space],
    ids=["nested300", "crossing10", "cube_dense", "wall_sparse", "lattice_mixed"],
)
def test_metric_correspondence_passes_without_a_traversal(space, monkeypatch):
    # the descent test is linear; a passing run must not sweep or BFS
    X = build_component(space)

    def forbidden(*args):
        raise AssertionError("a passing metric check ran a traversal")

    monkeypatch.setattr(CubeComplex, "distance_table", forbidden)
    monkeypatch.setattr(CubeComplex, "bfs_tree", forbidden)
    report = check_metric_correspondence(space, X)
    assert report["principal_vertices"] == space.point_count


def test_edge_wall():
    X = build_complex(triangle_lattice(2).space)
    for u, v, w in X.edges:
        assert X.edge_wall(u, v) == X.edge_wall(v, u) == w
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
        X.distance_table(["101", X.base])
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


def _raises_exactly(message, call, *args):
    with pytest.raises(InputError) as caught:
        call(*args)
    assert type(caught.value) is InputError
    assert str(caught.value) == message


# int() accepts "0_1", " 01", "0b1" and the Arabic-Indic one, so the
# character test must reject them before any conversion
@pytest.mark.parametrize(
    "text, message",
    [
        ("0_1", "section encoding must be a 0/1 string, got '0_1'"),
        (" 01", "section encoding must be a 0/1 string, got ' 01'"),
        ("0b1", "section encoding must be a 0/1 string, got '0b1'"),
        ("١", "section encoding must be a 0/1 string, got '١'"),
        ("", "section encoding has length 0, expected 3"),
    ],
    ids=["underscore", "space", "0b", "arabic_indic_one", "empty"],
)
def test_malformed_vertex_encodings_keep_their_messages(text, message):
    _raises_exactly(message, decode_section, text, 3)
    sp = gen_crossing(3)
    data = complex_to_dict(build_complex(sp))
    data["vertices"][1] = text
    _raises_exactly(message, complex_from_dict, sp, data)


# crossing(2): vertex 1 is "10" and vertex 2 is "01", so [0, 1, 0],
# [0, 2, 1] and [0, [0, 1]] are valid entries before the bad value
@pytest.mark.parametrize("bad", [True, 1.0], ids=["true", "float"])
@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d, x: d["edges"].append([0, x, 0]), "edge [0, {x}, 0]: vertex index out of range"),
        (lambda d, x: d["edges"].append([0, 2, x]), "edge [0, 2, {x}]: wall out of range"),
        (lambda d, x: d["cubes"].__setitem__("2", [[x, [0, 1]]]),
         "cube entry [{x}, [0, 1]]: vertex index out of range"),
        (lambda d, x: d["cubes"].__setitem__("2", [[0, [0, x]]]),
         "cube entry [0, [0, {x}]]: walls must be 2 sorted wall ids"),
    ],
    ids=["edge_end", "edge_wall", "cube_vertex", "cube_wall"],
)
def test_non_int_indices_keep_their_messages(mutate, message, bad):
    sp = gen_crossing(2)
    data = complex_to_dict(build_complex(sp))
    mutate(data, bad)
    _raises_exactly(message.format(x=bad), complex_from_dict, sp, data)


@pytest.mark.parametrize("walls", [[1, 0], [0, 0]], ids=["unsorted", "repeated"])
def test_unsorted_or_repeated_cube_walls_keep_their_message(walls):
    sp = gen_crossing(2)
    data = complex_to_dict(build_complex(sp))
    data["cubes"]["2"] = [[0, walls]]
    _raises_exactly(f"cube entry [0, {walls}]: walls must be 2 sorted wall ids",
                    complex_from_dict, sp, data)


def test_empty_cube_lists_register_no_dimension():
    sp = gen_crossing(2)
    data = complex_to_dict(build_complex(sp))
    data["cubes"].update({"3": [], "7": []})
    X = complex_from_dict(sp, data)
    assert dimension(X) == 2 == sp.intersection_number()
    assert X.f_vector() == (4, 4, 1)
    assert X.cubes == build_complex(sp).cubes


def test_to_dot():
    X = build_complex(gen_crossing(2))
    dot = to_dot(X)
    lines = dot.splitlines()
    assert lines[0] == "graph cubing {"
    assert lines[-1] == "}"
    assert sum(1 for ln in lines if " -- " in ln) == 4
    assert sum(1 for ln in lines if "peripheries=2" in ln) == 1
    assert sum(1 for ln in lines if ln.strip().startswith("v") and "label" in ln) == 8
