import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubulate import (
    CertificateError,
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
    deep_clique_space,
    drop_edge,
    flag_verdict,
    forge_nested3_cubes,
    forged_star,
    lattice_reflection,
    oracle_flag_verdicts,
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
    # the count refuses crossing(3) under a cap of 4 before any vertex is
    # listed; the complex has exactly the counted vertices, so the build
    # needs no guard of its own
    def no_listing(*args):
        raise AssertionError("a vertex was listed")

    monkeypatch.setattr(cubing, "_vertices", no_listing)
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
    edges = [(new[u], new[v], w) for u, v, w in X.edges if u in new and v in new]
    # the constructor sorts the edges it is given
    broken = CubeComplex(X.space, X.base, [X.codes[i] for i in keep], edges[::-1])
    assert broken.edges == tuple(edges)
    attach_cubes(broken)
    with pytest.raises(FlagViolation) as info:
        check_flag(broken)
    assert str(info.value) == (
        "vertex 1: the 2-cube over walls [1, 2] is not in the complex: "
        "it has edges on all its walls at only 1 of its 4 vertices"
    )


@pytest.mark.parametrize(
    "edges, witness",
    [
        ([[0, 0, 0]], "edge [0, 0, 0]: endpoints do not differ exactly on wall 0"),
        ([[0, 1, 1]], "edge [0, 1, 1]: wall out of range"),
        ([[0, 5, 0]], "edge [0, 5, 0]: vertex index out of range"),
        ([[0, "x", 0]], "edge [0, 'x', 0]: vertex index out of range"),
        ([[0, 1, -1]], "edge [0, 1, -1]: wall out of range"),
        ([[0, -1, 0]], "edge [0, -1, 0]: vertex index out of range"),
        ([[0, 1, 0], [1, 0, 0]], "edge [1, 0, 0] is listed twice"),
        ([[0, 1]], "edge entries must be [u, v, wall], got [0, 1]"),
    ],
    ids=["self_loop", "wrong_wall", "far_end", "str_far_end", "negative_wall",
         "negative_far_end", "reversed_twice", "pair"],
)
def test_constructor_checks_each_adjacency_entry(edges, witness):
    # each edge entry is checked before it enters the adjacency maps; a
    # self-loop would make EdgeLoop(X, [0, 0]) a closed loop of odd length
    with pytest.raises(InputError) as info:
        CubeComplex(gen_crossing(1), 0, [0, 1], edges)
    assert str(info.value) == witness


@pytest.mark.parametrize(
    "base, codes, edges, witness",
    [
        (7, [0, 1], [[0, 1, 0]], "base 7 is not a vertex index in 0..1"),
        (0, [0, 1 << 40], [[0, 1, 40]], "vertex codes must be ints that fit 1 bits"),
        (0, [0, -1], [], "vertex codes must be ints that fit 1 bits"),
        (0, [0, "1"], [], "vertex codes must be ints that fit 1 bits"),
        (0, [1, 1], [], "duplicate vertex encoding 1"),
    ],
    ids=["base", "wide_code", "negative_code", "str_code", "duplicate_code"],
)
def test_constructor_checks_base_and_codes(base, codes, edges, witness):
    with pytest.raises(InputError) as info:
        CubeComplex(gen_crossing(1), base, codes, edges)
    assert str(info.value) == witness


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 1 << 32), st.integers(0, 4))
def test_constructor_accepts_an_edge_list_exactly_when_each_entry_is_new_and_flips_its_wall(
    n, m, seed, mutations
):
    """The edges of a built complex with up to four random changes (an
    entry dropped, reversed, listed again in either orientation, or
    given another wall) in random order, as lists or tuples: the
    constructor names the first entry that repeats an edge or does not
    flip exactly its wall, or derives symmetric adjacency maps and the
    sorted edges of the set."""
    rng = random.Random(seed)
    space = random_wall_space(rng, point_count=n, wall_count=min(m, 2 ** (n - 1) - 1))
    m = space.wall_count
    X = build_component(space)
    entries = [list(e) for e in X.edges]
    rng.shuffle(entries)
    for kind in (rng.randrange(4) for _ in range(mutations)):
        if not entries:
            break
        i = rng.randrange(len(entries))
        u, v, w = entries[i]
        if kind == 0:
            del entries[i]
        elif kind == 1:
            entries[i] = [v, u, w]
        elif kind == 2:
            entries.insert(rng.randrange(len(entries) + 1), rng.choice([[u, v, w], [v, u, w]]))
        else:
            entries[i] = [u, v, rng.choice([x for x in range(-1, m + 1) if x != w])]
    entries = [tuple(e) if rng.random() < 0.5 else e for e in entries]
    seen, bad = set(), None
    for e in entries:
        u, v, w = e
        edge = (min(u, v), max(u, v), w)
        if not 0 <= w < m or X.codes[u] ^ X.codes[v] != 1 << w or edge in seen:
            bad = e
            break
        seen.add(edge)
    if bad is not None:
        with pytest.raises(InputError) as info:
            CubeComplex(space, X.base, X.codes, entries)
        assert str(info.value).startswith(f"edge {bad!r}")
        return
    Y = CubeComplex(space, X.base, X.codes, entries)
    assert Y.edges == tuple(sorted(seen))
    assert {(min(u, v), max(u, v), w) for u, a in enumerate(Y.adjacency) for w, v in a.items()} == seen
    assert all(Y.adjacency[v][w] == u for u, a in enumerate(Y.adjacency) for w, v in a.items())


def drop_square_under_cube(d):
    d["cubes"]["2"].remove([0, [0, 1]])


def add_square_off_its_corner(d):
    d["cubes"]["2"].append([d["vertices"].index("100"), [0, 1]])


@pytest.mark.parametrize(
    "space, tamper, witness",
    [
        (gen_nested(3), forge_nested3_cubes, "do not cross"),
        (gen_crossing(3), drop_square_under_cube,
         r"^vertex 0: walls \[0, 1\] cross and label edges at it, but no 2-cube is registered$"),
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


def _no_vertex_walk(X):
    raise AssertionError("a passing flag check walked the vertices for a missing cube")


@pytest.mark.parametrize(
    "space",
    [gen_nested(300), gen_crossing(8), gen_tree(2, 7), triangle_lattice(6).space]
    + [sp for _, sp, _ in shipped_examples()],
    ids=["nested300", "cube_dense", "wall_sparse", "lattice_mixed"]
    + [name for name, _, _ in shipped_examples()],
)
def test_passing_check_flag_searches_no_link(space, monkeypatch):
    """The count certificate passes every built complex and its reloaded
    file, so the walk for a missing cube never runs on them."""
    monkeypatch.setattr(cubing, "_missing_cube", _no_vertex_walk)
    for base in sorted({0, space.point_count - 1}):
        X = build_complex(space, base_point=base)
        assert check_flag(X)
        assert check_flag(complex_from_dict(space, complex_to_dict(X)))


@pytest.mark.parametrize("space", [gen_crossing(4), triangle_lattice(2).space],
                         ids=["crossing4", "triangle2"])
def test_dropping_any_cube_takes_the_search(space):
    """Without any one of its cubes a built complex fails the count, and
    check_flag fails it with the oracles' witness: the first corner whose
    cube is missing, else the first registered cube that is not in the
    complex.  Every drop that leaves a link that is not flag is among
    the failures."""
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
            witness, links_not_flag = oracle_flag_verdicts(Y)
            assert verdict == witness
            assert verdict is not None or not links_not_flag
            failed += verdict is not None
    assert failed


def _square_over_non_crossing_walls(X, key):
    # a vertex with edges on two walls that do not cross, on whose listed
    # sides it lies: only the crossing test refuses the key
    m = X.space.wall_count
    for vi, code in enumerate(X.codes):
        free = [w for w in sorted(X.adjacency[vi]) if not code >> w & 1]
        for a, b in itertools.combinations(free, 2):
            if not X.space.crosses(a, b):
                return code | (1 << a | 1 << b) << m
    raise AssertionError("no vertex has edges on two non-crossing walls")


def _square_off_its_edges(X, key):
    # the square's crossing walls at a vertex on their listed sides that
    # has no edge on one of them: only the edge-wall test refuses the key
    m = X.space.wall_count
    span = key >> m
    for vi, code in enumerate(X.codes):
        edge_walls = sum(1 << w for w in X.adjacency[vi])
        if not code & span and edge_walls & span != span:
            return code | span << m
    raise AssertionError("every vertex on the listed sides has both edges")


def _three_walls_in_squares(X, key):
    # the 3-cube's own key, registered a second time as a square
    return next(iter(X.cubes[3]))


@pytest.mark.parametrize(
    "space, forged",
    [
        (triangle_lattice(2).space, _square_over_non_crossing_walls),
        (triangle_lattice(2).space, _square_off_its_edges),
        (gen_crossing(3), _three_walls_in_squares),
    ],
    ids=["non_crossing_walls", "wall_without_edge", "three_walls_in_cubes2"],
)
def test_certificate_tests_each_cube_key(space, forged):
    """The first square's key swapped for a forged one keeps the
    f-vector and the 1-skeleton, so only the key test refuses it;
    check_flag then gives the oracles' witness."""
    X = build_complex(space)
    old = next(iter(X.cubes[2]))
    new = forged(X, old)
    assert new not in X.cubes[2]
    Y = complex_from_dict(space, complex_to_dict(X))
    Y.cubes[2] = {new if key == old else key: None for key in Y.cubes[2]}
    assert Y.f_vector() == X.f_vector() and cubing._certified(X)
    assert not cubing._certified(Y)
    verdict = flag_verdict(lambda: check_flag(Y))
    assert verdict is not None
    assert verdict == oracle_flag_verdicts(Y)[0]


def test_a_key_registered_in_the_wrong_dimension_is_named():
    """crossing(3) with its 3-cube's key listed among the squares too:
    every cube is in the complex and registered, so the walk misses
    nothing, and the key is named for its span's size."""
    X = build_complex(gen_crossing(3))
    X.cubes[2][next(iter(X.cubes[3]))] = None
    assert not cubing._certified(X)
    verdict = flag_verdict(lambda: check_flag(X))
    assert verdict == "vertex 0: the 2-cube over walls [0, 1, 2] is not in the complex: it spans 3 walls"
    assert verdict == oracle_flag_verdicts(X)[0]


def test_certificate_needs_every_vertex_admissible():
    """nested(3)'s complex is the path 111-011-001-000.  The path
    111-110-100-000 has its f-vector, but 110 and 100 choose disjoint
    sides: the vertices listed from the base (111, 011, 001, 000) are not
    all in the file, so the vertex-set test refuses it."""
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


def test_certificate_lists_the_vertices_it_counted():
    """nested(2)'s complex is 00-01-11 (codes 0b00, 0b10, 0b11).  The
    star 01-00-10 (codes 0b10, 0b00, 0b01) keeps f = (3, 2), an
    admissible base and no cube, but swaps the admissible 11 for the
    inadmissible 10: only the vertex-set test refuses it.  No walls
    cross, so check_flag passes, and the metric suite names point 0,
    whose principal section 11 is missing."""
    sp = gen_nested(2)
    codes = [0b00, 0b10, 0b01]
    data = {
        "walls": 2,
        "base": encode_section(0b00, 2),
        "vertices": [encode_section(c, 2) for c in codes],
        "edges": [[0, 1, 1], [0, 2, 0]],
        "cubes": {},
    }
    X = complex_from_dict(sp, data)
    assert X.f_vector() == cubing._f_count(sp, 3) == (3, 2)
    assert sections.is_admissible(sp, X.codes[X.base])
    assert not sections.is_admissible(sp, 0b01)
    assert not cubing._certified(X)
    assert check_flag(X)
    with pytest.raises(MetricMismatch, match=r"\bpoint 0\b"):
        check_metric_correspondence(sp, X)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(2, 7), st.integers(1, 6), st.integers(0, 1 << 32))
def test_vertices_are_the_admissible_sections_with_their_edges_toward_the_base(n, m, seed):
    """From every admissible section as base, not only the principal
    ones, the listing yields each admissible section exactly once, and
    its down span is the walls of the edges at it that lead one step
    closer to the base."""
    rng = random.Random(seed)
    space = random_wall_space(rng, point_count=n, wall_count=min(m, 2 ** (n - 1) - 1))
    raw, m = space.to_dict(), space.wall_count
    admissible = oracles.admissible_encodings(raw["points"], raw["walls"])
    for base in sorted(admissible):
        listed = [(encode_section(c, m), down) for c, down in cubing._vertices(space, decode_section(base, m))]
        assert sorted(text for text, _ in listed) == sorted(admissible)
        dist = oracles.graph_distances(admissible, base)
        for text, down in listed:
            flipped = (text[:w] + "01"[text[w] == "0"] + text[w + 1:] for w in range(m))
            closer = sum(1 << w for w, t in enumerate(flipped) if dist.get(t) == dist[text] - 1)
            assert down == closer, (base, text)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 1 << 32), st.integers(0, 3))
def test_certified_exactly_when_the_complex_is_the_built_one(n, m, seed, mutations):
    """A built complex with up to three random changes (a vertex moved
    next to another, an edge dropped, a cube key added or dropped)
    and a random vertex as base: the certificate accepts it exactly when
    its codes, edges and cube keys are those of build_complex."""
    rng = random.Random(seed)
    space = random_wall_space(rng, point_count=n, wall_count=min(m, 2 ** (n - 1) - 1))
    m = space.wall_count
    built = build_complex(space)
    codes = set(built.codes)
    keys = {key for registry in built.cubes.values() for key in registry}
    kinds = [rng.randrange(3) for _ in range(mutations)]
    for _ in range(kinds.count(0)):  # a moved leaf keeps the f-vector
        codes.discard(rng.choice(sorted(codes)))
        codes.add(rng.choice([c ^ 1 << w for c in sorted(codes) for w in range(m) if c ^ 1 << w not in codes]))
    codes = sorted(codes)
    edges = {(u, u | 1 << w, w) for u in codes for w in range(m) if not u >> w & 1 and u | 1 << w in codes}
    for _ in range(kinds.count(1)):
        if edges:
            edges.discard(rng.choice(sorted(edges)))
    keys = {key for key in keys if key & (1 << m) - 1 in codes}
    for _ in range(kinds.count(2)):
        if keys and rng.random() < 0.5:
            keys.discard(rng.choice(sorted(keys)))
        elif m >= 2:
            span = sum(1 << w for w in rng.sample(range(m), rng.randrange(2, m + 1)))
            keys.add(rng.choice(codes) | span << m)
    index = {c: i for i, c in enumerate(codes)}
    X = CubeComplex(space, rng.randrange(len(codes)), codes, [(index[u], index[v], w) for u, v, w in sorted(edges)])
    cubes = {}
    for key in sorted(keys):
        cubes.setdefault((key >> m).bit_count(), {})[key] = None
    X.cubes = {k: cubes[k] for k in sorted(cubes)}
    built_edges = {(*sorted((built.codes[u], built.codes[v])), w) for u, v, w in built.edges}
    built_keys = {key for registry in built.cubes.values() for key in registry}
    same = set(codes) == set(built.codes) and edges == built_edges and keys == built_keys
    assert cubing._certified(X) == same


class _CountedLink(list):
    """Neighbour masks that log the index of every read."""

    def __init__(self, masks, log):
        super().__init__(masks)
        self.log = log

    def __getitem__(self, w):
        self.log.append(w)
        return list.__getitem__(self, w)


def test_count_falls_back_on_a_small_complex_over_many_crossing_walls():
    """40 pairwise crossing walls have 2^40 cliques.  Counting stops
    after a few of them and a few recursion levels, so the certificate
    refuses a 3-vertex file at once and the fallback names its missing
    square, and a build is refused under the default cap before the BFS."""
    m = 40
    sp, _ = forged_star(m)
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
    with pytest.raises(FlagViolation) as info:
        check_flag(X)
    assert (info.value.vertex, info.value.walls) == (0, (0, 1))
    with pytest.raises(ComplexityBudgetExceeded, match="vertex cap 1048576$"):
        build_component(sp)
    # under the default cap the count descends 20 walls, one lookup each:
    # a 21-clique alone has more than 2^20 subsets
    lookups = []
    sp._crossing = _CountedLink(sp._crossing_masks, lookups)
    assert cubing._f_count(sp, 1 << 20) is None
    assert lookups == list(range(20))


def test_flag_walk_descends_a_clique_deeper_than_the_recursion_limit():
    """1200 pairwise crossing walls: a file with the base, its 1200
    neighbours and the cubes over walls 0..k-1 at the base for every k
    registers the whole first chain of cliques, so the walk descends all
    1200 levels before it names the first clique off that chain."""
    sp, m = deep_clique_space(), 1200
    data = {
        "walls": m,
        "base": encode_section(0, m),
        "vertices": [encode_section(0, m)] + [encode_section(1 << w, m) for w in range(m)],
        "edges": [[0, w + 1, w] for w in range(m)],
        "cubes": {str(k): [[0, list(range(k))]] for k in range(2, m + 1)},
    }
    X = complex_from_dict(sp, data)
    with pytest.raises(FlagViolation) as info:
        check_flag(X)
    assert (info.value.vertex, info.value.walls) == (0, (*range(m - 2), m - 1))


def test_a_forged_star_fails_flag_without_enumerating_its_link(monkeypatch):
    """18 pairwise crossing walls with every square at the base and no
    3-cube: the base's edges span 2^18 cliques, but the walk for a
    missing cube stops at the first, walls [0, 1, 2], after reading a
    crossing mask for a few of them (and the count for a few more)."""
    m = 18
    sp, data = forged_star(m)
    X = complex_from_dict(sp, data)
    reads, cliques = [], cubing._cliques
    monkeypatch.setattr(
        cubing, "_cliques", lambda cands, link, *rest: cliques(cands, _CountedLink(link, reads), *rest)
    )
    with pytest.raises(FlagViolation) as info:
        check_flag(X)
    assert (info.value.vertex, info.value.walls) == (0, (0, 1, 2))
    assert len(reads) <= m + math.comb(m, 2) + 1
    assert str(info.value) == (
        "vertex 0: walls [0, 1, 2] cross and label edges at it, but no 3-cube is registered"
    )


def test_graph_distance():
    X = build_complex(gen_crossing(3))
    for u in range(len(X.codes)):
        dist, _ = X.bfs_tree(u)
        assert dist == [
            oracles.hamming(encode_section(X.codes[u], 3), encode_section(c, 3)) for c in X.codes
        ]


@pytest.mark.parametrize(
    "space, witness",
    [
        (gen_tree(2, 3), "vertex 0: no edge at it flips a wall separating it from "
         "vertex 3, the principal vertex of point 1, 2 walls away"),
        (gen_crossing(3), "vertex 0: no edge at it flips a wall separating it from "
         "vertex 1, the principal vertex of point 1, 1 walls away"),
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
    # the descent test is linear; a passing run must not BFS
    X = build_component(space)

    def forbidden(*args):
        raise AssertionError("a passing metric check ran a traversal")

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
    for bad in (len(X.codes), -1, True, 1.0):
        with pytest.raises(NotInComponent):
            X.edge_wall(u, bad)
        with pytest.raises(NotInComponent):
            X.edge_wall(bad, v)

    class Index(int):
        pass

    # an int subclass other than bool is an index, as index_of has it
    assert X.edge_wall(Index(u), Index(v)) == X.edge_wall(u, v)


def test_graph_distance_not_in_component():
    sp = gen_nested(3)
    X = build_complex(sp)
    with pytest.raises(NotInComponent):
        X.index_of(99)


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


def _reloaded(data, rng, how):
    """A complex dict as written (how 0), with its vertices renumbered and
    its edge and cube entries shuffled (1), or with one cube entry
    dropped, one forged key added or one edge dropped (2)."""
    data = json.loads(json.dumps(data))
    if how == 1:
        n = len(data["vertices"])
        new = rng.sample(range(n), n)
        vertices = [None] * n
        for old, t in enumerate(data["vertices"]):
            vertices[new[old]] = t
        data["vertices"] = vertices
        data["edges"] = [[new[v], new[u], w] if rng.random() < 0.5 else [new[u], new[v], w]
                         for u, v, w in data["edges"]]
        rng.shuffle(data["edges"])
        for entries in data["cubes"].values():
            entries[:] = [[new[b], walls] for b, walls in entries]
            rng.shuffle(entries)
    elif how == 2:
        entries = [e for k in sorted(data["cubes"]) for e in data["cubes"][k]]
        kind = rng.randrange(3)
        if kind == 0 and entries:
            dropped = rng.choice(entries)
            for registry in data["cubes"].values():
                if dropped in registry:
                    registry.remove(dropped)
        elif kind == 1 and data["walls"] >= 2:
            walls = sorted(rng.sample(range(data["walls"]), rng.randrange(2, data["walls"] + 1)))
            entry = [rng.randrange(len(data["vertices"])), walls]
            registry = data["cubes"].setdefault(str(len(walls)), [])
            if entry not in registry:
                registry.append(entry)
        elif data["edges"]:
            data["edges"].pop(rng.randrange(len(data["edges"])))
    return data


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(0, 40), st.integers(2, 6), st.integers(1, 5), st.integers(0, 1 << 32),
       st.integers(0, 2))
def test_a_registry_that_passes_the_flag_check_is_the_rule_set(case, n, m, seed, how):
    """Whenever check_flag passes on a loaded file, as written, renumbered
    and shuffled, or mutilated, its registry equals the cubes of the rule:
    attach_cubes on a copy of the same skeleton without a registry.  The
    loop suites and act test cubes by rule on that ground."""
    rng = random.Random(seed)
    examples = shipped_examples()
    if case < len(examples):
        _, space, base = examples[case]
    else:
        space, base = random_wall_space(rng, point_count=n, wall_count=min(m, 2 ** (n - 1) - 1)), 0
    data = complex_to_dict(build_component(space, base_point=base))
    X = complex_from_dict(space, _reloaded(data, rng, how))
    try:
        check_flag(X)
    except CertificateError:
        assert how == 2
        return
    bare = CubeComplex(space, X.base, X.codes, X.edges)
    assert bare.cubes is None
    assert X.cubes == attach_cubes(bare).cubes


def test_flag_check_without_a_registry_certifies_the_skeleton():
    """A built complex has no registry, and check_flag certifies its
    1-skeleton by the count and the listing.  A hand-built skeleton that
    is not the dual's fails with a vertex or the two counts as witness,
    never with a missing registered cube."""
    X = build_component(gen_crossing(3))
    assert X.cubes is None and check_flag(X)
    assert (X.f_vector(), dimension(X), X.cube_counts()) == ((8, 12, 6, 1), 3, {2: 6, 3: 1})
    # without vertex 111 and its edges: the listing finds 111 missing
    keep = [i for i, c in enumerate(X.codes) if c != 0b111]
    new = {old: i for i, old in enumerate(keep)}
    edges = [(new[u], new[v], w) for u, v, w in X.edges if u in new and v in new]
    broken = CubeComplex(X.space, X.base, [X.codes[i] for i in keep], edges)
    with pytest.raises(CertificateError) as info:
        check_flag(broken)
    assert str(info.value) == "the dual complex's vertex 111 is not in the complex"
    # every vertex, one edge short: the counts differ
    short = CubeComplex(X.space, X.base, X.codes, X.edges[1:])
    with pytest.raises(CertificateError) as info:
        check_flag(short)
    assert str(info.value) == "the complex has 8 vertices and 11 edges, the dual complex 8 and 12"
    assert not isinstance(info.value, FlagViolation)
    # a lone vertex of crossing(3): its count has more vertices than it
    lone = CubeComplex(X.space, 0, [0], [])
    with pytest.raises(CertificateError, match="^the dual complex's vertex .* is not in the complex$"):
        check_flag(lone)
    with pytest.raises(CertificateError, match="more than 1 vertices"):
        lone.f_vector()


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(0, 40), st.integers(2, 7), st.integers(1, 6), st.integers(0, 1 << 32))
def test_a_built_complex_is_rebuilt_from_its_hyperplanes(case, n, m, seed):
    """Every built 1-skeleton is median by the oracle that reads only its
    graph, which is what check_flag certifies on a complex without a
    registry, and each Θ class is the edge set of exactly one wall: the
    edge labels are the hyperplanes, found without reading a label."""
    rng = random.Random(seed)
    examples = shipped_examples()
    if case < len(examples):
        _, space, base = examples[case]
    else:
        space, base = random_wall_space(rng, point_count=n, wall_count=min(m, 2 ** (n - 1) - 1)), 0
    X = build_component(space, base_point=base)
    pairs = [(u, v) for u, v, _ in X.edges]
    assert oracles.median_by_round_trip(len(X.codes), pairs)
    by_wall = {}
    for u, v, w in X.edges:
        by_wall.setdefault(w, set()).add(frozenset((u, v)))
    classes = [cls for cls, _ in oracles.theta_walls(len(X.codes), pairs)]
    assert len(classes) == len(by_wall) == space.wall_count
    assert set(classes) == {frozenset(edges) for edges in by_wall.values()}


@pytest.mark.parametrize(
    "vertex_count, edges",
    [
        (3, [(0, 1), (1, 2), (2, 0)]),
        (6, [(i, (i + 1) % 6) for i in range(6)]),
        (5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),
        (7, [(a, b) for a in range(7) for b in range(a + 1, 7) if (a ^ b).bit_count() == 1]),
        (4, [(0, 1), (2, 3)]),
    ],
    ids=["triangle", "hexagon", "k23", "cube_less_a_vertex", "two_edges"],
)
def test_the_round_trip_refuses_graphs_that_are_not_median(vertex_count, edges):
    assert not oracles.median_by_round_trip(vertex_count, edges)


def test_the_round_trip_accepts_a_median_graph_that_is_not_the_dual():
    """A built file with one inadmissible vertex appended, joined by its
    edges on walls 3 and 4, is median: only the wall space tells it from
    the dual complex, as the certificate's count and listing do."""
    space = WallSpace.from_dict({"points": 6, "walls": [[1, 2, 3], [3, 5], [0, 1, 2], [0, 3, 4],
                                                        [0, 1, 2, 4, 5], [0, 1]]})
    data = complex_to_dict(build_complex(space))
    extra = decode_section("001111", 6)
    ends = [data["vertices"].index(encode_section(extra ^ 1 << w, 6)) for w in (3, 4)]
    data["vertices"].append("001111")
    data["edges"] += [[end, len(data["vertices"]) - 1, w] for end, w in zip(ends, (3, 4))]
    X = complex_from_dict(space, data)
    assert oracles.median_by_round_trip(len(X.codes), [(u, v) for u, v, _ in X.edges])
    assert not cubing._certified(X)
