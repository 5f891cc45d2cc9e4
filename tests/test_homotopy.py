import copy
import hashlib
import json
import pickle
import random

import pytest

from cubulate import (
    CertificateError,
    ContractionStuck,
    CubeComplex,
    EdgeLoop,
    Move,
    NotALoop,
    build_complex,
    check_metric_correspondence,
    complex_from_dict,
    complex_to_dict,
    contract_loop,
    contraction_suite,
    decode_section,
    encode_section,
    parity_suite,
    random_loop,
    replay_certificate,
)
from cubulate.families import gen_crossing, gen_nested, gen_tree, triangle_lattice

from helpers import assert_even_loop, loop_flip_counts, shipped_examples


def square_complex():
    # vertices in BFS order: 00, 10, 01, 11
    return build_complex(gen_crossing(2))


def square_loop(X):
    return EdgeLoop(X, [0, 1, 3, 2, 0])


def test_edge_loop_accepts_sections_and_indices():
    X = square_complex()
    ring = ["00", "10", "11", "01", "00"]
    by_enc = EdgeLoop(X, [X.index[decode_section(t, 2)] for t in ring])
    assert by_enc.indices == (0, 1, 3, 2, 0)
    steps = zip(by_enc.indices, by_enc.indices[1:])
    assert [X.edge_wall(a, b) for a, b in steps] == [0, 1, 0, 1]
    assert [encode_section(X.codes[i], 2) for i in by_enc.indices] == ring


def test_edge_loop_rejects_open_or_broken_paths():
    X = square_complex()
    with pytest.raises(NotALoop):
        EdgeLoop(X, [0, 1])
    with pytest.raises(NotALoop):
        EdgeLoop(X, [0, 3, 0])
    with pytest.raises(NotALoop):
        EdgeLoop(X, [])
    with pytest.raises(NotALoop):
        EdgeLoop(X, [4])
    with pytest.raises(NotALoop):
        EdgeLoop(X, [True])


def test_parity_trivial_and_square():
    X = square_complex()
    trivial = EdgeLoop(X, [0])
    assert_even_loop(X, trivial)
    assert loop_flip_counts(X, trivial) == {}
    loop = square_loop(X)
    assert loop.edge_length == 4
    assert_even_loop(X, loop)
    assert loop_flip_counts(X, loop) == {0: 2, 1: 2}


def test_contract_square_boundary():
    X = square_complex()
    cert = contract_loop(square_loop(X))
    assert cert.base == 0
    assert cert.square_moves == 1
    assert cert.backtrack_moves == 2
    assert replay_certificate(X, cert.initial, cert.moves) == [0]


def test_contract_trivial_loop():
    X = square_complex()
    cert = contract_loop(EdgeLoop(X, [0]))
    assert cert.moves == ()


def test_certificate_json_shape():
    X = square_complex()
    cert = contract_loop(square_loop(X))
    obj = cert.to_json_obj()
    assert all(set(m) == {"type", "at", "walls"} for m in obj)
    assert obj[0]["type"] == "square"
    assert obj[0]["walls"] == [0, 1]


def test_replay_rejects_tampering():
    X = square_complex()
    cert = contract_loop(square_loop(X))
    for walls in ((0, 0), (1, 1)):
        bad_wall = [Move("square", cert.moves[0].at, walls)] + list(cert.moves[1:])
        with pytest.raises(CertificateError, match="two distinct walls"):
            replay_certificate(X, cert.initial, bad_wall)
    bad_pos = [Move(cert.moves[0].kind, 99, cert.moves[0].walls)]
    with pytest.raises(CertificateError):
        replay_certificate(X, cert.initial, bad_pos)
    bad_kind = [Move("teleport", 1, (0,))]
    with pytest.raises(CertificateError):
        replay_certificate(X, cert.initial, bad_kind)


def test_replay_rejects_square_walls_out_of_range():
    X = square_complex()
    cert = contract_loop(square_loop(X))
    at = cert.moves[0].at
    for walls in ((0, 2), (-1, 0), (0, 99)):
        with pytest.raises(CertificateError, match="out of range"):
            replay_certificate(X, cert.initial, [Move("square", at, walls)])


def test_replay_rejects_a_square_the_complex_does_not_have():
    # the square's boundary, loaded with no squares, is not null-homotopic
    moves = contract_loop(square_loop(square_complex())).moves
    assert [m.kind for m in moves] == ["square", "backtrack", "backtrack"]
    data = complex_to_dict(square_complex())
    data["cubes"] = {}
    X = complex_from_dict(gen_crossing(2), data)
    with pytest.raises(CertificateError, match="not registered"):
        replay_certificate(X, [0, 1, 3, 2, 0], moves)


@pytest.mark.parametrize(
    "move",
    [
        Move("square", 2.0, (0, 1)),
        Move("square", True, (0, 1)),
        Move("square", 2, (0.0, 1)),
        Move("square", 2, (False, True)),
        Move("square", 2, 5),
        Move("backtrack", 1, (True,)),
        Move("backtrack", 1.0, (1,)),
    ],
    ids=repr,
)
def test_replay_rejects_non_int_positions_and_walls(move):
    # Move("backtrack", 1, (1,)) replays on the spur [0, 2, 0]; a bool or
    # float stand-in for 1 must not
    X = square_complex()
    assert replay_certificate(X, [0, 2, 0], [Move("backtrack", 1, (1,))]) == [0]
    loop = [0, 2, 0] if move.kind == "backtrack" else [0, 1, 3, 2, 0]
    with pytest.raises(CertificateError, match="out of range"):
        replay_certificate(X, loop, [move])


def test_contraction_stuck_on_broken_complex():
    # a square boundary whose square dictionary was emptied: the sweep
    # finds the 2-corner but not the registered square
    X = square_complex()
    X.cubes[2].clear()
    with pytest.raises(ContractionStuck):
        contract_loop(square_loop(X))


def test_contraction_stuck_on_a_hexagon():
    # crossing(3)'s complex without 000 and 111 is a hexagon, whose
    # furthest vertex from 100 has no opposite corner
    X = build_complex(gen_crossing(3))
    keep = [i for i, c in enumerate(X.codes) if c not in (0b000, 0b111)]
    new = {old: i for i, old in enumerate(keep)}
    hexagon = CubeComplex(
        X.space,
        new[X.index[decode_section("100", 3)]],
        [X.codes[i] for i in keep],
        [{w: new[j] for w, j in X.adjacency[i].items() if j in new} for i in keep],
    )
    assert len(hexagon.edges) == 6
    ring = ["100", "110", "010", "011", "001", "101", "100"]
    loop = EdgeLoop(hexagon, [hexagon.index[decode_section(t, 3)] for t in ring])
    with pytest.raises(ContractionStuck) as info:
        contract_loop(loop)
    assert str(info.value) == "opposite corner 000 is not a vertex"


def test_random_loop_is_seeded_and_closed():
    X = build_complex(triangle_lattice(1).space)
    a = random_loop(X, random.Random(11))
    b = random_loop(X, random.Random(11))
    assert a.indices == b.indices
    assert a.indices[0] == a.indices[-1] == X.base
    c = random_loop(X, random.Random(12), steps=9)
    assert c.indices[0] == c.indices[-1]


def test_contract_random_loops():
    rng = random.Random(2718)
    for sp, base in ((gen_crossing(4), 0), (triangle_lattice(2).space, 0)):
        X = build_complex(sp, base_point=base)
        for _ in range(20):
            loop = random_loop(X, rng)
            cert = contract_loop(loop)
            assert replay_certificate(X, cert.initial, cert.moves) == [loop.indices[0]]


def test_parity_on_examples():
    rng = random.Random(161803)
    for name, sp, base in shipped_examples():
        X = build_complex(sp, base_point=base)
        for _ in range(5):
            assert_even_loop(X, random_loop(X, rng))


# sha256 over 200 seeded certificates per space, one JSON line
# [base, initial, [[kind, at, walls], ...]] each, recorded before the
# contraction sweep became one loop over the first furthest vertex
CERTIFICATE_DIGESTS = {
    "crossing4": "d81523cd92e98f205f7d492c06634b90d425bb1dd63e005d5d1a6eac955ff543",
    "crossing6": "f003215f98ad6a46fe9b40277e9c258ae193cd5680543617c3258cca1371f313",
    "triangle2": "e9c4de1f95a2e8f9534e95a21308cf73f589e7c5aa1b2a5119d31486ff61fcbe",
    "triangle4": "b6df03fcceb1bebb15da2fc15e22e7a1b76c36916c6c7b07a6087ce2ab0af5d9",
    "nested5": "7bdbd9de6fba707789476abac619f73003def2556db438d2a30ef94e75b7df54",
    "tree2x4": "9d234a634dafebd2403e94df1d566087f4723c651254426c382a7f668055fa73",
}


def _lattice(radius):
    tl = triangle_lattice(radius)
    return tl.space, tl.base_point


PINNED_SPACES = {
    "crossing4": lambda: (gen_crossing(4), 0),
    "crossing6": lambda: (gen_crossing(6), 0),
    "triangle2": lambda: _lattice(2),
    "triangle4": lambda: _lattice(4),
    "nested5": lambda: (gen_nested(5), 0),
    "tree2x4": lambda: (gen_tree(2, 4), 0),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_DIGESTS))
def test_contraction_certificates_are_pinned(name):
    sp, base = PINNED_SPACES[name]()
    X = build_complex(sp, base_point=base)
    rng = random.Random(f"pin:{name}")
    digest = hashlib.sha256()
    for _ in range(200):
        c = contract_loop(random_loop(X, rng))
        moves = [[m.kind, m.at, list(m.walls)] for m in c.moves]
        digest.update(json.dumps([c.base, list(c.initial), moves]).encode() + b"\n")
    assert digest.hexdigest() == CERTIFICATE_DIGESTS[name]


def test_nested_loops_are_backtracks_only():
    # a tree has no squares, so any loop contracts by spur removal alone
    X = build_complex(gen_nested(4))
    rng = random.Random(5)
    for _ in range(10):
        cert = contract_loop(random_loop(X, rng))
        assert cert.square_moves == 0


def test_suites_share_one_bfs_tree_and_the_metric_runs_none(monkeypatch):
    tl = triangle_lattice(2)
    X = build_complex(tl.space, base_point=tl.base_point)
    traversals = []
    bfs_tree = CubeComplex.bfs_tree

    def counted(self, start):
        traversals.append(start)
        return bfs_tree(self, start)

    monkeypatch.setattr(CubeComplex, "bfs_tree", counted)
    check_metric_correspondence(tl.space, X)
    assert traversals == []
    parity_suite(X, 0, 20)
    contraction_suite(X, 0, 20)
    base = X.base
    assert traversals == [base]

    dist, parent = X.cached_tree(base)
    with pytest.raises(TypeError):
        dist[0] = 5
    with pytest.raises(TypeError):
        parent[0] = 5
    for Y in (copy.copy(X), copy.deepcopy(X), pickle.loads(pickle.dumps(X))):
        assert Y.cached_tree(base) == (dist, parent)
    assert traversals == [base]
    fresh = bfs_tree(X, base)
    assert (list(dist), list(parent)) == fresh
    other = X.edges[0][1]
    assert X.cached_tree(other) == tuple(map(tuple, bfs_tree(X, other)))
    assert X.cached_tree(base) == (dist, parent)
    assert traversals == [base, other, base]
