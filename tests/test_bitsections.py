"""Property tests of the int representation against the set oracles.

Random wall spaces have at most 8 points and 7 walls, so every section
can be enumerated.  Runs are derandomized: the same examples every time.
"""

import copy
import json
import pickle
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubulate import (
    FlagViolation,
    MetricMismatch,
    WallSpace,
    admissible_flips,
    attach_cubes,
    build_complex,
    check_flag,
    check_metric_correspondence,
    complex_from_dict,
    complex_to_dict,
    decode_section,
    dimension,
    encode_section,
    gen_crossing,
    is_admissible,
    principal_section,
)
from cubulate import cubing
from cubulate.cli import _complex_text

import oracles
from helpers import cube_pairs, drop_edge, flag_verdict, registry_corners

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=80)


@st.composite
def wall_spaces(draw):
    """(point count, listed sides) of a valid space: proper sides, no
    two walls inducing the same partition."""
    n = draw(st.integers(2, 8))
    full = (1 << n) - 1
    masks = draw(
        st.lists(
            st.integers(1, full - 1),
            min_size=1,
            max_size=7,
            unique_by=lambda m: min(m, full ^ m),
        )
    )
    return n, [[p for p in range(n) if m >> p & 1] for m in masks]


@SETTINGS
@given(wall_spaces())
def test_signatures_match_oracle(raw):
    n, walls = raw
    sp = WallSpace(n, walls)
    sigs = sp._signatures
    for p in range(n):
        expect = "".join("0" if p in w else "1" for w in walls)
        assert encode_section(principal_section(sp, p), len(walls)) == expect
        for q in range(n):
            separating = [i for i, w in enumerate(walls) if (p in w) != (q in w)]
            assert [i for i in range(len(walls)) if (sigs[p] ^ sigs[q]) >> i & 1] == separating
            assert sp.wall_distance(p, q) == oracles.separating_wall_count(walls, p, q)


@SETTINGS
@given(wall_spaces())
def test_crossing_masks_match_oracle(raw):
    n, walls = raw
    sp = WallSpace(n, walls)
    cross = sp._crossing_masks
    for i in range(len(walls)):
        assert not cross[i] >> i & 1
        for j in range(len(walls)):
            if i != j:
                assert bool(cross[i] >> j & 1) == oracles.walls_cross(n, walls, i, j)


@SETTINGS
@given(wall_spaces())
def test_admissibility_and_flips_match_oracle(raw):
    n, walls = raw
    sp = WallSpace(n, walls)
    m = len(walls)
    admissible = oracles.admissible_encodings(n, walls)
    for s in range(1 << m):
        text = encode_section(s, m)
        assert is_admissible(sp, s) == (text in admissible)
        if text not in admissible:
            continue
        expect = [
            w
            for w in range(m)
            if text[:w] + "01"[s >> w & 1 ^ 1] + text[w + 1 :] in admissible
        ]
        assert admissible_flips(sp, s) == expect


@SETTINGS
@given(wall_spaces())
def test_whole_complex_matches_oracle(raw):
    # attach_cubes does not check the cubes it registers; the f-vector,
    # check_flag and the corners check them against the oracle here
    n, walls = raw
    X = build_complex(WallSpace(n, walls))
    admissible = oracles.admissible_encodings(n, walls)
    assert X.f_vector() == oracles.f_vector(admissible)
    assert check_flag(X)
    assert registry_corners(X) == oracles.corners_of(n, walls, admissible)


@SETTINGS
@given(wall_spaces())
def test_f_vector_matches_crossing_graph_count(raw):
    """V, E, every f_k, the dimension and the Euler characteristic of the
    complex from every base point, against a count that uses neither the
    BFS nor attach_cubes."""
    n, walls = raw
    sp = WallSpace(n, walls)
    expect = oracles.crossing_f_vector(n, walls)
    for base in range(n):
        X = build_complex(sp, base_point=base)
        assert X.f_vector() == expect
        assert dimension(X) == len(expect) - 1
        assert sum((-1) ** k * f for k, f in enumerate(X.f_vector())) == 1


@SETTINGS
@given(wall_spaces())
def test_complex_writer_matches_json_dumps(raw):
    """The complex file's writer against the stdlib encoder, from every
    base point."""
    n, walls = raw
    sp = WallSpace(n, walls)
    for base in range(n):
        d = complex_to_dict(build_complex(sp, base_point=base))
        assert _complex_text(d) == json.dumps(d, indent=2) + "\n"


def _inside(small, big):
    """Whether the cube (encoding, walls) small is a face of big."""
    (e, S), (f, T) = small, big
    return set(S) < set(T) and all(e[i] == f[i] for i in range(len(e)) if i not in T)


# each example runs the brute-force oracle once per registered cube
@settings(SETTINGS, max_examples=40)
@given(wall_spaces())
def test_check_flag_matches_flag_oracle(raw):
    """check_flag passes the built complex; without any one registered
    cube it fails exactly when a link stops being flag (the oracle) or
    the cube was a face of a registered cube (facet closure)."""
    n, walls = raw
    X = build_complex(WallSpace(n, walls))
    encodings = [encode_section(c, X.space.wall_count) for c in X.codes]
    registered = {
        key: (encodings[b], walls)
        for k in X.cubes
        for key, (b, walls) in cube_pairs(X, X.cubes[k]).items()
    }
    assert check_flag(X)
    assert oracles.flag_violations(set(encodings), registered.values()) == []
    for dropped, as_text in registered.items():
        rest = [c for c in registered.values() if c != as_text]
        expect = bool(oracles.flag_violations(set(encodings), rest)) or any(
            _inside(as_text, c) for c in rest
        )
        Y = copy.copy(X)
        Y.cubes = {k: {c: None for c in X.cubes[k] if c != dropped} for k in X.cubes}
        if expect:
            with pytest.raises(FlagViolation):
                check_flag(Y)
        else:
            assert check_flag(Y)


# each example runs the brute-force oracle four times per base point
@settings(SETTINGS, max_examples=40)
@given(wall_spaces(), st.integers(0, 1 << 16))
def test_flag_certificate_matches_link_search(raw, pick):
    """From every base the count certificate accepts the built complex
    and its reloaded file.  With one drawn cube (any, then a top one)
    dropped, or its key moved to another vertex of the cube (the counts
    still match), the certificate refuses it and check_flag gives the
    verdict and witness of the link search followed by _check_cubes.  The search fails where
    the brute-force oracle finds a link that is not flag, over the
    cubes registered at their canonical vertices, and nowhere else."""
    n, walls = raw
    sp = WallSpace(n, walls)
    m, full = sp.wall_count, (1 << sp.wall_count) - 1
    for base in range(n):
        X = build_complex(sp, base_point=base)
        assert cubing._certified(X)
        assert cubing._certified(complex_from_dict(sp, complex_to_dict(X)))
        keys = [key for registry in X.cubes.values() for key in registry]
        if not keys:
            continue
        top = list(X.cubes[max(X.cubes)])  # a top cube's loss shows in a link
        encodings = [encode_section(c, X.space.wall_count) for c in X.codes]
        for key, twinned in product((keys[pick % len(keys)], top[pick % len(top)]), (0, 1)):
            span_walls = cubing._walls(key >> m)
            twin = key ^ 1 << span_walls[pick // len(keys) % len(span_walls)]
            replacement = (twin,) * twinned
            Y = copy.copy(X)
            Y.cubes = {
                k: {c: None for old in registry for c in (replacement if old == key else (old,))}
                for k, registry in X.cubes.items()
            }
            Y.cubes = {k: registry for k, registry in Y.cubes.items() if registry}
            assert not cubing._certified(Y)
            assert flag_verdict(lambda: check_flag(Y)) == flag_verdict(
                lambda: cubing._search_links(Y), lambda: cubing._check_cubes(Y)
            )
            canonical = [
                (encodings[Y._index[c & full]], cubing._walls(c >> m))
                for registry in Y.cubes.values()
                for c in registry
                if not c & c >> m  # the code chooses listed sides on the span
            ]
            violations = oracles.flag_violations(set(encodings), canonical)
            try:
                cubing._search_links(Y)
            except FlagViolation as exc:
                assert (encodings[exc.vertex], exc.walls) in violations
            else:
                assert violations == []


@SETTINGS
@given(wall_spaces(), st.integers(0, 63))
def test_distance_table_matches_oracle(raw, cut):
    """Distances among principal vertices, on the complex and on it with
    one edge dropped (which may disconnect it: -1 there)."""
    n, walls = raw
    sp = WallSpace(n, walls)
    X = build_complex(sp)
    sources = sorted({X._index[principal_section(sp, p)] for p in range(n)})
    data = complex_to_dict(X)
    k = cut % len(data["edges"])
    a, b, _ = data["edges"][k]
    encodings = [encode_section(c, X.space.wall_count) for c in X.codes]
    for Y, dropped in (
        (X, ()),
        (complex_from_dict(sp, drop_edge(data, k)), {frozenset((encodings[a], encodings[b]))}),
    ):
        table = Y.distance_table(sources)
        for i, u in enumerate(sources):
            dist = oracles.graph_distances(encodings, encodings[u], dropped)
            assert [row[i] for row in table] == [dist.get(encodings[v], -1) for v in sources]


@SETTINGS
@given(wall_spaces(), st.integers(0, 63))
def test_metric_suite_matches_oracle(raw, cut):
    """From every base, the metric suite passes the built complex.  With
    one edge dropped, it passes only when the all-pairs BFS oracle finds
    every pair of points at its wall distance, and it fails whenever the
    oracle finds a mismatch, naming the oracle's first mismatched pair."""
    n, walls = raw
    sp = WallSpace(n, walls)
    for base in range(n):
        X = build_complex(sp, base_point=base)
        assert check_metric_correspondence(sp, X)["pairs"] == n * (n - 1) // 2
        data = complex_to_dict(X)
        k = cut % len(data["edges"])
        a, b, _ = data["edges"][k]
        encodings = [encode_section(c, X.space.wall_count) for c in X.codes]
        dropped = {frozenset((encodings[a], encodings[b]))}
        mismatches = oracles.metric_mismatches(n, walls, encodings, dropped)
        Y = complex_from_dict(sp, drop_edge(data, k))
        if mismatches:
            p, q, expect, actual = mismatches[0]
            with pytest.raises(MetricMismatch) as info:
                check_metric_correspondence(sp, Y)
            assert str(info.value) == (
                f"points {p} and {q} are separated by {expect} walls but "
                f"their principal vertices are {actual} edges apart"
            )
        else:
            # the suite may still fail: a dropped edge can leave every
            # principal pair at its distance and break descent elsewhere,
            # and then the sweep finds no pair and the vertex is named
            try:
                check_metric_correspondence(sp, Y)
            except MetricMismatch as exc:
                assert str(exc).startswith("vertex ")


@SETTINGS
@given(st.integers(0, 70).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1))))
def test_section_round_trip(drawn):
    m, c = drawn
    text = encode_section(c, m)
    assert decode_section(text, m) == c
    assert text == "".join(str(c >> i & 1) for i in range(m))
    for w in range(m):
        assert encode_section(c ^ 1 << w, m) == text[:w] + "01"[c >> w & 1 ^ 1] + text[w + 1 :]


def test_complex_survives_copy_and_pickle():
    X = attach_cubes(build_complex(gen_crossing(3)))
    for Y in (copy.deepcopy(X), pickle.loads(pickle.dumps(X))):
        assert (Y.codes, Y.base, Y.cubes) == (X.codes, X.base, X.cubes)
