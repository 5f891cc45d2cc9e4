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
from cubulate import cubing, wallspace
from cubulate.cli import _complex_text

import oracles
from helpers import drop_edge, flag_verdict, oracle_flag_verdicts, registry_corners

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


# each example runs the brute-force oracle once per registered cube
@settings(SETTINGS, max_examples=40)
@given(wall_spaces())
def test_check_flag_matches_flag_oracle(raw):
    """check_flag passes the built complex; without any one registered
    cube it fails with the oracles' witness, the dropped cube at its
    canonical vertex or a corner found before it, whether or not a link
    stops being flag (flag_violations)."""
    n, walls = raw
    X = build_complex(WallSpace(n, walls))
    assert check_flag(X)
    assert oracle_flag_verdicts(X) == (None, False)
    for dropped in (key for registry in X.cubes.values() for key in registry):
        Y = copy.copy(X)
        Y.cubes = {k: {c: None for c in X.cubes[k] if c != dropped} for k in X.cubes}
        witness, _ = oracle_flag_verdicts(Y)
        assert witness is not None
        assert flag_verdict(lambda: check_flag(Y)) == witness


# each example runs the brute-force oracle four times per base point
@settings(SETTINGS, max_examples=40)
@given(wall_spaces(), st.integers(0, 1 << 16))
def test_flag_certificate_matches_link_search(raw, pick):
    """From every base the count certificate accepts the built complex
    and its reloaded file.  With one drawn cube (any, then a top one)
    dropped, or its key moved to another vertex of the cube (the counts
    still match), the certificate refuses it and check_flag gives the
    oracles' witness: the first corner whose cube is not registered at
    its canonical vertex, else the first registered cube that is not in
    the complex.  It fails wherever the brute-force oracle finds a link
    that is not flag."""
    n, walls = raw
    sp = WallSpace(n, walls)
    m = sp.wall_count
    for base in range(n):
        X = build_complex(sp, base_point=base)
        assert cubing._certified(X)
        assert cubing._certified(complex_from_dict(sp, complex_to_dict(X)))
        keys = [key for registry in X.cubes.values() for key in registry]
        if not keys:
            continue
        top = list(X.cubes[max(X.cubes)])  # a top cube's loss shows in a link
        for key, twinned in product((keys[pick % len(keys)], top[pick % len(top)]), (0, 1)):
            span_walls = wallspace._bit_indices(key >> m)
            twin = key ^ 1 << span_walls[pick // len(keys) % len(span_walls)]
            replacement = (twin,) * twinned
            Y = copy.copy(X)
            Y.cubes = {
                k: {c: None for old in registry for c in (replacement if old == key else (old,))}
                for k, registry in X.cubes.items()
            }
            Y.cubes = {k: registry for k, registry in Y.cubes.items() if registry}
            assert not cubing._certified(Y)
            verdict = flag_verdict(lambda: check_flag(Y))
            witness, links_not_flag = oracle_flag_verdicts(Y)
            assert verdict == witness
            assert verdict is not None or not links_not_flag


@SETTINGS
@given(wall_spaces(), st.integers(0, 63))
def test_metric_suite_matches_oracle(raw, cut):
    """From every base, the metric suite passes the built complex.  With
    one edge dropped, it passes only when the all-pairs BFS oracle finds
    every pair of points at its wall distance, and whenever it fails it
    names a vertex: a dropped edge can leave every principal pair at its
    distance and break descent elsewhere."""
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
        try:
            check_metric_correspondence(sp, Y)
        except MetricMismatch as exc:
            assert str(exc).startswith("vertex ")
        else:
            assert mismatches == []


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
