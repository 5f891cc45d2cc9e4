"""Property tests of the int representation against the set oracles.

Random wall spaces have at most 8 points and 7 walls, so every section
can be enumerated.  Runs are derandomized: the same examples every time.
"""

import copy
import pickle
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubulate import (
    FlagViolation,
    Section,
    WallSpace,
    admissible_flips,
    attach_cubes,
    build_complex,
    check_flag,
    complex_from_dict,
    complex_to_dict,
    dimension,
    gen_crossing,
    is_admissible,
    principal_section,
)

import oracles
from helpers import cube_pairs, drop_edge, registry_corners

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
        assert principal_section(sp, p).encode() == expect
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
    for bits in product((0, 1), repeat=m):
        s = Section(bits)
        text = s.encode()
        assert is_admissible(sp, s) == (text in admissible)
        if text not in admissible:
            continue
        expect = [
            w
            for w in range(m)
            if text[:w] + "01"[bits[w] ^ 1] + text[w + 1 :] in admissible
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
    encodings = [X.section(i).encode() for i in range(len(X.codes))]
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


@SETTINGS
@given(wall_spaces(), st.integers(0, 63))
def test_distance_table_matches_oracle(raw, cut):
    """Distances among principal vertices, on the complex and on it with
    one edge dropped (which may disconnect it: -1 there)."""
    n, walls = raw
    sp = WallSpace(n, walls)
    X = build_complex(sp)
    sources = sorted({X.index_of(principal_section(sp, p)) for p in range(n)})
    data = complex_to_dict(X)
    k = cut % len(data["edges"])
    a, b, _ = data["edges"][k]
    encodings = [X.section(i).encode() for i in range(len(X.codes))]
    for Y, dropped in (
        (X, ()),
        (complex_from_dict(sp, drop_edge(data, k)), {frozenset((encodings[a], encodings[b]))}),
    ):
        table = Y.distance_table(sources)
        for i, u in enumerate(sources):
            dist = oracles.graph_distances(encodings, encodings[u], dropped)
            assert [row[i] for row in table] == [dist.get(encodings[v], -1) for v in sources]


@SETTINGS
@given(st.lists(st.integers(0, 1), max_size=70).map(tuple))
def test_section_round_trip(bits):
    s = Section(bits)
    text = "".join(map(str, bits))
    assert s.bits == bits
    assert len(s) == len(bits)
    assert s.code == sum(b << i for i, b in enumerate(bits))
    assert s.encode() == text
    assert Section.decode(text, len(bits)) == s
    assert Section.from_code(s.code, len(bits)) == s
    assert hash(Section.decode(text)) == hash(s)
    for w in range(len(bits)):
        flipped = bits[:w] + (bits[w] ^ 1,) + bits[w + 1 :]
        assert Section.from_code(s.code ^ 1 << w, len(bits)) == Section(flipped)


def test_section_is_immutable():
    s = Section((0, 1))
    with pytest.raises(AttributeError):
        s.code = 3
    with pytest.raises(AttributeError):
        del s.code
    assert s == Section((0, 1))


def test_section_survives_copy_and_pickle():
    s = Section((0, 1, 1))
    for t in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert t == s and t.bits == (0, 1, 1) and len(t) == 3
    X = attach_cubes(build_complex(gen_crossing(3)))
    for Y in (copy.deepcopy(X), pickle.loads(pickle.dumps(X))):
        assert (Y.codes, Y.base, Y.cubes) == (X.codes, X.base, X.cubes)
