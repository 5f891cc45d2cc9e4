"""Acceptance suite: one test per criterion, one line per criterion.

Run with -v for the per-criterion pass/fail lines (test names double as
the criterion labels); each test also prints a [criterion N] summary.
Randomized criteria use the fixed seed below; exact criteria use frozen
values computed by the independent oracles in oracles.py.
"""

import json
import random
import time
from pathlib import Path

import pytest

from cubulate import (
    FlagViolation,
    WallSpace,
    build_complex,
    check_flag,
    check_metric_correspondence,
    complex_from_dict,
    contraction_suite,
    dimension,
    encode_section,
    random_loop,
    validate_generator,
    check_equivariance,
)
from cubulate.families import gen_crossing, gen_nested, gen_tree, triangle_lattice

import oracles
from helpers import assert_even_loop, shipped_examples, small_examples

SEED = 2026
FIXTURES = Path(__file__).parent / "fixtures"


def _report(n, detail):
    print(f"[criterion {n}] PASS: {detail}")


def test_criterion_1_ncube_reproduction():
    for n in range(1, 6):
        sp = gen_crossing(n)
        X = build_complex(sp)
        assert X.f_vector() == oracles.ncube_f_vector(n)
        assert dimension(X) == n == sp.intersection_number()
    start = time.perf_counter()
    sp = gen_crossing(6)
    X = build_complex(sp)
    elapsed = time.perf_counter() - start
    assert X.f_vector() == oracles.ncube_f_vector(6)
    assert dimension(X) == 6 == sp.intersection_number()
    assert elapsed < 5.0
    _report(1, f"n=1..6 f-vectors exact, dim=I(W)=n, n=6 in {elapsed:.3f}s")


def test_criterion_2_tree_reproduction():
    cases = [("nested", (n,), gen_nested(n)) for n in (1, 3, 5, 8)]
    cases += [("tree", (a, d), gen_tree(a, d)) for a, d in ((2, 1), (2, 2), (2, 3), (3, 2))]
    for family, params, sp in cases:
        raw = sp.to_dict()
        enc = oracles.admissible_encodings(raw["points"], raw["walls"])
        X = build_complex(sp)
        assert X.cubes == {}, (family, params)
        assert len(X.codes) == len(enc), (family, params)
        assert len(X.edges) == len(oracles.edges_among(enc)), (family, params)
    _report(2, f"{len(cases)} path/tree spaces: no squares, counts match brute force")


def test_criterion_3_metric_correspondence():
    checked = 0
    for name, sp, base in shipped_examples():
        X = build_complex(sp, base_point=base)
        assert len(X.codes) <= 2**12, name
        summary = check_metric_correspondence(sp, X)
        checked += summary["pairs"]
    _report(3, f"d(p,q) = d_1(sigma_p, sigma_q) on {checked} point pairs")


def test_criterion_4_even_loops():
    # the loops parity_suite draws, with the flips counted here
    total = 0
    for name, sp, base in shipped_examples():
        X = build_complex(sp, base_point=base)
        rng = random.Random(f"{SEED}:parity")
        for _ in range(100):
            assert_even_loop(X, random_loop(X, rng))
        total += 100
    _report(4, f"{total} seeded loops (seed {SEED}) all even with even wall counts")


def test_criterion_5_loop_contraction():
    total_moves = 0
    loops = 0
    for name, sp, base in shipped_examples():
        X = build_complex(sp, base_point=base)
        summary = contraction_suite(X, SEED, runs=100)
        loops += summary["loops"]
        total_moves += summary["square_moves"] + summary["backtrack_moves"]
    _report(
        5,
        f"{loops} seeded loops (seed {SEED}) contracted and replayed, "
        f"{total_moves} moves, zero stuck",
    )


def test_criterion_6_flag_certificate():
    for name, sp, base in shipped_examples():
        assert check_flag(build_complex(sp, base_point=base)), name
    space = WallSpace.from_dict(json.loads((FIXTURES / "crossing3_space.json").read_text()))
    broken = complex_from_dict(
        space, json.loads((FIXTURES / "crossing3_missing_cube.json").read_text())
    )
    with pytest.raises(FlagViolation) as info:
        check_flag(broken)
    assert info.value.walls == (0, 1, 2)
    _report(
        6,
        f"flag holds on {len(shipped_examples())} complexes; mutated fixture "
        f"fails with witness walls {list(info.value.walls)}",
    )


def test_criterion_7_triangle_lattice_embedding():
    for r in range(1, 5):
        tl = triangle_lattice(r)
        assert tl.space.intersection_number() == 3, r
        X = build_complex(tl.space, base_point=tl.base_point)
        assert dimension(X) == 3, r
        labels = [tl.vertex_label(c) for c in X.codes]
        assert len(set(labels)) == len(labels), r
        for u, v, _ in X.edges:
            diff = [abs(a - b) for a, b in zip(labels[u], labels[v])]
            assert sorted(diff) == [0, 0, 1], r
    _report(7, "r=1..4: I(W)=3, dim 3, grid labels injective, edges step one axis")


def test_criterion_8_action_equivariance():
    def swap_bits(p, i, j):
        bi, bj = p >> i & 1, p >> j & 1
        return p & ~(1 << i) & ~(1 << j) | bi << j | bj << i

    sp = gen_crossing(3)
    X = build_complex(sp)
    reports = []
    for name, (i, j) in (("s01", (0, 1)), ("s12", (1, 2)), ("s02", (0, 2))):
        g = validate_generator(sp, [swap_bits(p, i, j) for p in sp.points()], name)
        reports.append(check_equivariance(sp, X, g))
    spn = gen_nested(4)
    Xn = build_complex(spn)
    reflect = validate_generator(spn, [4 - x for x in range(5)], "r")
    reports.append(check_equivariance(spn, Xn, reflect))
    assert len(reports) == 4
    _report(8, "3 coordinate swaps and the path reflection: all equivariance checks pass")


def test_criterion_9_oracle_equivalence():
    names = []
    for name, sp, base in small_examples(max_walls=15):
        raw = sp.to_dict()
        expect = oracles.admissible_encodings(raw["points"], raw["walls"])
        X = build_complex(sp, base_point=base)
        assert {encode_section(c, sp.wall_count) for c in X.codes} == expect, name
        assert sp.intersection_number() == oracles.max_crossing_family(
            raw["points"], raw["walls"]
        ), name
        names.append(name)
    assert len(names) >= 12
    _report(9, f"{len(names)} spaces with M <= 15: BFS = brute force, I(W) exact")
