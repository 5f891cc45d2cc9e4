import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from cubulate import (
    WallSpace,
    build_complex,
    complex_from_dict,
    complex_to_dict,
    cubing,
    encode_section,
    principal_section,
)
from cubulate.cli import _complex_text, main
from cubulate.families import gen_crossing, gen_nested, gen_tree, triangle_lattice

from helpers import deep_clique_space, drop_edge, forge_nested3_cubes

FIXTURES = Path(__file__).parent / "fixtures"
SPACE3 = str(FIXTURES / "crossing3_space.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", SPACE3)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "validate"
    assert report["status"] == "ok"
    assert report["input"]["points"] == 8
    assert report["input"]["walls"] == 3
    assert report["input"]["digest"].startswith("sha256:")


def test_validate_empty_complement(capsys):
    code, out, err = run(capsys, "validate", str(FIXTURES / "bad_empty_complement.json"))
    assert code == 1
    assert "complement is empty" in err


def test_validate_duplicate_wall(capsys):
    code, out, err = run(capsys, "validate", str(FIXTURES / "bad_duplicate_wall.json"))
    assert code == 1
    assert "same partition" in err


def test_validate_malformed_json(capsys):
    code, out, err = run(capsys, "validate", str(FIXTURES / "not_json.json"))
    assert code == 1
    assert "invalid JSON" in err


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[" * 200_000 + "]" * 200_000,  # past the recursion limit
        '{"points": ' + "1" * 5000 + "}",  # past the int digit limit
    ],
    ids=["malformed", "deep", "long_int"],
)
@pytest.mark.parametrize("role", ["space", "complex_in", "generators"])
def test_unreadable_json_exits_through_the_error_path(tmp_path, role, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = {
        "space": ["validate", str(bad)],
        "complex_in": ["check", SPACE3, "--complex-in", str(bad)],
        "generators": ["act", SPACE3, "--generators", str(bad)],
    }[role]
    proc = subprocess.run(
        [sys.executable, "-m", "cubulate.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {bad}: invalid JSON: ")
    assert "Traceback" not in proc.stderr


def test_validate_missing_file(capsys):
    code, out, err = run(capsys, "validate", "no_such_file.json")
    assert code == 1
    assert err


def test_build_report(capsys):
    code, out, err = run(capsys, "build", SPACE3)
    assert code == 0
    report = json.loads(out)
    assert report["f_vector"] == [8, 12, 6, 1]
    assert report["dimension"] == 3
    assert report["intersection_number"] == 3
    assert report["complex"] == {"vertices": 8, "edges": 12, "cubes": {"2": 6, "3": 1}}
    assert report["checks"]["flag"] == {"status": "skipped"}
    assert "timings" not in report


def test_build_deterministic_bytes(capsys):
    _, first, _ = run(capsys, "build", SPACE3)
    _, second, _ = run(capsys, "build", SPACE3)
    assert first == second
    assert first.endswith("\n")


def test_build_timings_flag(capsys):
    code, out, _ = run(capsys, "build", SPACE3, "--timings")
    assert code == 0
    assert "build_s" in json.loads(out)["timings"]


def test_build_out_file(capsys, tmp_path):
    target = tmp_path / "complex.json"
    code, out, _ = run(capsys, "build", SPACE3, "--out", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    space = WallSpace.from_dict(json.loads(Path(SPACE3).read_text()))
    X = complex_from_dict(space, data)
    assert len(X.codes) == 8


def test_build_budget(capsys):
    code, out, err = run(capsys, "build", SPACE3, "--max-vertices", "4")
    assert code == 2
    assert "cap" in err


def test_oversized_component_is_refused_from_the_count(capsys, tmp_path):
    """crossing(15) has 2^15 vertices.  Under a cap of 2^14 it is refused
    with the BFS's message, from the clique count, which holds well under
    1 MB; reaching the cap by BFS held about 10 MB."""
    sp = gen_crossing(15)
    space_file = tmp_path / "crossing15.json"
    space_file.write_text(json.dumps(sp.to_dict()))
    for command in ("build", "check"):
        code, out, err = run(capsys, command, str(space_file), "--max-vertices", "16384")
        assert (code, out, err) == (2, "", "error: component exceeds the vertex cap 16384\n")
    sp._crossing_masks  # the wall tables every use of the space shares
    tracemalloc.start()
    try:
        with pytest.raises(cubing.ComplexityBudgetExceeded):
            cubing.build_component(sp, max_vertices=16384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_check_passes(capsys):
    code, out, _ = run(capsys, "check", SPACE3, "--loops", "10", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    statuses = {k: v["status"] for k, v in report["checks"].items()}
    assert statuses == {
        "flag": "pass",
        "metric_correspondence": "pass",
        "parity": "pass",
        "contraction": "pass",
        "equivariance": "skipped",
    }
    assert report["seed"] == 3
    assert report["checks"]["parity"]["loops"] == 10


def test_check_deterministic_bytes(capsys):
    _, first, _ = run(capsys, "check", SPACE3, "--loops", "5", "--seed", "1")
    _, second, _ = run(capsys, "check", SPACE3, "--loops", "5", "--seed", "1")
    assert first == second


def test_check_mutated_complex_fails_flag(capsys):
    code, out, _ = run(
        capsys,
        "check",
        SPACE3,
        "--complex-in",
        str(FIXTURES / "crossing3_missing_cube.json"),
        "--loops",
        "5",
    )
    assert code == 3
    report = json.loads(out)
    assert report["checks"]["flag"]["status"] == "fail"
    assert "witness" in report["checks"]["flag"]
    assert report["checks"]["metric_correspondence"]["status"] == "skipped"
    assert report["checks"]["contraction"]["status"] == "skipped"


def test_check_forged_cubes_over_non_crossing_walls_fail_flag(capsys, tmp_path):
    space = gen_nested(3)
    data = complex_to_dict(build_complex(space))
    forge_nested3_cubes(data)
    space_file = tmp_path / "nested3.json"
    space_file.write_text(json.dumps(space.to_dict()))
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(data))
    code, out, _ = run(capsys, "check", str(space_file), "--complex-in", str(forged))
    assert code == 3
    report = json.loads(out)
    assert report["checks"]["flag"]["status"] == "fail"
    assert "do not cross" in report["checks"]["flag"]["witness"]


def test_check_complex_with_a_dropped_edge_fails_metric(capsys, tmp_path):
    space = gen_tree(2, 3)
    space_file = tmp_path / "tree.json"
    space_file.write_text(json.dumps(space.to_dict()))
    cut = tmp_path / "cut.json"
    cut.write_text(json.dumps(drop_edge(complex_to_dict(build_complex(space)))))
    code, out, _ = run(capsys, "check", str(space_file), "--complex-in", str(cut))
    assert code == 3
    checks = json.loads(out)["checks"]
    assert checks["flag"]["status"] == "pass"
    assert checks["metric_correspondence"] == {
        "status": "fail",
        "witness": "vertex 0: no edge at it flips a wall separating it from vertex 3, "
        "the principal vertex of point 1, 2 walls away",
    }
    assert checks["parity"]["status"] == "skipped"


def test_check_complex_with_a_self_loop_edge_exits_before_the_suites(capsys, tmp_path):
    """Loops are even only because every edge flips exactly one wall, so
    a self-loop must stop the load, before any suite reports; listed
    first, it would be overwritten by the valid edge [0, v, 0]."""
    for at in ("last", "first"):
        data = complex_to_dict(build_complex(gen_crossing(3)))
        data["edges"].insert(0 if at == "first" else len(data["edges"]), [0, 0, 0])
        cx = tmp_path / f"self_loop_{at}.json"
        cx.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", SPACE3, "--complex-in", str(cx))
        assert (code, out) == (1, ""), at
        assert err == "error: edge [0, 0, 0]: endpoints do not differ exactly on wall 0\n"


def test_check_complex_without_squares_fails_flag(capsys, tmp_path):
    """crossing(2) and crossing(3) loaded with no cubes: their links are
    flag and their distances those of the dual complex, but walls 0 and
    1 cross and label edges at vertex 0, so their square is missing,
    with or without loops."""
    space_file, cx = tmp_path / "space.json", tmp_path / "no_squares.json"
    for n in (2, 3):
        space_file.write_text(json.dumps(gen_crossing(n).to_dict()))
        data = complex_to_dict(build_complex(gen_crossing(n)))
        data["cubes"] = {}
        cx.write_text(json.dumps(data))
        for loops in ([], ["--loops", "0"]):
            code, out, _ = run(capsys, "check", str(space_file), "--complex-in", str(cx), *loops)
            assert code == 3
            checks = json.loads(out)["checks"]
            assert checks["flag"] == {
                "status": "fail",
                "witness": "vertex 0: walls [0, 1] cross and label edges at it, "
                "but no 2-cube is registered",
            }
            assert checks["contraction"]["status"] == "skipped"


@pytest.mark.parametrize(
    "tamper, witness",
    [
        (lambda d: d["cubes"]["2"].append(d["cubes"]["2"][0]), "cube entry [0, [0, 1]] is listed twice"),
        (lambda d: d["edges"].append(d["edges"][0]), "edge [0, 1, 0] is listed twice"),
        (lambda d: d["edges"].append([1, 0, 0]), "edge [1, 0, 0] is listed twice"),
    ],
    ids=["square", "edge", "reversed_edge"],
)
def test_check_complex_in_refuses_an_entry_listed_twice(capsys, tmp_path, tamper, witness):
    """crossing(2)'s file with its square or an edge, either way round,
    listed twice: the loader would merge the copies and report 4 edges
    and 1 square where the file lists 5 and 2."""
    space_file, cx = tmp_path / "space.json", tmp_path / "twice.json"
    space_file.write_text(json.dumps(gen_crossing(2).to_dict()))
    data = complex_to_dict(build_complex(gen_crossing(2)))
    assert data["edges"][0] == [0, 1, 0] and data["cubes"] == {"2": [[0, [0, 1]]]}
    tamper(data)
    cx.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", str(space_file), "--complex-in", str(cx), "--loops", "0")
    assert (code, out, err) == (1, "", f"error: {witness}\n")


def _crossing3_complex(tmp_path):
    cx = tmp_path / "c3.json"
    cx.write_text(json.dumps(complex_to_dict(build_complex(gen_crossing(3)))))
    return ["check", SPACE3, "--complex-in", str(cx), "--loops", "0"]


def test_check_complex_in_obeys_max_vertices(capsys, tmp_path):
    argv = _crossing3_complex(tmp_path)
    code, out, err = run(capsys, *argv, "--max-vertices", "2")
    assert code == 2
    assert out == ""
    assert err == "error: complex has 8 vertices, over the vertex cap 2\n"
    code, out, _ = run(capsys, *argv, "--max-vertices", "8")
    assert code == 0 and json.loads(out)["complex"]["vertices"] == 8


def test_check_complex_in_applies_the_cap_before_decoding(capsys, tmp_path):
    data = complex_to_dict(build_complex(gen_crossing(3)))
    data["vertices"][-1] = "not-a-section"
    cx = tmp_path / "c3.json"
    cx.write_text(json.dumps(data))
    argv = ["check", SPACE3, "--complex-in", str(cx), "--loops", "0"]
    code, out, err = run(capsys, *argv, "--max-vertices", "2")
    assert code == 2
    assert out == ""
    assert err == "error: complex has 8 vertices, over the vertex cap 2\n"
    code, _, _ = run(capsys, *argv, "--max-vertices", "8")
    assert code == 1


@pytest.mark.parametrize("base", ["0", "5"])
def test_check_complex_in_rejects_base(capsys, tmp_path, base):
    """The loaded complex names its own base, so --base would be ignored."""
    argv = _crossing3_complex(tmp_path)
    argv[argv.index("--complex-in") + 1] = str(tmp_path / "never_read.json")
    code, out, err = run(capsys, *argv, "--base", base)
    assert code == 1
    assert out == ""
    assert err == "error: --base does not apply to --complex-in: the complex names its base\n"
    code, out, _ = run(capsys, *_crossing3_complex(tmp_path))
    assert code == 0 and json.loads(out)["base_point"] == 0


def test_check_reports_the_base_point(capsys, tmp_path):
    """base_point is a point, as in build and act: --base for a built
    complex, and for a loaded one the lowest point whose principal
    section is the file's base, or null when no point has it."""
    code, out, _ = run(capsys, "check", SPACE3, "--base", "5", "--loops", "0")
    assert code == 0 and json.loads(out)["base_point"] == 5
    # points 1 and 2 lie on the same sides of every wall
    space_file = tmp_path / "twins.json"
    space_file.write_text(json.dumps({"points": 4, "walls": [[0], [3]]}))
    cx = tmp_path / "twins_cx.json"
    assert run(capsys, "build", str(space_file), "--base", "2", "--out", str(cx))[0] == 0
    code, out, _ = run(capsys, "check", str(space_file), "--complex-in", str(cx))
    assert code == 0 and json.loads(out)["base_point"] == 1
    # tree(2,2)'s inner vertices are no point's principal section
    space = gen_tree(2, 2)
    space_file.write_text(json.dumps(space.to_dict()))
    data = complex_to_dict(build_complex(space))
    principal = {encode_section(principal_section(space, p), space.wall_count) for p in space.points()}
    data["base"] = next(v for v in data["vertices"] if v not in principal)
    cx.write_text(json.dumps(data))
    code, out, _ = run(capsys, "check", str(space_file), "--complex-in", str(cx))
    assert code == 0 and json.loads(out)["base_point"] is None


def test_check_complex_missing_a_principal_vertex_fails_metric(capsys, tmp_path):
    """nested(3) without its last vertex 000, the principal section of
    point 3: the metric suite fails with that point as its witness, and
    the report is printed."""
    space = gen_nested(3)
    space_file = tmp_path / "nested3.json"
    space_file.write_text(json.dumps(space.to_dict()))
    data = complex_to_dict(build_complex(space))
    assert data["vertices"].pop() == "000"
    gone = len(data["vertices"])
    data["edges"] = [e for e in data["edges"] if gone not in e[:2]]
    cx = tmp_path / "cut.json"
    cx.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", str(space_file), "--complex-in", str(cx), "--loops", "0")
    assert (code, err) == (3, "")
    report = json.loads(out)
    assert report["checks"]["flag"]["status"] == "pass"
    assert report["checks"]["metric_correspondence"] == {
        "status": "fail",
        "witness": "point 3: its principal section 000 is not a vertex",
    }
    assert report["checks"]["parity"]["status"] == "skipped"


@pytest.mark.parametrize("key, value", [("edges", 5), ("cubes", {"2": 7})])
def test_check_malformed_complex_is_input_error(capsys, tmp_path, key, value):
    data = json.loads((FIXTURES / "crossing3_missing_cube.json").read_text())
    data[key] = value
    bad = tmp_path / "bad_complex.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", SPACE3, "--complex-in", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "must be a list" in err


def test_export_dot(capsys, tmp_path):
    space = tmp_path / "c2.json"
    space.write_text(json.dumps(gen_crossing(2).to_dict()))
    code, out, _ = run(capsys, "export", str(space), "--format", "dot")
    assert code == 0
    assert out.startswith("graph cubing {")
    assert sum(1 for ln in out.splitlines() if " -- " in ln) == 4
    assert out.count("peripheries=2") == 1


def test_export_json(capsys):
    code, out, _ = run(capsys, "export", SPACE3, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"walls", "base", "vertices", "edges", "cubes"}
    assert len(data["vertices"]) == 8


# the benchmark's inputs: cube-dense, wall-sparse and lattice-mixed
BENCHMARK_SPACES = {
    "crossing8": lambda: gen_crossing(8),
    "tree2x7": lambda: gen_tree(2, 7),
    "triangle6": lambda: triangle_lattice(6).space,
}


def _one_dimension_complex():
    """crossing(3)'s complex loaded without its 3-cube key: cubes holds
    the squares only."""
    sp = gen_crossing(3)
    data = complex_to_dict(build_complex(sp))
    del data["cubes"]["3"]
    return complex_from_dict(sp, data)


@pytest.mark.parametrize(
    "make",
    [*(lambda f=f: build_complex(f()) for f in BENCHMARK_SPACES.values()), _one_dimension_complex],
    ids=[*BENCHMARK_SPACES, "squares_only"],
)
def test_complex_writer_matches_json_dumps(make):
    d = complex_to_dict(make())
    text = _complex_text(d)
    assert text == json.dumps(d, indent=2) + "\n"
    # a key complex_to_dict gains must fail here, not vanish from the file
    assert list(json.loads(text)) == list(d) == ["walls", "base", "vertices", "edges", "cubes"]


@pytest.mark.parametrize(
    "space", [gen_crossing(10), triangle_lattice(3).space], ids=["crossing10", "triangle3"]
)
def test_complex_file_bypasses_the_json_encoder(capsys, monkeypatch, tmp_path, space):
    """build --out and export --format json write the complex without
    json.dumps, whose indented form runs the pure-Python encoder."""
    space_file, out = tmp_path / "space.json", tmp_path / "complex.json"
    space_file.write_text(json.dumps(space.to_dict()))
    encode = json.JSONEncoder.iterencode

    def guarded(self, o, *args, **kwargs):
        if isinstance(o, dict) and "vertices" in o:
            raise AssertionError("the complex went through json.JSONEncoder")
        return encode(self, o, *args, **kwargs)

    monkeypatch.setattr(json.JSONEncoder, "iterencode", guarded)
    with pytest.raises(AssertionError):
        json.dumps({"vertices": []}, indent=2)
    assert run(capsys, "build", str(space_file), "--out", str(out))[0] == 0
    code, exported, _ = run(capsys, "export", str(space_file), "--format", "json")
    assert code == 0
    assert exported == out.read_text()
    assert json.loads(exported) == complex_to_dict(build_complex(space))


def test_loader_tests_plain_ints_without_helper_calls(monkeypatch):
    """Only the few values that are not plain ints reach _is_int."""
    calls = []
    is_int = cubing._is_int
    monkeypatch.setattr(cubing, "_is_int", lambda x: calls.append(x) or is_int(x))
    for make in BENCHMARK_SPACES.values():
        sp = make()
        data = json.loads(json.dumps(complex_to_dict(build_complex(sp))))
        calls.clear()
        complex_from_dict(sp, data)
        assert len(calls) < 10


def test_an_empty_top_cube_list_fails_like_a_missing_key(capsys, tmp_path):
    """crossing(4) without its 4-cube: "4": [] registers no dimension,
    so the report and the flag witness are those of the deleted key."""
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(gen_crossing(4).to_dict()))
    data = complex_to_dict(build_complex(gen_crossing(4)))
    outs = []
    for drop in (lambda c: c.__setitem__("4", []), lambda c: c.pop("4")):
        drop(data["cubes"])
        cx = tmp_path / "cx.json"
        cx.write_text(json.dumps(data))
        code, out, _ = run(capsys, "check", str(space_file), "--complex-in", str(cx))
        assert code == 3
        outs.append(out)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["dimension"] == 3 and "4" not in report["complex"]["cubes"]
    assert report["checks"]["flag"]["witness"] == (
        "vertex 0: walls [0, 1, 2, 3] cross and label edges at it, but no 4-cube is registered"
    )


def test_generate_matches_library(capsys):
    code, out, _ = run(capsys, "generate", "--family", "crossing", "--param", "3")
    assert code == 0
    assert json.loads(out) == gen_crossing(3).to_dict()


def test_generate_tree_params(capsys):
    code, out, _ = run(capsys, "generate", "--family", "tree", "--param", "2,2")
    assert code == 0
    assert json.loads(out)["points"] == 4


def test_generate_bad_params(capsys):
    code, _, err = run(capsys, "generate", "--family", "crossing", "--param", "1,2")
    assert code == 1
    code, _, err = run(capsys, "generate", "--family", "crossing", "--param", "x")
    assert code == 1
    assert "comma-separated" in err


def test_unknown_family_is_input_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["generate", "--family", "dodecahedron", "--param", "1"])
    assert info.value.code == 1


def test_act_identity(capsys):
    code, out, _ = run(
        capsys, "act", SPACE3, "--generators", str(FIXTURES / "generators_identity.json")
    )
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["equivariance"]["status"] == "pass"
    assert report["orbit"]["size"] == 1
    assert "properness" in report["note"]


def test_act_swap_group(capsys):
    code, out, _ = run(
        capsys, "act", SPACE3, "--generators", str(FIXTURES / "generators_swaps.json")
    )
    assert code == 0
    report = json.loads(out)
    assert report["generators"] == ["s01", "s12"]
    assert [g["generator"] for g in report["equivariance"]] == ["s01", "s12"]
    assert report["orbit"]["size"] == 1


def test_act_half_space_breaking_generator(capsys):
    code, _, err = run(
        capsys, "act", SPACE3, "--generators", str(FIXTURES / "generators_bad.json")
    )
    assert code == 1
    assert "half-space" in err.lower()


@pytest.mark.parametrize("name", ["s12^-1", "s 12", "s12\n"])
def test_act_rejects_generator_names_words_cannot_spell(capsys, monkeypatch, tmp_path, name):
    # stabilizer words are space-separated and adjoined inverses end in ^-1
    def no_build(*args, **kwargs):
        raise AssertionError("the complex was built")

    monkeypatch.setattr("cubulate.cli.build_component", no_build)
    data = json.loads((FIXTURES / "generators_swaps.json").read_text())
    data["generators"][1]["name"] = name
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps(data))
    code, out, err = run(capsys, "act", SPACE3, "--generators", str(gens))
    assert code == 1
    assert out == ""
    assert "may not end in '^-1' or contain whitespace" in err


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cubulate.cli", "generate", "--family", "nested", "--param", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"points": 3, "walls": [[1, 2], [2]]}


@pytest.mark.parametrize("n", ["4096", "1000000000"])
def test_generate_nested_rejects_oversize_before_building(capsys, monkeypatch, n):
    import cubulate.families as families

    def no_range(*args):
        raise AssertionError("a wall list was built for an oversized n")

    monkeypatch.setattr(families, "range", no_range, raising=False)
    code, out, err = run(capsys, "generate", "--family", "nested", "--param", n)
    assert code == 1
    assert out == ""
    assert err == f"error: nested size n must be in 1..4095, got {n}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", SPACE3, "--loops", "-5"],
        ["check", SPACE3, "--loops", "-1", "--seed", "2"],
        ["act", SPACE3, "--generators", str(FIXTURES / "generators_swaps.json"),
         "--word-length", "-1"],
        *(
            [*command, "--max-vertices", cap]
            for command in (
                ["build", SPACE3],
                ["check", SPACE3, "--complex-in", "/nonexistent"],
                ["act", SPACE3, "--generators", str(FIXTURES / "generators_swaps.json")],
            )
            for cap in ("0", "-2")
        ),
    ],
)
def test_negative_counts_rejected_before_work(capsys, monkeypatch, argv):
    import cubulate.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("the complex was built for a bad argument")

    monkeypatch.setattr(cli, "build_component", no_work)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if "--max-vertices" in argv:
        cap = argv[-1]
        assert f"error: argument --max-vertices: must be positive, got {cap}" in captured.err
    else:
        assert "must be non-negative" in captured.err


def test_zero_counts_accepted(capsys):
    code, out, _ = run(capsys, "check", SPACE3, "--loops", "0")
    assert code == 0
    assert json.loads(out)["checks"]["parity"]["loops"] == 0
    code, out, _ = run(
        capsys, "act", SPACE3, "--generators", str(FIXTURES / "generators_swaps.json"),
        "--word-length", "0",
    )
    assert code == 0
    assert json.loads(out)["orbit"]["stabilizer_words"] == []


def test_clique_searches_deeper_than_the_recursion_limit_end_without_a_traceback(capsys, tmp_path):
    """1200 pairwise crossing walls: the intersection number and the
    clique count descend 1200 levels.  A one-vertex file fails the metric
    suite, and a cap of 10**300 is refused after 997 levels of counting."""
    space = tmp_path / "space.json"
    space.write_text(json.dumps(deep_clique_space().to_dict()))
    one = tmp_path / "one.json"
    zero = "0" * 1200
    one.write_text(json.dumps({"walls": 1200, "base": zero, "vertices": [zero], "edges": [], "cubes": {}}))
    code, out, err = run(capsys, "check", str(space), "--complex-in", str(one), "--loops", "0")
    report = json.loads(out)
    assert code == 3 and report["intersection_number"] == 1200
    assert report["checks"]["metric_correspondence"]["status"] == "fail"
    code, out, err = run(capsys, "build", str(space), "--max-vertices", str(10**300))
    assert code == 2 and err == f"error: component exceeds the vertex cap {10**300}\n"


@pytest.mark.parametrize("param", ["1000,100000", "100000,1000000"])
def test_generate_tree_refuses_an_unprintable_leaf_count_before_its_power(param):
    """arity**depth has 300,001 and 5,000,001 digits: Python prints
    neither, and the second takes seconds to compute."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cubulate.cli", "generate", "--family", "tree", "--param", param],
        capture_output=True,
        text=True,
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == 1 and proc.stdout == ""
    arity, depth = param.split(",")
    assert proc.stderr == f"error: tree has {arity}**{depth} leaves, the supported maximum is 4096\n"
