import json
import subprocess
import sys
from pathlib import Path

import pytest

from cubulate import WallSpace, build_complex, complex_from_dict, complex_to_dict
from cubulate.cli import main
from cubulate.families import gen_crossing, gen_nested, gen_tree

from helpers import drop_edge, forge_nested3_cubes

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
    assert checks["metric_correspondence"]["status"] == "fail"
    assert "-1 edges apart" in checks["metric_correspondence"]["witness"]
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


def test_check_complex_without_squares_fails_contraction(capsys, tmp_path):
    """crossing(2) loaded with no squares: its links, distances and loop
    lengths are those of the square's boundary, which does not contract."""
    space_file = tmp_path / "c2.json"
    space_file.write_text(json.dumps(gen_crossing(2).to_dict()))
    data = complex_to_dict(build_complex(gen_crossing(2)))
    data["cubes"] = {}
    cx = tmp_path / "no_squares.json"
    cx.write_text(json.dumps(data))
    code, out, _ = run(capsys, "check", str(space_file), "--complex-in", str(cx))
    assert code == 3
    checks = json.loads(out)["checks"]
    for name in ("flag", "metric_correspondence", "parity"):
        assert checks[name]["status"] == "pass", name
    assert checks["contraction"] == {
        "status": "fail",
        "witness": "square over walls [0, 1] at vertex 3 is not registered",
    }


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

    monkeypatch.setattr("cubulate.cli.build_complex", no_build)
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
    ],
)
def test_negative_counts_rejected_before_work(capsys, monkeypatch, argv):
    import cubulate.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("the complex was built for a bad argument")

    monkeypatch.setattr(cli, "build_complex", no_work)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
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
