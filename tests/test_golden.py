"""Byte-identity gate for the command line.

The sha256 digests below were recorded from the CLI's stdout (and the
complex JSON that ``build --out`` writes) before sections became ints,
except the five ``reject`` digests, which moved when a refused complex
began to get its witness from the verdict's own data.  A flag failure
names the first set of crossing walls at a vertex whose cube is not
registered, in a sentence that is true for k = 2 too (crossing3_space,
crossing8 and triangle6, with the vertex and walls the link search
named before); a metric failure names the first vertex that fails the
descent test instead of the first pair of points that a sweep found
(tree2x3, a tree with one edge dropped, and tree2x7).
The ``dot`` exports and triangle2's ``*-base`` commands (a non-zero
base point, and a loaded complex whose base is not vertex 0) were
recorded before a complex vertex became an index into one tuple of
codes, except ``check-base`` and ``recheck-base``, recorded when
``check`` began to report the base point rather than the base vertex's
index as ``base_point`` (so the two now match).  The ``json`` exports were recorded before the complex file got a
writer of its own instead of ``json.dumps(..., indent=2)``.  The
benchmark inputs' ``check`` and ``recheck`` (``check --complex-in`` of
the complex ``build`` wrote) were recorded while the flag check still
searched every vertex link, and ``reject`` is the same file without the
last of its top-dimensional cubes, or its last edge when it has none.
Any change to text encoding, JSON layout, BFS order, vertex, edge or
cube numbering, or a report or witness string shows up here.  When such
a change is intended, regenerate the table with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log why the bytes moved.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from cubulate import WallSpace, build_complex, complex_to_dict, cubing, encode_section, principal_section
from cubulate.cli import main
from cubulate.families import gen_crossing, gen_nested, gen_tree, triangle_lattice

from helpers import drop_edge

FIXTURES = Path(__file__).parent / "fixtures"


def _swap_bits(p, i, j):
    if (p >> i & 1) != (p >> j & 1):
        p ^= (1 << i) | (1 << j)
    return p


def _gens(**perms):
    return {"generators": [{"name": n, "perm": p} for n, p in perms.items()]}


def _lattice_case():
    tl = triangle_lattice(2)
    index = {c: i for i, c in enumerate(tl.cells)}
    transpose = [index[(c.orient, c.n, c.m)] for c in tl.cells]
    return tl.space.to_dict(), _gens(t=transpose)


def spaces():
    """name -> (wall-space dict, generators dict)."""
    load = lambda name: json.loads((FIXTURES / name).read_text())
    return {
        "crossing3_space": (load("crossing3_space.json"), load("generators_swaps.json")),
        "crossing4": (
            gen_crossing(4).to_dict(),
            _gens(s01=[_swap_bits(p, 0, 1) for p in range(16)],
                  s12=[_swap_bits(p, 1, 2) for p in range(16)]),
        ),
        "tree2x3": (
            gen_tree(2, 3).to_dict(),
            _gens(r=[p ^ 4 for p in range(8)], s=[p ^ 1 for p in range(8)]),
        ),
        "nested5": (gen_nested(5).to_dict(), _gens(r=[5 - p for p in range(6)])),
        "triangle2": _lattice_case(),
    }


# spaces also run from a non-zero base point: name -> point
BASES = {"triangle2": 5}


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue().encode()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def commands_of(name, tmp: Path) -> dict:
    """The argv of each command run on one space, with its input files
    written to tmp; ``build`` writes the complex file cx.json there."""
    space, gens = spaces()[name]
    space_file, gens_file, cx_file = tmp / "space.json", tmp / "gens.json", tmp / "cx.json"
    space_file.write_text(json.dumps(space))
    gens_file.write_text(json.dumps(gens))
    commands = {
        "build": ["build", str(space_file), "--out", str(cx_file)],
        "check": ["check", str(space_file), "--seed", "0"],
        "act": ["act", str(space_file), "--generators", str(gens_file)],
        "dot": ["export", str(space_file), "--format", "dot"],
        "json": ["export", str(space_file), "--format", "json"],
    }
    if name == "crossing3_space":
        commands["reject"] = [
            "check", str(space_file), "--seed", "0",
            "--complex-in", str(FIXTURES / "crossing3_missing_cube.json"),
        ]
    if name in BASES:
        # built from a non-zero base point, and a complex built from point
        # 0 that names that point's principal vertex as its base
        base, ws = BASES[name], WallSpace.from_dict(space)
        rebased = complex_to_dict(build_complex(ws))
        rebased["base"] = encode_section(principal_section(ws, base), ws.wall_count)
        rebased_file = tmp / "rebased.json"
        rebased_file.write_text(json.dumps(rebased))
        b = ["--base", str(base)]
        commands["build-base"] = ["build", str(space_file), *b, "--out", str(cx_file)]
        commands["check-base"] = ["check", str(space_file), *b, "--seed", "0"]
        commands["act-base"] = ["act", str(space_file), *b, "--generators", str(gens_file)]
        commands["dot-base"] = ["export", str(space_file), *b, "--format", "dot"]
        commands["json-base"] = ["export", str(space_file), *b, "--format", "json"]
        commands["recheck-base"] = [
            "check", str(space_file), "--seed", "0", "--complex-in", str(rebased_file),
        ]
    if name == "tree2x3":
        # a tree with an edge dropped: the metric suite reports the first
        # vertex from which no edge leads towards a principal vertex
        cut = drop_edge(complex_to_dict(build_complex(WallSpace.from_dict(space))))
        cut_file = tmp / "cut.json"
        cut_file.write_text(json.dumps(cut))
        commands["reject"] = [
            "check", str(space_file), "--seed", "0", "--complex-in", str(cut_file),
        ]
    return commands


def digests(name, tmp: Path) -> dict:
    """Exit code and stdout digest per command for one space."""
    out = {}
    cx_file = tmp / "cx.json"
    for cmd, argv in commands_of(name, tmp).items():
        code, stdout = _run(argv)
        out[cmd] = f"{code}:{_sha(stdout)}"
        if cmd.startswith("build"):
            out[cmd.replace("build", "complex")] = _sha(cx_file.read_bytes())
    return out


GOLDEN = {
    "crossing3_space": {
        "build": "0:37252cb93ce904c41385178f03b07816f3e497910412d30c084f6e4aad526ceb",
        "complex": "f77be2f6137c342cbb643af1461c7ad05fdc1825d1bae88354d8c77289668f68",
        "check": "0:de50b2b6af51eb785d0109a58025d8453603e76847f6c182d461a34b10b53325",
        "act": "0:45dbc303084573708bfed93e917b173d33cf287069b2be78f7aecccce73cdb6c",
        "dot": "0:3a8e7177c56e9604f47a58464251cef34801240bbdd53c5bd712f5757d0fce60",
        "json": "0:f77be2f6137c342cbb643af1461c7ad05fdc1825d1bae88354d8c77289668f68",
        "reject": "3:8e56504f2171ab128760549a000a8368131193c35eebda8bc00413400413d6db"
    },
    "crossing4": {
        "build": "0:7d016959dcc4ac5a73989fc08c6d53a29174d3049c3e121b2f6dc768004cad91",
        "complex": "0426c68125e9b23aad803c8b863c254e67bb76c13b98e65b223eb35e28ff0cf5",
        "check": "0:9dc0f4cd6c69568590f6af088f2172680e125d8e95f7cfdf2f2117baa0051465",
        "act": "0:97c0c096216ee587e7e68fdb88f7198422ea5591b01a9f9d48d7d3543bfceec2",
        "dot": "0:35214d581d5081b1a981f2a16c79582155410d63ee3d7dfac0137bf128a929b9",
        "json": "0:0426c68125e9b23aad803c8b863c254e67bb76c13b98e65b223eb35e28ff0cf5"
    },
    "nested5": {
        "build": "0:1b603e3e557fc3a6554cfa4a4580514458b70065153076659bee8a9f45acc638",
        "complex": "73a08a9d0f55b0d6907594f1c7f57ac816b9cea8c9ccd0950b426748455819a0",
        "check": "0:bcc69875ef87c1f9afd8a0b15db8a13208a838f9a05eb11f9f0d593117662ce5",
        "act": "0:4b0b9e0af91b9741adb763b5b6b80c63b14fa8cc3c9e94ad08efc555251a42ed",
        "dot": "0:3083d0e791aaed0ab4d7cea9a10b1fcbb8b0ff912c04a26bd8a02e3c82cc8b6e",
        "json": "0:73a08a9d0f55b0d6907594f1c7f57ac816b9cea8c9ccd0950b426748455819a0"
    },
    "tree2x3": {
        "build": "0:43504a97a8848d96510e79c4080cfb592de3ef6f61b334d33f0e419465a39440",
        "complex": "db95054434a6c1a66e0dc61dbf2ce3654c25f7c62a453a7b3e62d86f9c2dbb56",
        "check": "0:4c8121ababf7ec60b8f9a45ae4d80effaeb3961c283b1be2a60bba4f5022c195",
        "act": "0:885d5cad2d5151b281f93946d2a138cf7411e18a7a94429041a78b7206a94108",
        "dot": "0:e3e98347469d5c5d9f4cad3faa9bce87396efb15e0d590639b3f65efbe5cd4c7",
        "json": "0:db95054434a6c1a66e0dc61dbf2ce3654c25f7c62a453a7b3e62d86f9c2dbb56",
        "reject": "3:13955e34ab57f0a91797c8470d6cd0ca97d8b3ea4ed057f2a69327bf78fbb7d9"
    },
    "triangle2": {
        "build": "0:cf73172e4d47f2bfee776689b06d62a927888e03aedfcb6aa62b327df2355ca8",
        "complex": "edbdb05f62a7788da55c5aab0b7474e4a954e864f284038e7332448d8cd1fc77",
        "check": "0:759c33d54f4bb62fe5f9517b5dc523b8cfd5a5c1dfa5279706f12076c0d08ad4",
        "act": "0:4dd52a2061c90961e457c09aef23941358deb5298e22c99bdb510b5b34772878",
        "dot": "0:25d91c261885169ea3b4f1bf83c1331ae2ab728a00a20f4a700af179cc812303",
        "json": "0:edbdb05f62a7788da55c5aab0b7474e4a954e864f284038e7332448d8cd1fc77",
        "build-base": "0:f07f32c025f231f675c59142f4e7b75d645e8481fdc507902b4883ca3089b7bd",
        "complex-base": "18d7c508c5e05f6eaf4d3a9ed26424389916c4e9c03cc24c15d0ec161ac38d92",
        "check-base": "0:0a21b451a363d20bf1526cac4505ea784987764b103adf95d80fb909355d7d28",
        "act-base": "0:d4d8aae64847cb44edf8167ab6a8c4d34ad3f7a408148ca56a6b65ce80711fa1",
        "dot-base": "0:e973eeae4cb3ecd062b8de757aa38d5053018b1ae0e108b5056b786cd28a9646",
        "json-base": "0:18d7c508c5e05f6eaf4d3a9ed26424389916c4e9c03cc24c15d0ec161ac38d92",
        "recheck-base": "0:0a21b451a363d20bf1526cac4505ea784987764b103adf95d80fb909355d7d28"
    }
}


# the benchmark's inputs, checked after a build and from the written file
BENCHMARK_SPACES = {
    "crossing8": lambda: gen_crossing(8),
    "tree2x7": lambda: gen_tree(2, 7),
    "triangle6": lambda: triangle_lattice(6).space,
}


def benchmark_digests(name, tmp: Path) -> dict:
    space_file, cx_file = tmp / "space.json", tmp / "cx.json"
    space_file.write_text(json.dumps(BENCHMARK_SPACES[name]().to_dict()))
    code, _ = _run(["build", str(space_file), "--out", str(cx_file)])
    assert code == 0
    data = json.loads(cx_file.read_text())
    cubes = data["cubes"]
    (cubes[max(cubes, key=int)] if cubes else data["edges"]).pop()
    cut_file = tmp / "cut.json"
    cut_file.write_text(json.dumps(data))
    out = {}
    for cmd, extra in (
        ("check", []),
        ("recheck", ["--complex-in", str(cx_file)]),
        ("reject", ["--complex-in", str(cut_file)]),
    ):
        code, stdout = _run(["check", str(space_file), "--seed", "0", *extra])
        out[cmd] = f"{code}:{_sha(stdout)}"
    return out


BENCHMARK_GOLDEN = {
    "crossing8": {
        "check": "0:ce4a0e147ea72d9596101b37ff269c606bb558d57dd21411649344dc336c496d",
        "recheck": "0:ce4a0e147ea72d9596101b37ff269c606bb558d57dd21411649344dc336c496d",
        "reject": "3:66f5e4f6963b2fd63de3294f138cc61c2bd4b260ba2684dbc09bfb4144b241c0"
    },
    "tree2x7": {
        "check": "0:bc5dbd0e958edafeb6ab5ca5610a9fa5832b1bc8ec078662a5a35d76afd11452",
        "recheck": "0:bc5dbd0e958edafeb6ab5ca5610a9fa5832b1bc8ec078662a5a35d76afd11452",
        "reject": "3:de8954cc2e234e914cebd270ba5a25e6e8e79cf24445d0288ff0acc69778e795"
    },
    "triangle6": {
        "check": "0:01e4cd5ea4bd9426be3e3586d3d9f02bb4f57050d74eb7b22b78c365d5617ffb",
        "recheck": "0:01e4cd5ea4bd9426be3e3586d3d9f02bb4f57050d74eb7b22b78c365d5617ffb",
        "reject": "3:4cb1d47bef35013c0c95797552957811d2338a5aab4990a737e62294fcab8b8f"
    }
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_bytes_unchanged(name, tmp_path):
    assert digests(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(BENCHMARK_GOLDEN))
def test_benchmark_checks_unchanged(name, tmp_path):
    assert benchmark_digests(name, tmp_path) == BENCHMARK_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_only_a_written_complex_gets_a_registry(name, tmp_path, monkeypatch):
    """With attach_cubes raising, every command but ``build --out`` and
    ``export --format json`` prints its golden bytes: ``check``, ``act``,
    the ``dot`` export and ``check --complex-in``, which reads the file's
    registry.  ``build`` without ``--out`` prints the golden bytes of
    ``build --out``."""
    def no_registry(X):
        raise AssertionError("a cube registry was built")

    commands = commands_of(name, tmp_path)
    # complex_to_dict and build_complex look attach_cubes up in cubing
    monkeypatch.setattr(cubing, "attach_cubes", no_registry)
    checked = 0
    for cmd, argv in commands.items():
        if cmd.startswith("json"):
            continue
        if cmd.startswith("build"):
            argv = argv[: argv.index("--out")]
        code, stdout = _run(argv)
        assert f"{code}:{_sha(stdout)}" == GOLDEN[name][cmd], cmd
        checked += 1
    assert checked >= 4


def test_golden_table_covers_every_space():
    assert sorted(GOLDEN) == sorted(spaces())
    assert sorted(BENCHMARK_GOLDEN) == sorted(BENCHMARK_SPACES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        table = {name: digests(name, Path(d)) for name in sorted(spaces())}
        bench = {name: benchmark_digests(name, Path(d)) for name in sorted(BENCHMARK_SPACES)}
    print("GOLDEN = " + json.dumps(table, indent=4))
    print("BENCHMARK_GOLDEN = " + json.dumps(bench, indent=4))
