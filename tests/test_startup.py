"""The CLI starts lean, and its value classes stay immutable.

Each command imports only the library modules it runs, and importing
the package imports none.  The five value classes are NamedTuples, so
no command pulls in ``dataclasses`` or ``inspect``; these tests keep it
that way.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cubulate import (
    build_complex,
    orbit_and_stabilizer,
    triangle_lattice,
    validate_generator,
)
from cubulate.cli import main
from cubulate.families import gen_crossing, gen_nested
from cubulate.homotopy import ContractionCertificate, Move

FIXTURES = Path(__file__).parent / "fixtures"
SPACE3 = str(FIXTURES / "crossing3_space.json")
GENERATORS = str(FIXTURES / "generators_swaps.json")


# what each command loads besides the package, its CLI, errors and wallspace
_RUNS = {
    "validate": ([], ()),
    "build": (["--out", "{tmp}/built.json"], ("sections", "cubing")),
    "check": (["--loops", "2"], ("sections", "cubing", "certify", "homotopy")),
    "recheck": (
        ["--loops", "2", "--complex-in", "{tmp}/built.json"],
        ("sections", "cubing", "certify", "homotopy"),
    ),
    "act": (["--generators", GENERATORS], ("sections", "cubing", "action")),
    "generate": (["--family", "nested", "--param", "2"], ("families",)),
}

_PROBE = (
    "import json, sys\n"
    "heavy = {'dataclasses', 'inspect'}\n"
    "bare = heavy & set(sys.modules)\n"
    "from cubulate.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'cubulate')))\n"
    "print(json.dumps(sorted(heavy & set(sys.modules) - bare)))\n"
    "sys.exit(code)\n"
)


def _cubulate_modules(names):
    base = {"cubulate", "cubulate.cli", "cubulate.errors", "cubulate.wallspace"}
    return sorted(base | {f"cubulate.{name}" for name in names})


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_each_command_loads_only_its_modules(run, tmp_path):
    flags, loaded = _RUNS[run]
    assert main(["build", SPACE3, "--out", str(tmp_path / "built.json")]) == 0
    command = "check" if run == "recheck" else run
    argv = [command] + ([] if command == "generate" else [SPACE3])
    argv += [flag.format(tmp=tmp_path) for flag in flags]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    modules, heavy = map(json.loads, proc.stdout.splitlines()[-2:])
    assert modules == _cubulate_modules(loaded)
    # the value classes are NamedTuples: no command needs dataclasses or inspect
    assert heavy == []


def test_importing_the_package_loads_no_submodule():
    probe = (
        "import sys\n"
        "import cubulate\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'cubulate'))\n"
        "cubulate.WallSpace\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'cubulate'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['cubulate']",
        "['cubulate', 'cubulate.errors', 'cubulate.wallspace']",
    ]


def test_module_run_prints_the_bytes_of_main(capsysbinary):
    assert main(["validate", SPACE3]) == 0
    in_process = capsysbinary.readouterr().out
    proc = subprocess.run(
        [sys.executable, "-m", "cubulate.cli", "validate", SPACE3],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == in_process


def _value_objects():
    sp = gen_nested(4)
    X = build_complex(sp)
    g = validate_generator(sp, [4 - x for x in range(5)], "r")
    move = Move("backtrack", 1, (0,))
    return [
        move,
        ContractionCertificate(base=0, initial=(0, 1, 0), moves=(move,)),
        g,
        orbit_and_stabilizer(sp, X, [g], 0),
        triangle_lattice(1),
    ]


@pytest.mark.parametrize("obj", _value_objects(), ids=lambda o: type(o).__name__)
def test_value_fields_are_read_only(obj):
    name = type(obj).__name__
    assert repr(obj).startswith(f"{name}({obj._fields[0]}=")
    for field in obj._fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    with pytest.raises(AttributeError):
        obj.extra = None
