"""The CLI starts lean, and its value classes stay immutable.

The six value classes are NamedTuples, so importing the CLI pulls in
neither ``dataclasses`` nor ``inspect``; these tests keep it that way.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from cubulate import (
    build_complex,
    orbit_and_stabilizer,
    triangle_lattice,
    validate_generator,
    vertex_link,
)
from cubulate.cli import main
from cubulate.families import gen_crossing, gen_nested
from cubulate.homotopy import ContractionCertificate, Move

SPACE3 = str(Path(__file__).parent / "fixtures" / "crossing3_space.json")


def test_cli_import_adds_neither_dataclasses_nor_inspect():
    probe = (
        "import sys\n"
        "heavy = {'dataclasses', 'inspect'}\n"
        "bare = heavy & set(sys.modules)\n"
        "import cubulate.cli\n"
        "print(sorted(heavy & set(sys.modules) - bare))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
        vertex_link(X, 0),
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
