"""Command-line frontend.

Subcommands: validate, build, check, export, generate, act.  All
commands read the wall-space JSON format of the wallspace module and
write a single JSON report to stdout (diagnostics go to stderr).  For a
fixed input and seed the stdout bytes are identical across runs; wall
clock timings are included only on request via --timings.

Exit codes: 0 success, 1 input error, 2 budget exceeded, 3 certificate
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import BudgetError, CertificateError, InputError
from .wallspace import WallSpace

if TYPE_CHECKING:
    from .cubing import CubeComplex

__all__ = ["main"]


def _forward(module: str, name: str):
    """A stand-in for ``module.name`` (dotted) that imports the module on
    its first call: each command loads only the modules it runs."""
    def forward(*args, **kwargs):
        # unlike importlib.import_module, __import__ shows in -X importtime
        owner = __import__(module, globals(), None, ("*",), 1)
        return attrgetter(name)(owner)(*args, **kwargs)

    return forward


load_generators = _forward("action", "load_generators")
check_equivariance = _forward("action", "check_equivariance")
orbit_and_stabilizer = _forward("action", "orbit_and_stabilizer")
check_metric_correspondence = _forward("certify", "check_metric_correspondence")
contraction_suite = _forward("certify", "contraction_suite")
flag_suite = _forward("certify", "flag_suite")
parity_suite = _forward("certify", "parity_suite")
build_component = _forward("cubing", "build_component")
complex_from_dict = _forward("cubing", "complex_from_dict")
complex_to_dict = _forward("cubing", "complex_to_dict")
dimension = _forward("cubing", "dimension")
to_dot = _forward("cubing", "to_dot")
_family = _forward("families", "FAMILIES.__getitem__")
principal_section = _forward("sections", "principal_section")

# sorted(families.FAMILIES), kept here so that the parser needs no families
FAMILY_NAMES = ("crossing", "nested", "tree", "triangle-lattice")

CHECK_NAMES = ("flag", "metric_correspondence", "parity", "contraction", "equivariance")

PROPERNESS_NOTE = (
    "equivariance certified on the finite complex; properness of the "
    "action is a statement about the infinite complex and is not checked"
)


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1 instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _count(text: str, least: int = 0) -> int:
    """argparse type for counts: a non-negative integer, or with least=1
    a positive one."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < least:
        sign = "positive" if least else "non-negative"
        raise argparse.ArgumentTypeError(f"must be {sign}, got {value}")
    return value


def _digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _load_json(path: str) -> tuple[object, str]:
    raw = Path(path).read_bytes()
    try:
        return json.loads(raw), _digest(raw)
    # JSONDecodeError is a ValueError, as is an int literal past Python's
    # digit limit; nesting past the recursion limit raises RecursionError
    except (ValueError, RecursionError) as e:
        raise InputError(f"{path}: invalid JSON: {e}") from e


def _load_space(path: str) -> tuple[WallSpace, str]:
    data, digest = _load_json(path)
    return WallSpace.from_dict(data), digest


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(obj: object, out: str | None = None) -> None:
    _write(json.dumps(obj, indent=2) + "\n", out)


def _lines(items: list[str], indent: str, brackets: str = "[]") -> str:
    """A JSON array (an object with brackets "{}") of written items, one
    per line at the indent, laid out as json.dumps(..., indent=2) does."""
    if not items:
        return brackets
    return f"{brackets[0]}\n{indent}" + f",\n{indent}".join(items) + f"\n{indent[2:]}{brackets[1]}"


_EDGE = _lines(["%d"] * 3, " " * 6)


def _complex_text(d: dict) -> str:
    """``json.dumps(d, indent=2) + "\\n"`` for the shape complex_to_dict
    returns, from one %-template per vertex, edge and cube entry.  With
    indent set, json.dumps runs the pure-Python encoder, which costs
    several times the build on a complex with thousands of cubes.  The
    encodings are 0/1 strings and every other value is an int, so
    nothing needs escaping."""
    cube_templates: dict[int, str] = {}  # by wall count
    cubes = []
    for k, entries in d["cubes"].items():
        texts = []
        for b, walls in entries:
            t = cube_templates.get(len(walls))
            if t is None:
                t = _lines(["%d", _lines(["%d"] * len(walls), " " * 10)], " " * 8)
                cube_templates[len(walls)] = t
            texts.append(t % (b, *walls))
        cubes.append(f'"{k}": ' + _lines(texts, " " * 6))
    fields = [
        '"walls": %d' % d["walls"],
        '"base": "%s"' % d["base"],
        '"vertices": ' + _lines([f'"{v}"' for v in d["vertices"]], " " * 4),
        '"edges": ' + _lines([_EDGE % tuple(e) for e in d["edges"]], " " * 4),
        '"cubes": ' + _lines(cubes, " " * 4, "{}"),
    ]
    return _lines(fields, "  ", "{}") + "\n"


def _emit_complex(X: CubeComplex, out: str | None) -> None:
    """Write the complex's JSON form, the bytes _emit would write."""
    _write(_complex_text(complex_to_dict(X)), out)


def _skipped_checks() -> dict:
    return {name: {"status": "skipped"} for name in CHECK_NAMES}


def _complex_summary(X: CubeComplex) -> dict:
    cubes = {str(k): n for k, n in X.cube_counts().items()}
    return {"vertices": len(X.codes), "edges": len(X.edges), "cubes": cubes}


def _base_report(command: str, space: WallSpace, digest: str) -> dict:
    return {
        "command": command,
        "input": {
            "digest": digest,
            "points": space.point_count,
            "walls": space.wall_count,
        },
    }


def cmd_validate(args) -> int:
    space, digest = _load_space(args.file)
    report = _base_report("validate", space, digest)
    report["status"] = "ok"
    _emit(report)
    return 0


def cmd_build(args) -> int:
    space, digest = _load_space(args.file)
    t0 = time.perf_counter()
    X = build_component(space, base_point=args.base, max_vertices=args.max_vertices)
    elapsed = time.perf_counter() - t0
    report = _base_report("build", space, digest)
    report["base_point"] = args.base
    report["complex"] = _complex_summary(X)
    report["f_vector"] = list(X.f_vector())
    report["intersection_number"] = space.intersection_number()
    report["dimension"] = dimension(X)
    report["checks"] = _skipped_checks()
    if args.timings:
        report["timings"] = {"build_s": round(elapsed, 6)}
    if args.out:
        _emit_complex(X, args.out)
    _emit(report)
    return 0


def cmd_check(args) -> int:
    if args.complex_in and args.base is not None:
        raise InputError("--base does not apply to --complex-in: the complex names its base")
    space, digest = _load_space(args.file)
    t0 = time.perf_counter()
    if args.complex_in:
        data, _ = _load_json(args.complex_in)
        X = complex_from_dict(space, data, args.max_vertices)
        # the lowest point whose principal section is the file's base, if any
        base = next(
            (p for p in space.points() if principal_section(space, p) == X.codes[X.base]), None
        )
    else:
        base = 0 if args.base is None else args.base
        X = build_component(space, base_point=base, max_vertices=args.max_vertices)
    report = _base_report("check", space, digest)
    report["base_point"] = base
    report["seed"] = args.seed
    report["loops"] = args.loops
    report["complex"] = _complex_summary(X)
    report["intersection_number"] = space.intersection_number()
    report["dimension"] = dimension(X)
    checks = _skipped_checks()
    report["checks"] = checks
    suites = (
        ("flag", lambda: flag_suite(X)),
        ("metric_correspondence", lambda: check_metric_correspondence(space, X)),
        ("parity", lambda: parity_suite(X, args.seed, args.loops)),
        ("contraction", lambda: contraction_suite(X, args.seed, args.loops)),
    )
    code = 0
    for name, run in suites:
        if code:
            break
        try:
            checks[name] = {"status": "pass", **run()}
        except CertificateError as e:
            checks[name] = {"status": "fail", "witness": str(e)}
            code = 3
    if args.timings:
        report["timings"] = {"total_s": round(time.perf_counter() - t0, 6)}
    _emit(report)
    return code


def cmd_export(args) -> int:
    space, _ = _load_space(args.file)
    X = build_component(space, base_point=args.base, max_vertices=args.max_vertices)
    if args.format == "dot":
        _write(to_dot(X), args.out)
    else:
        _emit_complex(X, args.out)
    return 0


def cmd_generate(args) -> int:
    try:
        params = [int(part) for part in args.param.split(",")]
    except ValueError:
        raise InputError(f"--param must be comma-separated integers, got {args.param!r}")
    space = _family(args.family)(params)
    _emit(space.to_dict(), args.out)
    return 0


def cmd_act(args) -> int:
    space, digest = _load_space(args.file)
    gen_data, _ = _load_json(args.generators)
    generators = load_generators(space, gen_data)
    X = build_component(space, base_point=args.base, max_vertices=args.max_vertices)
    report = _base_report("act", space, digest)
    report["base_point"] = args.base
    report["complex"] = _complex_summary(X)
    report["generators"] = [g.name for g in generators]
    checks = _skipped_checks()
    report["checks"] = checks
    report["equivariance"] = []
    report["orbit"] = None
    report["note"] = PROPERNESS_NOTE
    try:
        details = [check_equivariance(space, X, g) for g in generators]
    except CertificateError as e:
        checks["equivariance"] = {"status": "fail", "witness": str(e)}
        _emit(report)
        return 3
    checks["equivariance"] = {"status": "pass", "generators": len(generators)}
    report["equivariance"] = details
    orb = orbit_and_stabilizer(
        space, X, generators, X.base, word_length=args.word_length
    )
    report["orbit"] = {
        "vertex": orb.vertex,
        "size": len(orb.orbit),
        "members": list(orb.orbit),
        "stabilizer_words": [" ".join(w) for w in orb.stabilizer_words],
        "word_length": orb.word_length,
    }
    _emit(report)
    return 0


def _add_build_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--base", type=int, default=0, help="base point (default 0)")
    p.add_argument(
        "--max-vertices",
        type=lambda text: _count(text, least=1),
        default=None,
        help="vertex budget (default: 2^20)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cubulate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a wall-space JSON file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("build", help="build the cube complex and report counts")
    p.add_argument("file")
    _add_build_flags(p)
    p.add_argument("--out", help="write the complex JSON to this file")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("check", help="run the certificate suites")
    p.add_argument("file")
    _add_build_flags(p)
    p.add_argument("--loops", type=_count, default=100, help="random loops per suite")
    p.add_argument("--seed", type=int, default=0, help="seed for the loop suites")
    p.add_argument("--complex-in", help="check this complex JSON instead of building")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")
    # None tells an omitted --base from --base 0, which --complex-in rejects
    p.set_defaults(func=cmd_check, base=None)

    p = sub.add_parser("export", help="export the complex as DOT or JSON")
    p.add_argument("file")
    _add_build_flags(p)
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("generate", help="emit a model family as wall-space JSON")
    p.add_argument("--family", choices=FAMILY_NAMES, required=True)
    p.add_argument("--param", required=True, help='size, e.g. "3" or "2,2"')
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("act", help="check a generator action on the complex")
    p.add_argument("file")
    _add_build_flags(p)
    p.add_argument("--generators", required=True, help="generators JSON file")
    p.add_argument(
        "--word-length", type=_count, default=4, help="stabilizer word bound"
    )
    p.set_defaults(func=cmd_act)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CertificateError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
