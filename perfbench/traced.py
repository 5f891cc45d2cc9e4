"""Per-layer spans, counters and memory peaks, taken in-process.

The traced pass runs each CLI command through ``cubulate.cli.main`` in
this process, with the library's public functions wrapped by the
``Recorder`` below.  The wrappers are the benchmark's own code; nothing
in the library changes.  Every ``*_s`` metric is self time: the time
spent in a wrapped call minus the time of the wrapped calls it made, so
the spans of one command add up to the part of its wall time that the
layers account for.  ``tracemalloc`` stays off in this pass: it slows
allocation-heavy calls more than tenfold.

Memory peaks come from a separate pass under ``tracemalloc``, whose
times are discarded.  Each measured call runs once, traced on its own,
and its peak is the most memory it held allocated at one time.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import time
import tracemalloc
from collections import defaultdict


class Recorder:
    """Self time and call counts per span name."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._child_s: list[float] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.self_s[name] += elapsed - self._child_s.pop()
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += elapsed

        return span

    def total_s(self) -> float:
        return sum(self.self_s.values())


def _targets():
    """(owner, attribute, span name) for every wrapped call.

    A function imported by name into another module is wrapped where it
    is looked up, so the spans see the calls the library makes itself.
    """
    from cubulate import action, certify, cli, cubing
    from cubulate.cubing import CubeComplex
    from cubulate.wallspace import WallSpace

    return [
        (WallSpace, "from_dict", "wallspace.from_dict"),
        (WallSpace, "intersection_number", "wallspace.intersection_number"),
        (WallSpace, "_crossing_masks", "wallspace.crossing_masks"),
        (WallSpace, "wall_distance", "wallspace.wall_distance"),
        (cubing, "admissible_flips", "sections.admissible_flips"),
        (cubing, "principal_section", "sections.principal_section"),
        (certify, "principal_section", "sections.principal_section"),
        (action, "principal_section", "sections.principal_section"),
        (cubing, "build_component", "cubing.build_component"),
        (cubing, "attach_cubes", "cubing.attach_cubes"),
        (certify, "check_flag", "cubing.check_flag"),
        (CubeComplex, "bfs_tree", "cubing.bfs"),
        (cli, "complex_to_dict", "cubing.complex_to_dict"),
        (cli, "complex_from_dict", "cubing.complex_from_dict"),
        (cli, "check_metric_correspondence", "certify.metric"),
        (cli, "parity_suite", "certify.parity"),
        (cli, "contraction_suite", "certify.contraction"),
        (certify, "random_loop", "homotopy.random_loop"),
        (certify, "contract_loop", "homotopy.contract_loop"),
        (certify, "replay_certificate", "homotopy.replay"),
        (cli, "load_generators", "action.load_generators"),
        (cli, "check_equivariance", "action.check_equivariance"),
        (cli, "orbit_and_stabilizer", "action.orbit"),
    ]


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Wrap every target for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in _targets():
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, property):
                new = property(rec.wrap(name, raw.fget))
            elif isinstance(raw, classmethod):
                new = staticmethod(rec.wrap(name, getattr(owner, attr)))
            else:
                new = rec.wrap(name, raw)
            setattr(owner, attr, new)
        yield rec
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def replay(argv: list[str]) -> tuple[bytes, float]:
    """Run one CLI command in this process: (stdout, seconds)."""
    from cubulate import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return buf.getvalue().encode(), time.perf_counter() - t0


def memory_pass(space_data: dict, gens_data: dict) -> dict[str, float]:
    """``<span>.peak_mb``: the most memory each call held at once, in MB,
    for the calls that hold the most, in the order a command makes them."""
    from cubulate.action import check_equivariance, load_generators
    from cubulate.cubing import attach_cubes, build_component, check_flag, complex_to_dict
    from cubulate.wallspace import WallSpace

    out = {}

    def peak(name, call):
        gc.collect()
        tracemalloc.start()
        try:
            result = call()
            out[f"{name}.peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        return result

    space = WallSpace.from_dict(space_data)
    component = peak("build_component", lambda: build_component(space))
    X = peak("attach_cubes", lambda: attach_cubes(component))
    peak("check_flag", lambda: check_flag(X))
    peak("complex_to_dict", lambda: complex_to_dict(X))
    gens = load_generators(space, gens_data)
    peak("check_equivariance", lambda: [check_equivariance(space, X, g) for g in gens])
    return out


def unit_of(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_yield", "ratio"), ("_bytes", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


def layer_metrics(rec: Recorder, reports: dict[str, dict], walls: int,
                  complex_bytes: int) -> dict[str, float]:
    """Per-layer times and counts from one traced pass over the commands."""
    s, calls = rec.self_s, rec.calls
    f = reports["build"]["f_vector"]
    check = reports["check"]["checks"]
    details = reports["act"]["equivariance"]
    V, E = f[0], f[1]
    return {
        "wallspace.from_dict_s": s["wallspace.from_dict"],
        "wallspace.intersection_number_s": s["wallspace.intersection_number"]
        + s["wallspace.crossing_masks"],
        "wallspace.wall_distance_calls": calls["wallspace.wall_distance"],
        "wallspace.wall_distance_s": s["wallspace.wall_distance"],
        "sections.admissible_flips_calls": calls["sections.admissible_flips"],
        "sections.admissible_flips_s": s["sections.admissible_flips"],
        "sections.flip_tests": V * walls,
        "sections.flip_yield": 2 * E / (V * walls),
        "sections.principal_section_s": s["sections.principal_section"],
        "cubing.build_component_s": s["cubing.build_component"],
        "cubing.attach_cubes_s": s["cubing.attach_cubes"],
        "cubing.cube_facets": sum(k * n for k, n in enumerate(f) if k >= 2),
        "cubing.cube_vertex_visits": sum(2**k * n for k, n in enumerate(f) if k >= 2),
        "cubing.check_flag_s": s["cubing.check_flag"],
        "cubing.bfs_calls": calls["cubing.bfs"],
        "cubing.bfs_s": s["cubing.bfs"],
        "cubing.complex_to_dict_s": s["cubing.complex_to_dict"],
        "cubing.complex_json_bytes": complex_bytes,
        "cubing.complex_from_dict_s": s["cubing.complex_from_dict"],
        "certify.metric_s": s["certify.metric"],
        "certify.metric_pairs": check["metric_correspondence"]["pairs"],
        "certify.metric_principal_vertices": check["metric_correspondence"]["principal_vertices"],
        "certify.parity_s": s["certify.parity"],
        "certify.contraction_s": s["certify.contraction"],
        "homotopy.random_loop_s": s["homotopy.random_loop"],
        "homotopy.contract_loop_s": s["homotopy.contract_loop"],
        "homotopy.replay_s": s["homotopy.replay"],
        "homotopy.square_moves": check["contraction"]["square_moves"],
        "homotopy.backtrack_moves": check["contraction"]["backtrack_moves"],
        "action.load_generators_s": s["action.load_generators"],
        "action.check_equivariance_s": s["action.check_equivariance"],
        "action.corners": sum(d["corners"] for d in details),
        "action.vertex_pairs": len(details) * V * V,
        "action.orbit_s": s["action.orbit"],
    }
