#!/usr/bin/env python3
"""Benchmark of the cubulate command line on three fixed workloads.

    python3 perfbench/run.py --workload cube-dense --seed 1 --seconds 36 --trace 0

Run from anywhere inside a source checkout; the program under test is
the checkout's ``src/cubulate``.  ``--workload all`` runs the three
workloads one after another.  With ``--trace 0`` the CLI commands run as
child processes, one at a time, round after round until ``--seconds``
is used up, and the end-to-end metrics are medians over the rounds.
With ``--trace 1`` one untimed round is followed by an in-process traced
pass and a memory pass that give the per-layer metrics.  A table goes
to stderr; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from commands import COMMANDS, Result, Runner
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
COMMAND_TIMEOUT_S = 60.0  # a command running longer is killed and fails
HARD_LIMIT_S = 150.0  # no command may still run this long after the start
IMPORT_REPEATS = 5

# end-to-end metric -> the command whose median wall time it is
TIMED = {
    "setup_s": "setup",
    "build_s": "build",
    "check_s": "check",
    "recheck_s": "recheck",
    "reject_s": "reject",
    "act_s": "act",
}


def load_program():
    """Import cubulate from the checkout, or exit when it is not there."""
    src = ROOT / "src"
    if not (src / "cubulate" / "cli.py").is_file():
        sys.exit(f"error: {src / 'cubulate'} not found; run inside a cubulate checkout")
    sys.path.insert(0, str(src))
    import cubulate

    if Path(cubulate.__file__).resolve().parent != src / "cubulate":
        sys.exit(f"error: imported cubulate from {cubulate.__file__}, not {src}")


def summarize(results) -> tuple[int, int, list[str]]:
    failed = [r for r in results if r.errors]
    notes = [f"{r.name}: {'; '.join(r.errors)}" for r in failed]
    return len(results), len(failed), notes


def end_to_end(runner, seconds: float) -> tuple[dict, list]:
    """Rounds of child processes until the time is used up."""
    start = time.perf_counter()
    hard = start + HARD_LIMIT_S
    runner.run("setup", COMMAND_TIMEOUT_S)  # warms the bytecode cache
    timed_from = len(runner.results)
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        runner.round(hard, COMMAND_TIMEOUT_S)
        now = time.perf_counter()
        # another round only if at least half of it fits before the deadline
        if now + (now - t0) / 2 > deadline or now > hard:
            break
    results = runner.results
    timed = results[timed_from:]
    metrics = {}
    for metric, name in TIMED.items():
        values = [r.seconds for r in timed if r.name == name]
        metrics[metric] = (statistics.median(values), "s", len(values))
    metrics["peak_rss_mb"] = (max(r.rss_mb for r in results), "MB", len(results))
    return metrics, results


def per_layer(runner) -> tuple[dict, list]:
    """One untimed round, then the traced pass and the memory pass."""
    from traced import Recorder, instrumented, layer_metrics, memory_pass, replay, unit_of

    hard = time.perf_counter() + HARD_LIMIT_S
    runner.run("setup", COMMAND_TIMEOUT_S)
    runner.round(hard, COMMAND_TIMEOUT_S)
    untimed = {
        name: statistics.median(r.seconds for r in runner.results if r.name == name)
        for name in COMMANDS
    }
    imports = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cubulate.cli"], env=runner.env,
                       cwd=ROOT, check=True, timeout=COMMAND_TIMEOUT_S)
        imports.append(time.perf_counter() - t0)
    import_s = statistics.median(imports)

    rec = Recorder()
    replay_s = 0.0
    reports = {}
    with instrumented(rec):
        for name in COMMANDS:
            gc.collect()
            stdout, seconds = replay(runner.argv[name])
            replay_s += seconds
            reports[name] = json.loads(stdout)
            errors = [] if stdout == runner.first_stdout.get(name) else [
                "in-process stdout differs from the CLI's"]
            runner.results.append(Result(name, seconds, 0.0, errors))
    layers = layer_metrics(rec, reports, runner.w.walls, runner.complex_file.stat().st_size)
    layers.update(memory_pass(runner.w.space, runner.w.generators))
    # A traced command costs one interpreter start and import plus its
    # in-process replay; what its layer spans do not cover is residual.
    traced_s = len(COMMANDS) * import_s + replay_s
    layers["cli.import_s"] = import_s
    layers["cli.residual_s"] = traced_s - rec.total_s()
    layers["trace.overhead_s"] = traced_s - sum(untimed.values())
    return {k: (v, unit_of(k), 1) for k, v in layers.items()}, runner.results


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, int, int, list[str]]:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(ROOT, WORKLOADS[name](seed), work)
    metrics, results = per_layer(runner) if trace else end_to_end(runner, seconds)
    attempted, failed, notes = summarize(results)
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined, attempted, failed = {}, 0, 0
    for name in names:
        metrics, a, f, notes = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += a
        failed += f
        print(f"{name}  seed {args.seed}  trace {args.trace}", file=sys.stderr)
        for metric, (value, unit, n) in metrics.items():
            print(f"  {metric:36s} {value:14.6g} {unit:6s} n={n}", file=sys.stderr)
        print(f"  {'error_rate':36s} {f / a:14.6g} {'ratio':6s} n={a}", file=sys.stderr)
        for note in notes[:10]:
            print(f"  FAILED {note}", file=sys.stderr)
        prefix = "" if len(names) == 1 else name + ":"
        for metric, (value, unit, _) in metrics.items():
            combined[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
