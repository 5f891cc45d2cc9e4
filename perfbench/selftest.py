#!/usr/bin/env python3
"""Self-test of the benchmark's answer checks.

    python3 perfbench/selftest.py

Runs one round of every workload on small inputs, where every command
must pass, and then feeds the checks wrong answers: a wrong expected
f-vector, a tampered complex passed off as genuine, a stdout that
differs between repetitions and a command killed by its time limit.
Each must show up as failed commands, so the correctness gate can fail.
Exits 1 when a check misses a wrong answer or flags a right one.
"""

from __future__ import annotations

import shutil
import sys
import time

from run import ROOT, WORK, load_program, summarize

SMALL = {"cube-dense": 4, "wall-sparse": 4, "lattice-mixed": 2}


def runner_for(name: str, tag: str, **override):
    from commands import Runner
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed=7, size=SMALL[name])
    for attr, value in override.items():
        setattr(workload, attr, value)
    work = WORK / "selftest" / f"{name}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    return Runner(ROOT, workload, work)


def one_round(runner) -> tuple[int, int, list[str]]:
    runner.round(time.perf_counter() + 60, 30)
    return summarize(runner.results)


def main() -> int:
    load_program()
    problems = []

    def expect(label: str, outcome, wrong: bool, must_contain: str = "") -> None:
        attempted, failed, notes = outcome
        rate = failed / attempted
        print(f"{label:48s} error_rate {rate:.3f} ({failed}/{attempted})")
        if wrong and (failed == 0 or not any(must_contain in n for n in notes)):
            problems.append(f"{label}: the wrong answer was not counted")
        if not wrong and failed:
            problems.append(f"{label}: a right answer was counted as wrong: {notes}")

    for name in SMALL:
        expect(f"{name}: genuine answers", one_round(runner_for(name, "genuine")), False)

    from workloads import CubeDense

    good = CubeDense(seed=7, size=SMALL["cube-dense"]).expected_f_vector()
    wrong_f = good[:1] + [good[1] + 1] + good[2:]
    runner = runner_for("cube-dense", "f-vector", expected_f_vector=lambda: wrong_f)
    expect("cube-dense: wrong expected f-vector", one_round(runner), True, "f-vector")

    runner = runner_for("lattice-mixed", "tampered-genuine")
    runner.argv["recheck"] = runner.argv["reject"]
    expect("lattice-mixed: tampered complex marked genuine", one_round(runner), True,
           "recheck: exit code 3")

    runner = runner_for("wall-sparse", "unstable")
    runner.first_stdout["setup"] = b"{}\n"
    expect("wall-sparse: stdout differs between runs", one_round(runner), True,
           "stdout differs")

    runner = runner_for("wall-sparse", "timeout")
    runner.run("act", 0.001)
    expect("wall-sparse: command past its time limit", summarize(runner.results), True,
           "timeout")

    shutil.rmtree(WORK / "selftest", ignore_errors=True)
    for p in problems:
        print("PROBLEM", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
