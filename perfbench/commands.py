"""Run the cubulate CLI as child processes and check every answer.

One child runs at a time.  Each is timed from spawn to exit, its peak
resident set is read from ``wait4`` and a child that outlives its limit
is killed and recorded as a timeout.  A command fails when its exit
code or its report is wrong, when its stdout differs from the first run
of the same command, or when it times out; failures are counted, never
dropped.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from math import comb
from pathlib import Path
from typing import NamedTuple

from workloads import LOOPS, WORD_LENGTH, Workload, f_vector_of

SUITES = ("flag", "metric_correspondence", "parity", "contraction")
COMMANDS = ("setup", "build", "check", "recheck", "reject", "act")
# The machine's speed drifts over seconds, so the short commands run
# twice a round, between the long ones, and their medians average over
# the same stretch of time as the long commands' do.
_SHORT = ("setup", "setup", "setup", "build", "reject")
ROUND = _SHORT + ("check", "recheck") + _SHORT + ("act",)


def wait_child(pid: int, timeout: float) -> tuple[bool, int, object]:
    """Wait for a child for at most ``timeout`` seconds, killing it if it
    is still running then.  Returns (timed out, wait status, rusage)."""
    fd = os.pidfd_open(pid)
    try:
        timed_out = not select.select([fd], [], [], max(timeout, 0.0))[0]
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(fd)
    return timed_out, status, usage


class Result(NamedTuple):
    name: str
    seconds: float
    rss_mb: float
    errors: list[str]


class Runner:
    """Writes one workload's input files and runs its commands."""

    def __init__(self, root: Path, workload: Workload, work: Path):
        self.root = root
        self.w = workload
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("CUBULATE_MAX_VERTICES", None)
        self.space_file = work / "space.json"
        self.gens_file = work / "generators.json"
        self.complex_file = work / "complex.json"
        self.tampered_file = work / "tampered.json"
        self.space_file.write_text(json.dumps(workload.space))
        self.gens_file.write_text(json.dumps(workload.generators))
        self.digest = "sha256:" + hashlib.sha256(self.space_file.read_bytes()).hexdigest()
        self.f_ref: list[int] | None = workload.expected_f_vector()
        self.first_stdout: dict[str, bytes] = {}
        self.results: list[Result] = []
        seed = str(workload.seed)
        space = str(self.space_file)
        self.argv = {
            "setup": ["validate", space],
            "build": ["build", space, "--out", str(self.complex_file)],
            "check": ["check", space, "--seed", seed],
            "recheck": ["check", space, "--seed", seed, "--complex-in", str(self.complex_file)],
            "reject": ["check", space, "--seed", seed, "--complex-in", str(self.tampered_file)],
            "act": ["act", space, "--generators", str(self.gens_file)],
        }

    # -- running --------------------------------------------------------------

    def run(self, name: str, timeout: float) -> Result:
        """Run one command, check its answer and record the result."""
        out_path = self.work / f"{name}.stdout"
        with open(out_path, "wb") as out, open(self.work / f"{name}.stderr", "wb") as err:
            t0 = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, "-m", "cubulate.cli", *self.argv[name]],
                stdout=out, stderr=err, env=self.env, cwd=self.root,
            )
            timed_out, status, usage = wait_child(child.pid, timeout)
            seconds = time.perf_counter() - t0
        # reaped by wait_child: tell Popen, so that it does not wait again
        child.returncode = code = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        if timed_out:
            errors = [f"timeout after {timeout:.0f} s"]
        else:
            errors = self.check(name, code, stdout)
        result = Result(name, seconds, usage.ru_maxrss / 1024, errors)
        self.results.append(result)
        return result

    def round(self, timeout_at: float, per_command: float) -> None:
        """One pass over ROUND; the tampered complex is made from the
        first build."""
        for name in ROUND:
            self.run(name, min(per_command, timeout_at - time.perf_counter()))
            if name == "build" and not self.tampered_file.exists():
                try:
                    self.make_tampered()
                except (OSError, ValueError, KeyError, IndexError):
                    pass  # no usable complex: reject then fails on the missing file

    def make_tampered(self) -> None:
        cx = json.loads(self.complex_file.read_text())
        rng = random.Random(f"{self.w.seed}:tamper")
        self.tampered_file.write_text(json.dumps(self.w.tamper(cx, rng)))

    # -- answers --------------------------------------------------------------

    def check(self, name: str, code: int, stdout: bytes) -> list[str]:
        first = self.first_stdout.setdefault(name, stdout)
        if stdout != first:
            return ["stdout differs from the first run of this command"]
        want_exit = 3 if name == "reject" else 0  # 3: certificate failure
        if code != want_exit:
            return [f"exit code {code}, expected {want_exit}"]
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as e:
            return [f"stdout is not JSON: {e}"]
        errors = []
        if report.get("input") != {
            "digest": self.digest, "points": self.w.points, "walls": self.w.walls,
        }:
            errors.append(f"input summary {report.get('input')} is wrong")
        try:
            return errors + getattr(self, "_check_" + name)(report)
        except (KeyError, IndexError, TypeError, ValueError, OSError) as e:
            return errors + [f"malformed report or complex: {e!r}"]

    def _check_setup(self, report: dict) -> list[str]:
        return [] if report.get("status") == "ok" else ["validate did not report ok"]

    def _check_build(self, report: dict) -> list[str]:
        f = report["f_vector"]
        errors = self.w.check_f_vector(f)
        if self.f_ref is None:
            self.f_ref = f
        errors += self._check_shape(report, SUITES + ("equivariance",), ())
        cx = json.loads(self.complex_file.read_text())
        if f_vector_of(cx) != f:
            errors.append(f"written complex has f-vector {f_vector_of(cx)}, report {f}")
        return errors + self.w.check_complex(cx)

    def _check_check(self, report: dict) -> list[str]:
        errors = self._check_shape(report, ("equivariance",), SUITES)
        if errors:
            return errors
        checks = report["checks"]
        n = self.w.points
        want = {
            "metric_correspondence": {"points": n, "pairs": comb(n, 2)},
            "parity": {"seed": self.w.seed, "loops": LOOPS},
            "contraction": {"seed": self.w.seed, "loops": LOOPS},
        }
        for suite, fields in want.items():
            for key, value in fields.items():
                if checks[suite].get(key) != value:
                    errors.append(f"{suite}.{key} is {checks[suite].get(key)}, expected {value}")
        if checks["parity"]["total_edges"] % 2:
            errors.append("random loops have odd total length")
        return errors

    def _check_recheck(self, report: dict) -> list[str]:
        errors = self._check_check(report)
        check = self.first_stdout.get("check")
        if check is not None and json.loads(check) != report:
            errors.append("the rebuilt complex's report differs from check's")
        return errors

    def _check_reject(self, report: dict) -> list[str]:
        failed = [
            c for c in report.get("checks", {}).values() if c.get("status") == "fail"
        ]
        if len(failed) != 1 or not failed[0].get("witness"):
            return ["the tampered complex did not fail exactly one suite with a witness"]
        return []

    def _check_act(self, report: dict) -> list[str]:
        errors = self._check_shape(report, SUITES, ("equivariance",), dimension=False)
        f = self.f_ref or []
        gens = self.w.generators["generators"]
        want = [
            {
                "generator": g["name"],
                "points": self.w.points,
                "vertices": f[0],
                "edges": f[1],
                "corners": sum(2**k * n for k, n in enumerate(f) if k >= 2),
                "cubes": sum(f[2:]),
            }
            for g in gens
        ]
        if report.get("equivariance") != want:
            errors.append(f"equivariance details {report.get('equivariance')}, expected {want}")
        size, words = self.w.stabilizer_words()
        orbit = report.get("orbit") or {}
        if orbit.get("size") != size or sorted(orbit.get("stabilizer_words", [])) != words:
            errors.append(f"orbit size {orbit.get('size')} or stabilizer words are wrong")
        if orbit.get("word_length") != WORD_LENGTH:
            errors.append("orbit word length is wrong")
        return errors

    def _check_shape(self, report, skipped, passed, dimension=True) -> list[str]:
        """Suite statuses, and the counts every complex report carries."""
        errors = []
        checks = report.get("checks", {})
        for suite in skipped:
            if checks.get(suite, {}).get("status") != "skipped":
                errors.append(f"{suite} is not skipped")
        for suite in passed:
            if checks.get(suite, {}).get("status") != "pass":
                errors.append(f"{suite} did not pass: {checks.get(suite)}")
        f = self.f_ref
        if f is not None:
            summary = {
                "vertices": f[0],
                "edges": f[1],
                "cubes": {str(k): n for k, n in enumerate(f) if k >= 2},
            }
            if report.get("complex") != summary:
                errors.append(f"complex summary {report.get('complex')}, expected {summary}")
        if dimension:
            iw = self.w.expected_intersection_number()
            if report.get("intersection_number") != iw or report.get("dimension") != iw:
                errors.append(
                    f"intersection number {report.get('intersection_number')} and "
                    f"dimension {report.get('dimension')}, expected both {iw}"
                )
        return errors
