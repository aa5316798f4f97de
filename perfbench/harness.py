"""Executes benchmark requests in-process and checks every answer.

Command-line requests go through lowrank.cli.main(argv) with stdout and
stderr captured, so the argument parser and the JSON report are timed
and interpreter start-up is not.  Pair requests call
classify.is_isomorphic_bruteforce, looked up on the module at call time
so that a traced run sees its wrapper.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

from workloads import Request

DIGEST_CHARS = 16  # leading hex digits of sha256 kept in reference.json


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


# -- machine speed -----------------------------------------------------------
#
# On a shared machine the speed of the same Python code drifts by up to 2x
# over tens of seconds, and the CPU time of the process drifts with it.  So
# every time the benchmark reports is scaled to a reference speed.  A timer
# signal interrupts the run every PROBE_EVERY_S and times a fixed kernel of
# standard-library work (argparse, json, Fraction, small objects: the mix
# lowrank's requests spend their time in).  A request's time, less the
# kernel runs that interrupted it, becomes t * KERNEL_REFERENCE_S / k, where
# k is the mean kernel time during the request, or next to it for requests
# shorter than the interval.  The kernel never touches lowrank, so a change
# to the package moves the scaled times just as it moves the raw ones.

KERNEL_REFERENCE_S = 0.004
PROBE_EVERY_S = 0.1


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _kernel():
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="cmd")
    for name in "abcdefgh":
        cmd = sub.add_parser(name)
        cmd.add_argument("x")
        cmd.add_argument("--r")
    parser.parse_args(["c", "1", "--r", "2"])
    text = json.dumps(
        {"t": [[str(i * 7919 % 10007) for i in range(3)] for _ in range(30)]},
        sort_keys=True, indent=2,
    )
    json.loads(text)
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 1)
    cells, seen = [], {}
    for i in range(4000):
        cell = _Cell(i, i * 7 % 101)
        if isinstance(cell, _Cell) and cell.b:
            cells.append((cell.a * cell.b) % 97)
        seen[i & 255] = (cell, i)


class SpeedProbe:
    """Kernel timings taken from a SIGALRM handler while the probe is
    entered; time() measures work net of them and scale() converts."""

    def __init__(self):
        self.at = []  # midpoint of each kernel run
        self.kernel_s = []
        self.busy_s = 0.0  # total time inside the kernel
        self._sampling = False

    def sample(self, *_signal):
        if self._sampling:  # the timer fired during a kernel run
            return
        self._sampling = True
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not machine speed
        try:
            t0 = time.perf_counter()
            _kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
            self._sampling = False
        self.at.append((t0 + t1) / 2)
        self.kernel_s.append(t1 - t0)
        self.busy_s += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """Run fn; returns (result, Timing)."""
        busy, t0 = self.busy_s, time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        return result, Timing(t0, t1, t1 - t0 - (self.busy_s - busy))

    def scale(self, timing) -> float:
        """A Timing's net seconds at reference speed.  Call once a kernel
        run after the timed interval exists (sample() forces one)."""
        lo = bisect.bisect_left(self.at, timing.start)
        hi = bisect.bisect_right(self.at, timing.end)
        runs = self.kernel_s[lo:hi] or self.kernel_s[max(lo - 1, 0):lo + 1]
        return timing.net * KERNEL_REFERENCE_S * len(runs) / sum(runs)


class Timing:
    __slots__ = ("start", "end", "net")

    def __init__(self, start, end, net):
        self.start = start
        self.end = end
        self.net = net  # seconds, less the kernel runs inside

    @property
    def raw(self):
        return self.end - self.start


def load_lowrank(src: Path):
    """Import lowrank afresh from `src` and return its modules by name.

    Dropping every lowrank module first makes each call a full import, so
    set-up can be timed more than once in one process.
    """
    for name in [n for n in sys.modules if n == "lowrank" or n.startswith("lowrank.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    mods = lowrank_modules()
    if Path(mods["lowrank"].__file__).resolve().parent != (src / "lowrank").resolve():
        raise ImportError(f"lowrank imported from {mods['lowrank'].__file__}, not from {src}")
    return mods


def lowrank_modules():
    """The package and its modules by short name, imported if need be."""
    mods = {"lowrank": importlib.import_module("lowrank")}
    for name in ("rings", "poly", "algebra", "cubic", "involutions", "quadratic", "classify", "errors", "cli"):
        mods[name] = importlib.import_module(f"lowrank.{name}")
    return mods


class Outcome:
    __slots__ = ("code", "stdout", "stderr", "error")

    def __init__(self, code, stdout, stderr, error=None):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.error = error  # an exception that escaped: a traceback


def _pair_report(mods, pair) -> str:
    p, rank, ta, tb = pair
    spec = mods["rings"].GF(p)
    if rank == 3:
        build, coeffs = mods["cubic"].build_algebra, mods["cubic"].CubicCoefficients
        a, b = build(coeffs(spec, *ta)), build(coeffs(spec, *tb))
    else:
        quad = mods["quadratic"].QuadraticAlgebra
        a, b = quad(spec, *ta).structure(), quad(spec, *tb).structure()
    ok, phi = mods["classify"].is_isomorphic_bruteforce(a, b)
    payload = {"isomorphic": ok, "map": None if phi is None else phi.to_json()}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def execute(mods, req: Request) -> Outcome:
    """Run one request with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if req.pair:
                out.write(_pair_report(mods, req.pair))
                code = 0
            else:
                try:
                    code = mods["cli"].main(list(req.argv))
                except SystemExit as exc:
                    code = exc.code
        outcome = Outcome(code, out.getvalue(), err.getvalue())
    except Exception as exc:  # an escaped exception is a failed request
        outcome = Outcome(None, out.getvalue(), err.getvalue(), error=exc)
    return outcome


def _census_problems(req: Request, stdout: str) -> list:
    p = int(req.argv[-1])
    report = json.loads(stdout)
    want_cases = {"commutative": p**4 - 1, "exceptional": p**2 - 1, "nilproduct": 1}
    problems = []
    if report.get("total") != p**6:
        problems.append("total")
    if report.get("valid") != p**4 + p**2 - 1:
        problems.append("valid count")
    if report.get("cases") != want_cases:
        problems.append("case counts")
    if report.get("theorem_holds") is not True:
        problems.append("theorem_holds")
    if report.get("intersection") != [["0"] * 6]:
        problems.append("intersection")
    return problems


def check(req: Request, outcome: Outcome, reference: str) -> list:
    """Every way the outcome differs from what the request must produce.

    An empty list is a correct answer.  Expected refusals (exit 1 with a
    JSON error, exit 2 for malformed input) are correct answers.
    """
    if outcome.error is not None:
        return [f"traceback: {type(outcome.error).__name__}: {outcome.error}"]
    problems = []
    if outcome.code != req.expect:
        problems.append(f"exit {outcome.code}, expected {req.expect}")
    if digest(outcome.stdout) != reference:
        problems.append("stdout digest differs from the reference")
    if req.expect:
        try:
            error = json.loads(outcome.stderr)["error"]
        except (ValueError, KeyError, TypeError):
            error = None
        if not isinstance(error, dict):
            return problems + ["stderr is not a JSON error object"]
        if req.violations and error.get("violations") != list(req.violations):
            problems.append("violations list differs")
    elif req.rtype.startswith("census cubic") and not problems:
        problems += _census_problems(req, outcome.stdout)
    return problems


def warmup_requests(workload: str, pool):
    """Requests run during set-up and never timed: a small census for
    `census`, otherwise the first pool entry of each request type, so
    that the warm-up costs the same whatever the seed."""
    if workload == "census":
        return [Request("census cubic p=3", "ok", 0, argv=("census", "cubic", "--p", "3"))]
    first = {}
    for _, entries in pool:
        if not entries[0].rtype.startswith("census"):
            first.setdefault(entries[0].rtype, entries[0])
    return list(first.values())
