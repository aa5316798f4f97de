"""The lowrank benchmark: seeded, closed-loop workloads run in-process.

    python3 perfbench/run.py --workload census|iso|certify --seed N \
        --seconds S --trace 0|1

One client in one process sends each request only after the previous
one has finished (a closed loop with a single client, so nothing ever
queues).  Set-up imports lowrank from ./src, builds the seeded job list
and warms up; it is repeated SETUP_REPEATS times and its median reported
as setup_s.  The job list is then run again and again for --seconds;
wall_s is the median time of one pass over it.  Every answer is checked
against reference.json and the workload's own invariants.

With --trace 0 the last line of stdout holds the end-to-end metrics.
With --trace 1 untraced and traced passes alternate, and the last line
holds the per-layer metrics of the traced passes; spans, and for census
a cProfile of verify_main_theorem(GF(11)), are written under
perfbench/out/.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import json
import math
import os
import platform
import pstats
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def setup(workload, seed, reference):
    """Import lowrank, build the seeded job list and warm up."""
    mods = harness.load_lowrank(ROOT / "src")
    pool = workloads.build_pool(workload)
    if workloads.pool_fingerprint(pool) != reference["fingerprint"]:
        raise RuntimeError(f"the {workload} pool no longer matches reference.json")
    jobs = workloads.job_list(pool, seed)
    for req in harness.warmup_requests(workload, pool):
        harness.execute(mods, req)
    return mods, jobs


class Pass:
    """One pass over the job list: latencies at reference speed, raw
    latencies, failures and stdout bytes."""

    def __init__(self):
        self.rtypes = []
        self.latencies = []  # seconds at reference speed
        self.raw = []  # seconds as measured, kernel runs included
        self.failed = 0
        self.report_bytes = 0
        self.problems = []

    @property
    def wall(self):
        return sum(self.latencies)


def run_pass(mods, jobs, digests, probe, wrap=lambda run: run()):
    """Run and check every job once; `wrap` is the tracer's hook."""
    gc.collect()
    result, timings = Pass(), []
    result.rtypes = [req.rtype for _, req in jobs]
    for index, req in jobs:
        outcome, timing = probe.time(lambda: wrap(lambda: harness.execute(mods, req)))
        timings.append(timing)
        result.report_bytes += len(outcome.stdout.encode())
        problems = harness.check(req, outcome, digests[index])
        if problems:
            result.failed += 1
            if len(result.problems) < 5:
                result.problems.append((req.rtype, req.argv or req.pair, problems))
    probe.sample()
    result.latencies = [probe.scale(t) for t in timings]
    result.raw = [t.raw for t in timings]
    return result


def end_to_end(setup_times, passes, peak_rss_mb):
    """The end-to-end metrics, as {name: (value, unit)}.  Latencies pool
    every request of every untraced pass; `attempted` is their count."""
    latencies = [x for p in passes for x in p.latencies]
    correct = sum(len(p.latencies) - p.failed for p in passes)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "ops_per_s": (correct / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p99_ms": (percentile(latencies, 99) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def request_shares(passes):
    """Per request type: its share of the requests and of the time, and
    its median latency in ms, scaled and raw."""
    scaled, raw = defaultdict(list), defaultdict(list)
    for p in passes:
        for rtype, latency, raw_latency in zip(p.rtypes, p.latencies, p.raw):
            scaled[rtype].append(latency)
            raw[rtype].append(raw_latency)
    n = sum(len(v) for v in scaled.values())
    total = sum(sum(v) for v in scaled.values())
    return {
        r: {
            "requests": len(scaled[r]) / n,
            "time": sum(scaled[r]) / total,
            "median_ms": statistics.median(scaled[r]) * 1e3,
            "raw_median_ms": statistics.median(raw[r]) * 1e3,
        }
        for r in sorted(scaled)
    }


def profile_census(mods, path):
    """cProfile top-15 of verify_main_theorem(GF(11)), outside any timing."""
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.runcall(mods["classify"].verify_main_theorem, mods["rings"].GF(11))
    seconds = time.perf_counter() - t0
    text = io.StringIO()
    text.write(f"verify_main_theorem(GF(11)) under cProfile: {seconds:.3f} s\n")
    pstats.Stats(profiler, stream=text).strip_dirs().sort_stats("tottime").print_stats(15)
    path.write_text(text.getvalue())


def machine(args):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.STRATA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lowrank" / "__init__.py").is_file():
        print("perfbench: no lowrank package under ./src; run from a checkout", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())["workloads"][args.workload]
    digests = reference["digests"]

    probe = harness.SpeedProbe()
    with probe:
        setups = [probe.time(lambda: setup(args.workload, args.seed, reference))
                  for _ in range(SETUP_REPEATS)]
        (mods, jobs), _ = setups[-1]
        probe.sample()
        setup_times = [probe.scale(timing) for _, timing in setups]
        setup_raw = [timing.raw for _, timing in setups]
        gc.collect()
        gc.freeze()

        passes, traced = [], []
        tracer = tracing.Tracer(mods) if args.trace else None
        start = last = time.perf_counter()
        # at least one pass of each kind, then more while the next one, taken
        # to last as long as the previous one, still ends within --seconds
        while not passes or (tracer and not traced) or 2 * time.perf_counter() - last - start <= args.seconds:
            last = time.perf_counter()
            if tracer and len(passes) > len(traced):
                traced.append(run_pass(mods, jobs, digests, probe, tracer.traced))
            else:
                passes.append(run_pass(mods, jobs, digests, probe))

    every = passes + traced
    attempted = sum(len(p.latencies) for p in every)
    failed = sum(p.failed for p in every)
    for p in every:
        for problem in p.problems:
            print(f"perfbench: failed {problem}", file=sys.stderr)
    record = machine(args)
    record.update(
        passes=len(passes),
        traced_passes=len(traced),
        setup_s=setup_times,
        setup_raw_s=setup_raw,
        pass_wall_s=[p.wall for p in passes],
        pass_raw_wall_s=[sum(p.raw) for p in passes],
        kernel_reference_s=harness.KERNEL_REFERENCE_S,
        shares=request_shares(passes),
    )
    print(json.dumps({"machine": record}), file=sys.stderr)

    if tracer:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        report_bytes = sum(p.report_bytes for p in traced)
        # span clocks are raw and include the probe's kernel runs, which
        # fall uniformly in time; scale them as the traced passes were scaled
        speed = sum(p.wall for p in traced) / sum(sum(p.raw) for p in traced)
        untraced_wall = statistics.median(p.wall for p in passes)
        metrics = tracer.layer_metrics([p.wall for p in traced], untraced_wall, report_bytes, speed)
        tracer.write(out_dir / f"{args.workload}-spans.json.gz", {"machine": record})
        if args.workload == "census":
            profile_census(mods, out_dir / "census-profile.txt")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(setup_times, passes, peak_rss_mb)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
