"""Record the stdout digest of every pool request into reference.json.

Run from the repository root, only at a commit whose outputs are known
to be right, and only when the pools themselves change:

    python3 perfbench/record_reference.py

The script refuses to record a request whose exit code or refusal
payload does not match its class, and prints the cost of each request
type, which perfbench/README.md quotes.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    mods = harness.load_lowrank(HERE.parent / "src")
    reference = {"pool_seed": workloads.POOL_SEED, "workloads": {}}
    for name in workloads.STRATA:
        pool = workloads.build_pool(name)
        digests, costs = [], defaultdict(list)
        for req in workloads.flat_pool(pool):
            t0 = time.perf_counter()
            outcome = harness.execute(mods, req)
            seconds = time.perf_counter() - t0
            problems = harness.check(req, outcome, harness.digest(outcome.stdout))
            if problems:
                print(f"{name}: {req.rtype}/{req.cls} {req.argv or req.pair}: {problems}", file=sys.stderr)
                return 1
            digests.append(harness.digest(outcome.stdout))
            costs[req.rtype].append(seconds)
        reference["workloads"][name] = {
            "fingerprint": workloads.pool_fingerprint(pool),
            "digests": digests,
        }
        for rtype, secs in sorted(costs.items()):
            print(f"{name:8} {rtype:22} n={len(secs):5} median={statistics.median(secs) * 1e3:9.3f} ms "
                  f"max={max(secs) * 1e3:9.3f} ms")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
