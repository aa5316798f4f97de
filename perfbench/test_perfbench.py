"""Tests of the benchmark itself: seeding, the checker and metric names.

    python3 -m pytest perfbench -q
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_same_seed_gives_identical_requests():
    for name in workloads.STRATA:
        first = workloads.job_list(workloads.build_pool(name), 7)
        again = workloads.job_list(workloads.build_pool(name), 7)
        assert first == again
    certify = workloads.build_pool("certify")
    assert workloads.job_list(certify, 7) != workloads.job_list(certify, 8)


def test_pools_match_the_recorded_reference():
    reference = json.loads((HERE / "reference.json").read_text())["workloads"]
    for name in workloads.STRATA:
        pool = workloads.build_pool(name)
        assert workloads.pool_fingerprint(pool) == reference[name]["fingerprint"]
        assert len(reference[name]["digests"]) == len(workloads.flat_pool(pool))


def test_seeds_draw_the_same_mix():
    pool = workloads.build_pool("certify")
    mixes = []
    for seed in (1, 2):
        mix = {}
        for _, req in workloads.job_list(pool, seed):
            mix[req.rtype, req.cls] = mix.get((req.rtype, req.cls), 0) + 1
        mixes.append(mix)
    assert mixes[0] == mixes[1]
    assert sum(mixes[0].values()) == 1200


def test_checker_counts_a_flipped_byte_and_a_wrong_exit_code():
    req = workloads.Request("quad disc", "ok", 0, argv=("quad", "disc", "{}"))
    stdout = '{\n  "discriminant": "5"\n}\n'
    reference = harness.digest(stdout)
    assert harness.check(req, harness.Outcome(0, stdout, ""), reference) == []
    flipped = stdout.replace("5", "6")
    assert harness.check(req, harness.Outcome(0, flipped, ""), reference)
    assert harness.check(req, harness.Outcome(1, stdout, ""), reference)
    crash = harness.Outcome(None, "", "", error=TypeError("boom"))
    assert harness.check(req, crash, reference)
    refused = workloads.Request("quad split", "refusal", 1, argv=())
    empty = harness.digest("")
    assert harness.check(refused, harness.Outcome(1, "", '{"error": "no"}'), empty)
    assert harness.check(refused, harness.Outcome(1, "", "Traceback"), empty)


def test_expected_refusal_is_a_success_and_checks_violations():
    req = workloads.Request("cubic build", "violation", 1, argv=(), violations=("cm = 0",))
    stderr = json.dumps({"error": {"type": "RelationViolation", "violations": ["cm = 0"]}})
    reference = harness.digest("")
    assert harness.check(req, harness.Outcome(1, "", stderr), reference) == []
    wrong = stderr.replace("cm = 0", "cn = 0")
    assert harness.check(req, harness.Outcome(1, "", wrong), reference)
    assert harness.check(req, harness.Outcome(0, "", stderr), reference)


def test_violation_oracle_matches_the_relations():
    ring = workloads.Ring("Fp", 7)
    assert workloads.violated_relations(ring, (1, 0, 1, 1, 0, 1)) == []  # exceptional
    assert workloads.violated_relations(ring, (1, 3, 0, 0, 2, 5)) == []  # commutative
    assert workloads.violated_relations(ring, (0, 1, 1, 0, 0, 1)) == ["cm = 0"]


def test_metric_names_and_units():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert all(NAME.fullmatch(name) for name in declared)

    timed = run.Pass()
    timed.latencies = [0.001, 0.002, 0.004]
    e2e = run.end_to_end([0.1, 0.2, 0.3], [timed], 30.0)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(e2e)

    if str(HERE.parent / "src") not in sys.path:
        sys.path.append(str(HERE.parent / "src"))
    # building a Tracer creates its wrappers but installs none of them
    layers = tracer.Tracer(harness.lowrank_modules()).layer_metrics([1.0], 1.0, 0, 1.0)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(layers)
    for name, (_, unit) in {**e2e, **layers}.items():
        assert NAME.fullmatch(name) and declared[name] == unit
