"""Self-tests of the benchmark.

    python3 -m pytest bench/tests -q

They run tiny job sizes, except the digest test, which needs the recorded
full-size scenario-batch jobs of the default seed (one pass, a few seconds).
"""

import json
import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert workloads.generate(workload, 11) == workloads.generate(workload, 11)
    assert workloads.generate(workload, 11) != workloads.generate(workload, 12)


def _shape(job: dict):
    """What the seed must not change: a job's checks and sizes, and its
    ladders' families and block sizes in any order."""
    if job["kind"] == "transitive":
        spec = job["spec"]
        return spec["depth"], sorted(size for comp in spec["companions"].values()
                                     for sizes in comp["block_sizes"].values()
                                     for size in sizes)
    scenario = job.get("scenario", {})
    ladders = []
    for system in scenario.get("systems", {}).values():
        for ladder in system.get("ladders", []):
            if "family" in ladder:
                ladders.append(repr((ladder["family"], ladder["blocks"], ladder.get("offsets"))))
            else:
                bps = ladder["breakpoints"]
                ladders.append(repr(sorted(b - a for a, b in zip(bps, bps[1:]))))
        ladders.extend(repr(sorted(s)) for s in system.get("block_sizes", {}).values())
    checks = [{k: v for k, v in check.items() if k not in ("seed", "levels")}
              for check in scenario.get("checks", [])]
    return job.get("args"), job.get("shipped"), checks, sorted(ladders)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_content_not_shape(workload):
    shapes = [[(job["id"], _shape(job)) for job in workloads.generate(workload, seed)]
              for seed in (11, 12)]
    assert shapes[0] == shapes[1]


def test_job_ids_are_unique():
    for workload in workloads.WORKLOADS:
        ids = [job["id"] for job in workloads.generate(workload, 0)]
        assert len(ids) == len(set(ids))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_every_workload_passes_on_a_second_seed(workload):
    start = time.perf_counter()
    bench_run, metrics, _ = run.benchmark(workload, 5, 0, False, "tiny")
    assert bench_run.attempted > 0
    assert bench_run.failures == []
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert time.perf_counter() - start < 60


def test_tampered_digest_counts_as_failed_job():
    digests = run.load_digests("scenario-batch", run.DEFAULT_SEED)
    assert digests, "digests.json has no scenario-batch table"
    tampered = dict(digests)
    victim = sorted(tampered)[0]
    tampered[victim] = "0" * 64
    bench_run, _, _ = run.benchmark("scenario-batch", run.DEFAULT_SEED, 0, False,
                                    digests=tampered)
    assert bench_run.attempted > 0
    assert bench_run.failed == 1
    assert victim in bench_run.failures[0]


def test_recorded_digests_match_the_default_seed():
    digests = run.load_digests("scenario-batch", run.DEFAULT_SEED)
    bench_run, _, _ = run.benchmark("scenario-batch", run.DEFAULT_SEED, 0, False,
                                    digests=digests)
    assert bench_run.failures == []
    assert set(bench_run.outputs) == set(digests)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_equal_the_declared_ones(trace, capsys):
    code = run.main(["--workload", "scenario-batch", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], size="tiny")
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        bench_run, metrics, _ = run.benchmark("splitting-deep", 4, 0, True, "tiny")
        assert bench_run.failures == []
        counts.append({k: v for k, (v, unit) in metrics.items() if unit != "s"
                       and not k.endswith("self_share") and k != "trace.overhead_ratio"})
    assert counts[0] == counts[1]
    assert counts[0]["splitting.seeds_tried"] > 0


def test_fails_without_a_result_when_the_package_is_missing(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scenario-batch",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
