"""The laddergroups benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --record-digests

Run from a checkout of the repository; the package is imported from
``src/``.  Jobs run one at a time from this process: ``equiv-transitive`` and
``splitting-deep`` start one fresh job process per job, ``scenario-batch``
one job process per pass over its job list.  Every job's exit code and ok
flags are checked and, for the default seed, the SHA-256 of its output
against ``digests.json``.

With ``--trace 0`` the run repeats the workload's job list while S seconds
last and reports the end-to-end metrics.  With ``--trace 1`` it alternates
untraced and traced passes while S seconds last (at least two of each),
keeps the spans of the first traced pass only, so every count repeats
exactly, writes the spans and all per-layer metrics under ``bench/out/``,
and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the commit, the Python version and ``nproc``.  The exit code is 0
only when every job passed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracer import layer_metrics, merge_counters, per_call_seconds  # noqa: E402

# Whether each job of a workload gets a process of its own.  On
# splitting-deep this is what every CLI invocation pays: the marked-basis
# codec's prime list is module-level state, so only a fresh process shows
# its cost.
FRESH_PROCESS = {"equiv-transitive": True, "splitting-deep": True, "scenario-batch": False}

SETUP_PROBES = 30
PROBE = "import time; t = time.process_time(); import laddergroups; print(time.process_time() - t)"
JOB_TIMEOUT_S = 100

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_s.p50": "s",
                    "job_s.p90": "s", "peak_rss_mb": "MiB"}


class JobProcessError(RuntimeError):
    """A job process died without writing its result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _job_process(spec: dict, workdir: str, tag: str) -> dict:
    """Run one job process on `spec` and return its result."""
    spec_path = os.path.join(workdir, f"spec-{tag}.json")
    result_path = os.path.join(workdir, f"result-{tag}.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "job.py"), spec_path, result_path],
                          env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise JobProcessError(f"job process exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    return result


def _write_scenarios(jobs, workdir: str) -> None:
    for job in jobs:
        if "scenario" in job:
            with open(os.path.join(workdir, job["id"] + ".json"), "w", encoding="utf-8") as fh:
                json.dump(job["scenario"], fh)


class Run:
    """Collects the job results and span tables of one benchmark run."""

    def __init__(self, workload: str, workdir: str, digests: dict | None):
        self.workload = workload
        self.workdir = workdir
        self.digests = digests
        # Job times of untraced and of traced passes, by job id.
        self.samples: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
        self.imports: list[float] = []
        self.maxrss_kb = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[str, str] = {}
        self.spans: list = []
        self.counters: dict[str, int] = {}
        self._traced_passes = 0
        self._tag = 0

    def execute(self, jobs: list[dict], trace: bool) -> float:
        """One pass over the job list; returns its wall time."""
        began = time.perf_counter()
        units = [[job] for job in jobs] if FRESH_PROCESS[self.workload] else [jobs]
        for unit in units:
            self._process(unit, trace)
        self._traced_passes += trace
        return time.perf_counter() - began

    def repeat(self, jobs: list[dict], seconds: float, traces: tuple[bool, ...],
               rounds: int = 1) -> None:
        """Run one pass per entry of `traces`, at least `rounds` times and
        again while `seconds` last.  A round starts only while the last
        one's duration still fits, so every run times whole lists."""
        start = time.perf_counter()
        for done in itertools.count(1):
            last = sum(self.execute(jobs, trace) for trace in traces)
            if done >= rounds and time.perf_counter() - start + last > seconds:
                break

    def _process(self, jobs: list[dict], trace: bool) -> None:
        self._tag += 1
        spec = {"jobs": jobs, "trace": trace}
        try:
            result = _job_process(spec, self.workdir, str(self._tag))
        except (JobProcessError, subprocess.TimeoutExpired) as exc:
            self.attempted += len(jobs)
            self.failures.extend(f"{job['id']}: {exc}" for job in jobs)
            return
        self.imports.append(result["import_s"])
        self.maxrss_kb = max(self.maxrss_kb, result["maxrss_kb"])
        for rec in result["jobs"]:
            self.attempted += 1
            self.samples[trace].setdefault(rec["id"], []).append(rec["cpu_s"])
            self.outputs[rec["id"]] = rec["sha256"]
            self._check(rec)
        if trace and not self._traced_passes:
            base = len(self.spans)
            for name, start, end, parent, job in result["spans"]:
                self.spans.append([name, start, end, parent + base if parent >= 0 else -1, job])
            merge_counters(self.counters, result["counters"])

    def _check(self, rec: dict) -> None:
        if rec["code"] != 0 or not rec["ok"]:
            self.failures.append(f"{rec['id']}: exit {rec['code']}, ok={rec['ok']} {rec['error']}")
        elif self.digests is not None and rec["sha256"] != self.digests.get(rec["id"]):
            self.failures.append(f"{rec['id']}: output digest differs from the recorded one")

    @property
    def failed(self) -> int:
        return len(self.failures)

    def job_times(self, traced: bool = False) -> list[float]:
        """Each job's median repetition in this run.  A job of a second or
        more never runs free of the shared host's contention, so its
        fastest repetition is a noisy extreme; the median is steadier."""
        return [statistics.median(times) for times in self.samples[traced].values()]


def setup_times(n: int) -> list[float]:
    """CPU time of importing laddergroups in n fresh interpreters, after one
    unreported warm-up import that leaves the bytecode cache filled."""
    times = []
    for i in range(n + 1):
        proc = subprocess.run([sys.executable, "-c", PROBE], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise JobProcessError(f"import probe failed: {proc.stderr.strip()[-400:]}")
        if i:
            times.append(float(proc.stdout))
    return times


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, by the exclusive method of statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(run: Run, probes: list[float]) -> dict:
    times = run.job_times()
    return {
        "setup_s": min(probes + run.imports),
        "jobs_per_s": len(times) / sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.p90": quantile(times, 90),
        "peak_rss_mb": run.maxrss_kb / 1024,
    }


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_digests(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED or not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              size: str = "full", digests: dict | None = None) -> tuple[Run, dict, dict]:
    """One benchmark run.  Returns the run, its metrics as name -> (value,
    unit), and the traced-run report (empty when untraced)."""
    jobs = workloads.generate(workload, seed, size)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{workload}-s{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        _write_scenarios(jobs, workdir)
        run = Run(workload, workdir, digests)
        if trace:
            return run, *_traced(run, jobs, seconds)
        probes = setup_times(SETUP_PROBES)
        run.repeat(jobs, seconds, (False,))
        values = end_to_end(run, probes) if run.samples[False] else {}
        return run, {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(run: Run, jobs: list[dict], seconds: float) -> tuple[dict, dict]:
    run.repeat(jobs, seconds, (False, True), rounds=2)
    untraced = sum(run.job_times(False))
    traced = sum(run.job_times(True))
    metrics = layer_metrics(run.spans, run.counters)
    metrics["trace.overhead_ratio"] = (traced / untraced if untraced else 0.0, "ratio")
    per_call = {name: per_call_seconds(run.spans, name) for name in sorted({s[0] for s in run.spans})}
    report = {"untraced_job_s": untraced, "traced_job_s": traced,
              "per_call_median_s": per_call, "counters": run.counters}
    return metrics, report


def write_trace(workload: str, seed: int, run: Run, metrics: dict, report: dict) -> None:
    """Spans as JSON lines and every per-layer metric, under bench/out/."""
    stem = os.path.join(OUT, f"trace-{workload}-s{seed}")
    with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
        for name, start, end, parent, job in run.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "job": job}) + "\n")
    report = dict(report, metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)


def declared_metrics(trace: bool) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def record_digests(workload: str) -> int:
    """Run every job of the default seed once and store its output digests."""
    jobs = workloads.generate(workload, DEFAULT_SEED)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"record-{workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        _write_scenarios(jobs, workdir)
        run = Run(workload, workdir, None)
        run.execute(jobs, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.failed:
        print("\n".join(run.failures), file=sys.stderr)
        return 1
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    table[workload] = dict(sorted(run.outputs.items()))
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(run.outputs)} digests for {workload}")
    return 0


def main(argv: list[str] | None = None, size: str = "full") -> int:
    parser = argparse.ArgumentParser(description="laddergroups benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the output digests of the default seed and exit")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "laddergroups", "__init__.py")):
        print(f"error: no laddergroups package under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests(args.workload)
    trace = bool(args.trace)
    try:
        digests = load_digests(args.workload, args.seed) if size == "full" else None
        run, metrics, report = benchmark(args.workload, args.seed, args.seconds, trace, size,
                                         digests)
    except JobProcessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if trace:
        write_trace(args.workload, args.seed, run, metrics, report)
    names = declared_metrics(trace)
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": trace,
        "commit": _commit(), "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "jobs": run.attempted, "job_samples": len(run.samples[trace]),
        "fail_ratio": run.failed / run.attempted if run.attempted else 1.0,
        "failures": run.failures[:5],
        "undeclared": {k: v for k, (v, _) in metrics.items() if k not in names},
    }))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0 if run.failed == 0 and run.attempted else 1


if __name__ == "__main__":
    sys.exit(main())
