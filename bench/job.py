"""Job process: runs the jobs of one spec file and writes their results.

    python3 bench/job.py SPEC.json RESULT.json

The first thing it does is import laddergroups and time that import, so the
set-up cost every CLI invocation pays is measured in each job process.  The
spec holds ``jobs`` (see workloads.py), run once in order, and ``trace``.
The result holds the import time, the peak resident set size, and per job
its time, the exit code, whether every check and certificate was ok, and the
SHA-256 of the output; a traced run adds spans and counters.  Times are the
process's CPU time (``time.process_time``), which leaves out the time the
process waits for a CPU other processes hold.
"""

import sys
import time

_t0 = time.process_time()
import laddergroups  # noqa: E402

IMPORT_S = time.process_time() - _t0

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from dataclasses import asdict  # noqa: E402


def run_cli(job: dict, scenario_dir: str) -> tuple[int, str, bool, str]:
    """One scenario through the CLI entry point, report captured in memory."""
    from laddergroups import cli

    if "shipped" in job:
        path = os.path.join(os.path.dirname(cli.__file__), "scenarios", job["shipped"])
    else:
        path = os.path.join(scenario_dir, job["id"] + ".json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", path] + job["args"])
    return code, out.getvalue(), code == 0, err.getvalue().strip()


def run_transitive(job: dict, scenario_dir: str) -> tuple[int, str, bool, str]:
    """Certify that companions B and C of a simple system A are equivalent
    through A: A->B and A->C are built and verified, A->B is inverted and
    verified, and the composite B->C is verified."""
    lg = laddergroups
    spec = job["spec"]
    depth = spec["depth"]
    alpha = lg.parse_ordinal(spec["alpha"])
    deltas = [lg.parse_ordinal(d) for d in spec["deltas"]]
    sys_a = lg.LadderSystem.build(alpha, {d: lg.make_simple_special(d, depth) for d in deltas})
    cfgs = {}
    for name, comp in spec["companions"].items():
        ladders, coeffs = {}, {}
        for lit, sizes in comp["block_sizes"].items():
            d = lg.parse_ordinal(lit)
            ladders[d] = lg.companion_same_range(sys_a.ladder(d), tuple(sizes))
            for n, vec in enumerate(comp["coeffs"][lit]):
                coeffs[(d, n)] = tuple(vec)
        system = lg.LadderSystem.build(alpha, ladders)
        cfgs[name] = lg.GroupConfig(system, lg.FactorialPsi(), coeffs)
    cfg_a = lg.GroupConfig.all_ones(sys_a)
    dis = lg.disjointify(sys_a)
    overlaps = [lg.overlap_check(sys_a, cfgs[n].system, dis) for n in "BC"]
    stage_b, stage_c = lg.build_matched_stages(cfgs["B"], cfgs["C"], alpha, depth)
    stage_a = lg.build_stage(cfg_a, alpha, depth, extra_x=stage_b.x_indices)
    ab = lg.level_iso_build(stage_a, stage_b, dis)
    ac = lg.level_iso_build(stage_a, stage_c, dis)
    reports = [lg.level_iso_verify(ab, stage_a, stage_b),
               lg.level_iso_verify(ac, stage_a, stage_c)]
    ba = lg.invert_level_iso(ab, stage_a, stage_b)
    reports.append(lg.level_iso_verify(ba, stage_b, stage_a))
    bc = lg.compose_maps(ac, ba)
    reports.append(lg.level_iso_verify(bc, stage_b, stage_c))
    ok = dis.certified and all(o.ok for o in overlaps) and all(r.ok for r in reports)
    output = json.dumps([asdict(r) for r in reports], sort_keys=True, separators=(",", ":"))
    return 0, output, ok, ""


RUNNERS = {"cli": run_cli, "transitive": run_transitive}


def run_one(job: dict, scenario_dir: str) -> tuple[int, str, bool, str]:
    try:
        return RUNNERS[job["kind"]](job, scenario_dir)
    except Exception as exc:  # a crashing job is a failed job, not a crashed run
        return 1, "", False, f"{type(exc).__name__}: {exc}"


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    scenario_dir = os.path.dirname(os.path.abspath(spec_path))
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    for job in spec["jobs"]:
        t = time.process_time()
        if tracer is None:
            code, output, ok, error = run_one(job, scenario_dir)
        else:
            code, output, ok, error = tracer.run_job(job["id"], run_one, job, scenario_dir)
        results.append({"id": job["id"], "cpu_s": time.process_time() - t, "code": code,
                        "ok": ok, "error": error,
                        "sha256": hashlib.sha256(output.encode()).hexdigest()})
    out = {"import_s": IMPORT_S,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "jobs": results}
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counters"] = tracer.counters()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
