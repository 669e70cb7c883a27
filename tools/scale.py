"""Depth scaling of laddergroups, one fresh process per measurement.

    python3 tools/scale.py --src PATH [--src PATH2] [--depths 8 16 24 32 48]
                           [--rows NAME ...] [--runs 3] [--label NAME] [--out FILE]

PATH is the ``src`` directory of the checkout to measure, so checkouts are
measured by the same tool and on the same inputs.  With a second ``--src``
the two trees are interleaved run by run: each run of a row measures both
trees, and the tree measured first alternates from run to run, so drift in
the host's load falls on both sides alike.  The inputs come from the
generators of ``bench/workloads.py`` next to this file, read-only, at seed
0.  Rows, each measured at every depth (``--rows`` names the rows to
measure, all of them by default):

- ``ladders`` (layer): the three rule-backed ladders of the
  ``build_stage`` row built from scratch at the depth, then
  ``LadderSystem.build``, which validates each, and ``disjointify``;
- ``build_stage`` (layer): a warm build of the stage of three rule-backed
  ladders (``w^2``, ``w^2*2``, ``w^3``, blocks of offsets (1, 2), unit
  coefficients, factorial psi) at level ``w^3+1``;
- ``freeness`` (layer): ``freeness_basis`` on every subset of one to three
  generators of a fixed pool (the seed and chain symbol ``depth - 2`` of
  ``w^2``, chain symbol ``depth // 2`` of ``w^2*2``, and an x generator of
  each ladder) on the stage of two rule-backed ladders (``w^2``,
  ``w^2*2``, blocks of offsets (1, 2), alternating coefficients, factorial
  psi) at level ``w^2*2+1``;
- ``deep_psi`` (layer): a cold ``build_stage`` of the stage of two simple
  ladders (``w^2``, ``w^2*2``, unit coefficients, factorial psi) at level
  ``w^2*2+1``, whose chain denominators grow like depth**2 * log(depth)
  bits;
- ``transitive`` (layer): the library calls of the equiv-transitive job
  (``bench/job.py``'s ``run_transitive``) on its seed-0 input at the depth:
  the three stages, ``disjointify`` and the overlap checks, the two level
  isomorphisms out of A, the inverse of A->B and the composite B->C, and
  the four ``level_iso_verify`` calls, without serializing the reports;
- ``verify`` (layer): the four ``level_iso_verify`` calls of the
  ``transitive`` row, timed alone within it;
- ``invert`` (layer): the one ``invert_level_iso`` call of the
  ``transitive`` row, timed alone within it;
- ``obstruct`` (e2e): the splitting-deep obstruct scenario with
  ``zero_splits`` through ``cli.main``;
- ``roundtrip`` (e2e): the marked-target extension and recovery scenario
  through ``cli.main``.

Each row records, for each tree in ``--src`` order, the CPU times
(``time.process_time``, import excluded) of ``--runs`` fresh processes and
their median and interquartile range; with two trees it also records the
share of runs each tree was faster in (ties count for neither).  The
record, with each tree's commit and the Python version, is printed as JSON
and, with ``--out``, merged into FILE under ``--label``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROWS = {"ladders": "layer", "build_stage": "layer", "freeness": "layer",
        "deep_psi": "layer", "transitive": "layer", "verify": "layer", "invert": "layer",
        "obstruct": "e2e", "roundtrip": "e2e"}
SEED = 0


def _workloads():
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    return workloads


def _scenario(row: str, depth: int) -> dict:
    wl = _workloads()
    if row == "obstruct":
        return wl._obstruct_scenario(wl._rng(SEED, "obstruct", 0), depth,
                                     wl.SIZES["full"]["obstruct_bounds"],
                                     wl.DELTAS3, wl.ALPHA3, zero_splits=True)
    return wl._roundtrip_scenario(wl._rng(SEED, "roundtrip", 0), depth)


def measure(row: str, depth: int) -> float:
    """CPU seconds of one measurement of `row` at `depth` in this process;
    laddergroups must be importable."""
    import laddergroups as lg

    if row in ("ladders", "build_stage"):
        alpha = lg.parse_ordinal("w^3+1")
        deltas = tuple(map(lg.parse_ordinal, ("w^2", "w^2*2", "w^3")))
        t = time.process_time()
        system = lg.LadderSystem.build(alpha, {d: lg.make_block_special(d, depth) for d in deltas})
        if row == "ladders":
            if not lg.disjointify(system).certified:
                raise RuntimeError(f"ladder tails at depth {depth} are not disjoint")
            return time.process_time() - t
        cfg = lg.GroupConfig.all_ones(system)
        lg.build_stage(cfg, alpha, depth)  # warm
        t = time.process_time()
        lg.build_stage(cfg, alpha, depth)
        return time.process_time() - t
    if row == "deep_psi":
        alpha = lg.parse_ordinal("w^2*2+1")
        deltas = tuple(map(lg.parse_ordinal, ("w^2", "w^2*2")))
        system = lg.LadderSystem.build(alpha, {d: lg.make_simple_special(d, depth) for d in deltas})
        cfg = lg.GroupConfig.all_ones(system)
        t = time.process_time()
        lg.build_stage(cfg, alpha, depth)
        return time.process_time() - t
    if row == "freeness":
        alpha = lg.parse_ordinal("w^2*2+1")
        low, high = map(lg.parse_ordinal, ("w^2", "w^2*2"))
        system = lg.LadderSystem.build(
            alpha, {d: lg.make_block_special(d, depth + 1) for d in (low, high)})
        sg = lg.build_stage(lg.GroupConfig.alternating(system), alpha, depth)
        pool = (lg.ygen(low, 0), lg.ygen(low, depth - 2), lg.ygen(high, depth // 2),
                lg.xgen(system.ladder(low).entries[0]),
                lg.xgen(system.ladder(high).entries[depth]))
        t = time.process_time()
        for size in (1, 2, 3):
            for T in itertools.combinations(pool, size):
                if not lg.freeness_basis(sg, T).ok:
                    raise RuntimeError(f"freeness basis of {T} at depth {depth} failed")
        return time.process_time() - t
    if row in ("transitive", "verify", "invert"):
        wl = _workloads()
        spec = wl._transitive_spec(wl._rng(SEED, "transitive", depth), depth)
        phases = {"verify": 0.0, "invert": 0.0}
        t = time.process_time()
        if not _transitive(lg, spec, phases):
            raise RuntimeError(f"transitive certificate at depth {depth} failed")
        return time.process_time() - t if row == "transitive" else phases[row]
    from laddergroups import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{row}-d{depth}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_scenario(row, depth), fh)
        with contextlib.redirect_stdout(io.StringIO()):
            t = time.process_time()
            code = cli.main(["run", path])
            elapsed = time.process_time() - t
    if code != 0:
        raise RuntimeError(f"{row} at depth {depth} exited {code}")
    return elapsed


def _transitive(lg, spec: dict, phases: dict[str, float]) -> bool:
    """The library calls of bench/job.py's run_transitive on `spec`, without
    serializing the reports: B and C certified equivalent through A.  The
    CPU time of the level_iso_verify calls is added to phases["verify"], and
    that of invert_level_iso to phases["invert"]."""

    def timed(phase, fn, *args):
        t = time.process_time()
        out = fn(*args)
        phases[phase] += time.process_time() - t
        return out

    depth, alpha = spec["depth"], lg.parse_ordinal(spec["alpha"])
    deltas = [lg.parse_ordinal(d) for d in spec["deltas"]]
    sys_a = lg.LadderSystem.build(alpha, {d: lg.make_simple_special(d, depth) for d in deltas})
    cfgs = {}
    for name, comp in spec["companions"].items():
        ladders, coeffs = {}, {}
        for lit, sizes in comp["block_sizes"].items():
            d = lg.parse_ordinal(lit)
            ladders[d] = lg.companion_same_range(sys_a.ladder(d), tuple(sizes))
            coeffs.update(((d, n), tuple(vec)) for n, vec in enumerate(comp["coeffs"][lit]))
        system = lg.LadderSystem.build(alpha, ladders)
        cfgs[name] = lg.GroupConfig(system, lg.FactorialPsi(), coeffs)
    dis = lg.disjointify(sys_a)
    overlaps = [lg.overlap_check(sys_a, cfgs[n].system, dis) for n in "BC"]
    stage_b, stage_c = lg.build_matched_stages(cfgs["B"], cfgs["C"], alpha, depth)
    stage_a = lg.build_stage(lg.GroupConfig.all_ones(sys_a), alpha, depth,
                             extra_x=stage_b.x_indices)
    ab = lg.level_iso_build(stage_a, stage_b, dis)
    ac = lg.level_iso_build(stage_a, stage_c, dis)
    verify = lg.level_iso_verify
    reports = [timed("verify", verify, ab, stage_a, stage_b),
               timed("verify", verify, ac, stage_a, stage_c)]
    ba = timed("invert", lg.invert_level_iso, ab, stage_a, stage_b)
    reports.append(timed("verify", verify, ba, stage_b, stage_a))
    reports.append(timed("verify", verify, lg.compose_maps(ac, ba), stage_b, stage_c))
    return dis.certified and all(o.ok for o in overlaps) and all(r.ok for r in reports)


def _fresh(src: str, row: str, depth: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--src", src, "--child", row, str(depth)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{row} at depth {depth} failed:\n{proc.stderr}")
    return round(float(proc.stdout), 5)


def _commit(src: str) -> str | None:
    proc = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def _side(times: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(times, n=4, method="inclusive")
                      if len(times) > 1 else times * 3)
    return {"median_s": round(median, 5), "iqr_s": round(q3 - q1, 5),
            "runs": times}


def record(srcs: list[str], depths: list[int], runs: int, names: list[str]) -> dict:
    rows = []
    for row, kind in ROWS.items():
        if row not in names:
            continue
        for depth in depths:
            times: list[list[float]] = [[] for _ in srcs]
            for run in range(runs):
                order = range(len(srcs)) if run % 2 == 0 else reversed(range(len(srcs)))
                for side in order:
                    times[side].append(_fresh(srcs[side], row, depth))
            entry = {"name": row, "kind": kind, "depth": depth,
                     "sides": [_side(t) for t in times]}
            if len(srcs) == 2:
                a, b = times
                entry["won"] = [sum(x < y for x, y in zip(a, b)) / runs,
                                sum(y < x for x, y in zip(a, b)) / runs]
            rows.append(entry)
    return {"commits": [_commit(src) for src in srcs], "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": SEED, "rows": rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, action="append",
                        help="src directory of a checkout to measure; give it twice to "
                             "interleave two checkouts")
    parser.add_argument("--depths", type=int, nargs="+", default=[8, 16, 24, 32, 48])
    parser.add_argument("--rows", nargs="+", choices=list(ROWS), default=list(ROWS),
                        help="rows to measure, in the record's fixed order (default: all)")
    parser.add_argument("--runs", type=int, default=3, help="fresh processes per row and depth")
    parser.add_argument("--label", default="run", help="key of this record in --out")
    parser.add_argument("--out", help="JSON file to merge the record into")
    parser.add_argument("--child", nargs=2, metavar=("ROW", "DEPTH"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    srcs = [os.path.abspath(src) for src in args.src]
    if args.child:
        sys.path.insert(0, srcs[0])
        print(measure(args.child[0], int(args.child[1])))
        return 0
    if len(srcs) > 2:
        parser.error("--src may be given at most twice")
    if args.runs < 1 or any(d < 3 for d in args.depths):
        parser.error("--runs must be positive and every depth at least 3")
    rec = record(srcs, args.depths, args.runs, args.rows)
    print(json.dumps(rec, indent=2))
    if args.out:
        merged = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                merged = json.load(fh)
        merged[args.label] = rec
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
