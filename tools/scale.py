"""Depth scaling of laddergroups, one fresh process per measurement.

    python3 tools/scale.py --src PATH [--depths 8 16 24 32 48] [--runs 3]
                           [--label NAME] [--out FILE]

PATH is the ``src`` directory of the checkout to measure, so two checkouts
are measured by the same tool and on the same inputs.  The inputs come from
the generators of ``bench/workloads.py`` next to this file, read-only, at
seed 0.  Rows, each measured at every depth:

- ``build_stage`` (layer): a warm build of the stage of three rule-backed
  ladders (``w^2``, ``w^2*2``, ``w^3``, blocks of offsets (1, 2), unit
  coefficients, factorial psi) at level ``w^3+1``;
- ``obstruct`` (e2e): the splitting-deep obstruct scenario with
  ``zero_splits`` through ``cli.main``;
- ``roundtrip`` (e2e): the marked-target extension and recovery scenario
  through ``cli.main``.

Each row's time is the median CPU time (``time.process_time``, import
excluded) of ``--runs`` fresh processes.  The record, with the commit and
Python version, is printed as JSON and, with ``--out``, merged into FILE
under ``--label``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROWS = {"build_stage": "layer", "obstruct": "e2e", "roundtrip": "e2e"}
SEED = 0


def _scenario(row: str, depth: int) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads as wl

    if row == "obstruct":
        return wl._obstruct_scenario(wl._rng(SEED, "obstruct", 0), depth,
                                     wl.SIZES["full"]["obstruct_bounds"],
                                     wl.DELTAS3, wl.ALPHA3, zero_splits=True)
    return wl._roundtrip_scenario(wl._rng(SEED, "roundtrip", 0), depth)


def measure(row: str, depth: int) -> float:
    """CPU seconds of one measurement of `row` at `depth` in this process;
    laddergroups must be importable."""
    import laddergroups as lg

    if row == "build_stage":
        alpha = lg.parse_ordinal("w^3+1")
        ladders = {d: lg.make_block_special(d, depth)
                   for d in map(lg.parse_ordinal, ("w^2", "w^2*2", "w^3"))}
        cfg = lg.GroupConfig.all_ones(lg.LadderSystem.build(alpha, ladders))
        lg.build_stage(cfg, alpha, depth)  # warm
        t = time.process_time()
        lg.build_stage(cfg, alpha, depth)
        return time.process_time() - t
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


def _fresh(src: str, row: str, depth: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--src", src, "--child", row, str(depth)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{row} at depth {depth} failed:\n{proc.stderr}")
    return float(proc.stdout)


def _commit(src: str) -> str | None:
    proc = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def record(src: str, depths: list[int], runs: int) -> dict:
    rows = []
    for row, kind in ROWS.items():
        for depth in depths:
            times = [_fresh(src, row, depth) for _ in range(runs)]
            rows.append({"name": row, "kind": kind, "depth": depth,
                         "median_s": round(statistics.median(times), 5),
                         "runs": [round(t, 5) for t in times]})
    return {"commit": _commit(src), "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": SEED, "rows": rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="src directory of the checkout to measure")
    parser.add_argument("--depths", type=int, nargs="+", default=[8, 16, 24, 32, 48])
    parser.add_argument("--runs", type=int, default=3, help="fresh processes per row and depth")
    parser.add_argument("--label", default="run", help="key of this record in --out")
    parser.add_argument("--out", help="JSON file to merge the record into")
    parser.add_argument("--child", nargs=2, metavar=("ROW", "DEPTH"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if args.child:
        sys.path.insert(0, src)
        print(measure(args.child[0], int(args.child[1])))
        return 0
    if args.runs < 1 or any(d < 3 for d in args.depths):
        parser.error("--runs must be positive and every depth at least 3")
    rec = record(src, args.depths, args.runs)
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
