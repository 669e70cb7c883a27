"""Scenario ingestion and deterministic verification reports.

A scenario file is JSON with four sections: named ladder systems, named
group configurations, named colorings, and a list of checks.  Checks run in
declaration order; the report is canonical (sorted keys, stable ordering,
no timestamps) so reruns are byte-identical.  Exit status is 0 exactly when
every requested check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import asdict

from .equivalence import (
    build_matched_stages,
    disjointify,
    level_iso_build,
    level_iso_verify,
    overlap_check,
)
from .ladders import (
    LadderSystem,
    PrefixExhaustedError,
    companion_same_range,
    is_tree_like,
    make_block_special,
    make_simple_special,
    prefix_special,
    validate_special,
)
from .ordinals import Ordinal, OrdinalParseError, format_ordinal, parse_ordinal
from .presentation import FactorialPsi, GroupConfig, TablePsi
from .splitting import (
    Coloring,
    IntegerTarget,
    MarkedBasisTarget,
    choose_annihilator,
    extend_hom,
    greedy_uniformize,
    induced_coloring,
    parity_obstruction,
    recover_uniformization,
    splitting_search,
)
from .stages import build_stage, projection

DEPTH_ENV = "LADDERGROUPS_DEPTH"

CHECK_MODULES = {
    "validate": ("ordinal", "ladder"),
    "build": ("group_core", "group_construction"),
    "project": ("group_construction",),
    "equiv": ("filtration_equiv",),
    "uniformize": ("whitehead", "filtration_equiv"),
    "extend": ("whitehead",),
    "obstruct": ("whitehead",),
}


VERDICTS = ("OBSTRUCTED", "NOT_OBSTRUCTED", "INCONCLUSIVE")


class ScenarioError(ValueError):
    pass


def _need(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _is_int(value, least: int | None = None) -> bool:
    return (
        not isinstance(value, bool)
        and isinstance(value, int)
        and (least is None or value >= least)
    )


def _ordinal(value, where: str) -> Ordinal:
    """An ordinal literal from scenario input."""
    if not isinstance(value, str):
        raise ScenarioError(f"{where}: expected an ordinal literal, got {value!r}")
    try:
        return parse_ordinal(value)
    except OrdinalParseError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _alpha(chk: dict, ctx: dict, where: str, system: LadderSystem) -> Ordinal:
    """The check's stage level, else the run's --stage, else the system's."""
    if "alpha" in chk:
        return _ordinal(chk["alpha"], f"{where}.alpha")
    return ctx["stage"] or system.alpha


def _depth(chk: dict, ctx: dict, where: str) -> int:
    """The check's chain depth, or the run's default; a non-negative int."""
    depth = chk.get("depth", ctx["depth"])
    if not _is_int(depth, 0):
        raise ScenarioError(
            f"{where}.depth: expected a non-negative integer, got {depth!r}"
        )
    return depth


def _bounds(chk: dict, ctx: dict, where: str) -> tuple[int, ...]:
    """The check's search bounds, or the run's default bound; a non-empty
    list of non-negative ints."""
    bounds = chk.get("bounds", [ctx["bound"]])
    if not isinstance(bounds, list) or not bounds or not all(_is_int(b, 0) for b in bounds):
        raise ScenarioError(
            f"{where}.bounds: expected a non-empty list of non-negative "
            f"integers, got {bounds!r}"
        )
    return tuple(bounds)


def _build_systems(spec: dict) -> dict[str, LadderSystem]:
    systems: dict[str, LadderSystem] = {}
    for name, sys_spec in spec.items():
        where = f"systems[{name}]"
        if "companion_of" in sys_spec:
            src_name = sys_spec["companion_of"]
            if src_name not in systems:
                raise ScenarioError(f"{where}: unknown source system {src_name!r}")
            src = systems[src_name]
            sizes = _need(sys_spec, "block_sizes", where)
            ladders = {}
            for delta_lit, size_list in sizes.items():
                delta = _ordinal(delta_lit, f"{where}.block_sizes")
                ladders[delta] = companion_same_range(
                    src.ladder(delta), tuple(size_list)
                )
            systems[name] = LadderSystem.build(src.alpha, ladders)
            continue
        alpha = _ordinal(_need(sys_spec, "alpha", where), f"{where}.alpha")
        ladders = {}
        for i, lad in enumerate(_need(sys_spec, "ladders", where)):
            lwhere = f"{where}.ladders[{i}]"
            delta = _ordinal(_need(lad, "delta", lwhere), f"{lwhere}.delta")
            if "entries" in lad:
                entries = tuple(
                    _ordinal(e, f"{lwhere}.entries[{j}]") for j, e in enumerate(lad["entries"])
                )
                bps = tuple(lad["breakpoints"]) if "breakpoints" in lad else None
                ladders[delta] = prefix_special(delta, entries, bps)
            else:
                family = lad.get("family", "simple")
                blocks = _need(lad, "blocks", lwhere)
                if family == "simple":
                    ladders[delta] = make_simple_special(delta, blocks)
                elif family == "blocks":
                    offsets = tuple(
                        tuple(block) for block in lad.get("offsets", [[1, 2]])
                    )
                    ladders[delta] = make_block_special(delta, blocks, offsets)
                else:
                    raise ScenarioError(f"{lwhere}: unknown family {family!r}")
        systems[name] = LadderSystem.build(alpha, ladders)
    return systems


def _build_psi(spec, where: str):
    if spec is None or spec == "factorial":
        return FactorialPsi()
    if isinstance(spec, list) and all(_is_int(v, 1) for v in spec):
        return TablePsi(tuple(spec))
    raise ScenarioError(
        f'{where}.psi: expected "factorial" or a list of positive integers, '
        f"got {spec!r}"
    )


def _build_groups(spec: dict, systems: dict) -> dict[str, GroupConfig]:
    groups = {}
    for name, g in spec.items():
        where = f"groups[{name}]"
        sys_name = _need(g, "system", where)
        if sys_name not in systems:
            raise ScenarioError(f"{where}: unknown system {sys_name!r}")
        system = systems[sys_name]
        psi = _build_psi(g.get("psi"), where)
        coeffs = g.get("coeffs", "ones")
        if coeffs == "ones":
            groups[name] = GroupConfig.all_ones(system, psi)
        elif coeffs == "alternating":
            groups[name] = GroupConfig.alternating(system, psi)
        elif isinstance(coeffs, dict):
            table = {}
            for delta_lit, vectors in coeffs.items():
                delta = _ordinal(delta_lit, f"{where}.coeffs")
                for n, vec in enumerate(vectors):
                    table[(delta, n)] = tuple(vec)
            groups[name] = GroupConfig(system, psi, table)
        else:
            raise ScenarioError(f"{where}: unknown coeffs selector {coeffs!r}")
    return groups


def _build_colorings(spec: dict) -> dict[str, Coloring]:
    out = {}
    for name, c in spec.items():
        where = f"colorings[{name}]"
        palette = c.get("palette", 2)
        if palette is not None and not _is_int(palette, 1):
            raise ScenarioError(
                f"{where}.palette: expected a positive integer or null, got {palette!r}"
            )
        entries = {}
        for j, row in enumerate(_need(c, "entries", where)):
            rwhere = f"{where}.entries[{j}]"
            delta = _ordinal(_need(row, "delta", rwhere), f"{rwhere}.delta")
            colors = _need(row, "colors", rwhere)
            if not isinstance(colors, list) or not all(_is_int(v, 0) for v in colors):
                raise ScenarioError(
                    f"{rwhere}.colors: expected a list of non-negative integers, "
                    f"got {colors!r}"
                )
            entries[delta] = tuple(colors)
        out[name] = Coloring(entries, palette)
    return out


# ---------------------------------------------------------------------------
# check runners


def _check_validate(ctx, chk, where):
    system = _resolve(ctx, "systems", chk, "system", where)
    ladders = {}
    ok = True
    for delta, sl in system.items():
        rep = validate_special(sl)
        ok = ok and rep.ok
        ladders[format_ordinal(delta)] = {
            "ok": rep.ok,
            "errors": list(rep.errors),
            "warnings": list(rep.warnings),
        }
    tree = is_tree_like(system)
    return {
        "ok": ok,
        "alpha": format_ordinal(system.alpha),
        "ladders": ladders,
        "tree_like": tree.ok,
        "tree_witness": list(tree.witness) if tree.witness else None,
    }


def _check_build(ctx, chk, where):
    cfg = _resolve(ctx, "groups", chk, "group", where)
    depth = _depth(chk, ctx, where)
    alpha = _alpha(chk, ctx, where, cfg.system)
    sg = build_stage(cfg, alpha, depth)
    return {
        "ok": True,
        "alpha": format_ordinal(alpha),
        "depth": depth,
        "relations_verified": len(sg.formal_relations()),
        "chain_basis": len(sg.deltas),
        "x_basis": len(sg.x_indices),
    }


def _check_project(ctx, chk, where):
    cfg = _resolve(ctx, "groups", chk, "group", where)
    depth = _depth(chk, ctx, where)
    alpha = _alpha(chk, ctx, where, cfg.system)
    sg = build_stage(cfg, alpha, depth)
    levels = _need(chk, "levels", where)
    if not isinstance(levels, list):
        raise ScenarioError(
            f"{where}.levels: expected a list of ordinal literals, got {levels!r}"
        )
    levels = [_ordinal(lit, f"{where}.levels[{i}]") for i, lit in enumerate(levels)]
    reports = []
    ok = True
    for nu in levels:
        _, rep = projection(sg, nu)
        ok = ok and rep.ok
        reports.append(asdict(rep))
    return {"ok": ok, "depth": depth, "projections": reports}


def _check_equiv(ctx, chk, where):
    src_cfg = _resolve(ctx, "groups", chk, "src", where)
    dst_cfg = _resolve(ctx, "groups", chk, "dst", where)
    depth = _depth(chk, ctx, where)
    alpha = _alpha(chk, ctx, where, src_cfg.system)
    d = disjointify(src_cfg.system)
    overlap = overlap_check(src_cfg.system, dst_cfg.system, d)
    src, dst = build_matched_stages(src_cfg, dst_cfg, alpha, depth)
    gmap = level_iso_build(src, dst, d)
    rep = level_iso_verify(gmap, src, dst)
    return {
        "ok": d.certified and overlap.ok and rep.ok,
        "thresholds": {format_ordinal(k): v for k, v in d.thresholds.items()},
        "tails_disjoint": d.certified,
        "overlap_coincidences": overlap.coincidences,
        "overlap_violations": list(overlap.violations),
        "iso": asdict(rep),
    }


def _check_uniformize(ctx, chk, where):
    system = _resolve(ctx, "systems", chk, "system", where)
    coloring = _resolve(ctx, "colorings", chk, "coloring", where)
    d = disjointify(system)
    data = greedy_uniformize(system, coloring, d)
    return {
        "ok": d.certified,
        "tails_disjoint": d.certified,
        "thresholds": {format_ordinal(k): v for k, v in data.thresholds.items()},
        "values_colored": len(data.psi),
    }


def _phi_from_spec(spec, deltas, depth, target, rng, coloring, where):
    if isinstance(target, MarkedBasisTarget):
        if coloring is None:
            raise ScenarioError("marked-target extension needs a coloring")
        return {
            (d, n): target.basis(n, coloring.color(d, 2 * n), coloring.color(d, 2 * n + 1))
            for d in deltas
            for n in range(depth)
        }
    if spec == "unit" or spec is None:
        return {(d, n): 1 for d in deltas for n in range(depth)}
    if isinstance(spec, dict) and "random" in spec:
        lo, hi = spec["random"].get("low", -9), spec["random"].get("high", 9)
        return {(d, n): rng.randint(lo, hi) for d in deltas for n in range(depth)}
    if isinstance(spec, dict) and "values" in spec:
        return {
            (_ordinal(lit, f"{where}.phi.values"), n): v
            for lit, vals in spec["values"].items()
            for n, v in enumerate(vals)
        }
    raise ScenarioError(f"unknown phi selector {spec!r}")


def _check_extend(ctx, chk, where):
    cfg = _resolve(ctx, "groups", chk, "group", where)
    depth = _depth(chk, ctx, where)
    alpha = _alpha(chk, ctx, where, cfg.system)
    cfg = cfg.restrict(depth)
    sg = build_stage(cfg, alpha, depth)
    target_name = chk.get("target", "integers")
    target = MarkedBasisTarget() if target_name == "marked" else IntegerTarget()
    coloring = (
        _resolve(ctx, "colorings", chk, "coloring", where)
        if "coloring" in chk
        else None
    )
    rng = random.Random(chk.get("seed", ctx["seed"]))
    phi = _phi_from_spec(chk.get("phi"), sg.deltas, depth, target, rng, coloring, where)
    induced = induced_coloring(sg, phi, target)
    d = disjointify(cfg.system)
    u = greedy_uniformize(cfg.system, induced, d)
    hom, rep = extend_hom(sg, phi, u, target)
    out = {
        "ok": rep.ok,
        "target": target.name,
        "depth": depth,
        "thresholds": {k: v for k, v in rep.thresholds},
        "cases": {k: v for k, v in rep.case_counts},
        "relations_checked": rep.relations_checked,
    }
    if chk.get("recover"):
        data, rrep = recover_uniformization(sg, coloring, hom)
        tails_match = all(
            data.psi[cfg.system.ladder(dd).entries[k]] == coloring.color(dd, k)
            for dd in sg.deltas
            for k in range(data.thresholds[dd], min(2 * depth, coloring.depth(dd)))
        )
        out["recover"] = asdict(rrep)
        out["recovered_tail_colors_match"] = tails_match
        out["ok"] = out["ok"] and rrep.ok and tails_match
    return out


def _b_data(spec, system: LadderSystem, rng, where: str):
    """The x lift of an obstruct check, one integer vector per explored block
    of every ladder: given as {"values": {delta: [[...], ...]}}, or drawn
    from [low, high] by {"random": {"low": -9, "high": 9}}."""
    if not isinstance(spec, dict) or len(spec) != 1 or not spec.keys() <= {"values", "random"}:
        raise ScenarioError(
            f'{where}: expected an object with one key, "values" or "random", got {spec!r}'
        )
    b_data: dict[tuple[Ordinal, int], tuple[int, ...]] = {}
    if "values" in spec:
        values = spec["values"]
        if not isinstance(values, dict):
            raise ScenarioError(f"{where}.values: expected an object, got {values!r}")
        given = {_ordinal(k, f"{where}.values"): v for k, v in values.items()}
        for delta in given:
            if delta not in system.deltas:
                raise ScenarioError(
                    f"{where}.values: no ladder on {format_ordinal(delta)} in the system"
                )
        for delta, sl in system.items():
            vwhere = f"{where}.values[{format_ordinal(delta)}]"
            vectors = given.get(delta)
            if not isinstance(vectors, list) or len(vectors) != sl.block_count:
                raise ScenarioError(
                    f"{vwhere}: expected a list of {sl.block_count} block vectors, "
                    f"got {vectors!r}"
                )
            for n, vec in enumerate(vectors):
                if not (isinstance(vec, list) and len(vec) == sl.t(n) and all(map(_is_int, vec))):
                    raise ScenarioError(
                        f"{vwhere}[{n}]: expected a list of {sl.t(n)} integers, got {vec!r}"
                    )
                b_data[(delta, n)] = tuple(vec)
        return b_data
    rand = spec["random"]
    lo, hi = (rand.get("low", -9), rand.get("high", 9)) if isinstance(rand, dict) else (None, None)
    if not (_is_int(lo) and _is_int(hi) and lo <= hi):
        raise ScenarioError(f"{where}.random: expected integers low <= high, got {rand!r}")
    for delta, sl in system.items():
        for n in range(sl.block_count):
            if sl.t(n) == 1:
                b_data[(delta, n)] = (0,)
            else:
                b_data[(delta, n)] = tuple(rng.randint(lo, hi) for _ in range(sl.t(n)))
    return b_data


def _check_obstruct(ctx, chk, where):
    system = _resolve(ctx, "systems", chk, "system", where)
    depth = _depth(chk, ctx, where)
    alpha = _alpha(chk, ctx, where, system)
    c1 = _resolve(ctx, "colorings", chk, "c1", where)
    c2 = _resolve(ctx, "colorings", chk, "c2", where)
    psi = _build_psi(chk.get("psi"), where)
    bounds = _bounds(chk, ctx, where)
    expect = chk.get("expect")
    if "expect" in chk and expect not in VERDICTS:
        raise ScenarioError(
            f"{where}.expect: expected one of {', '.join(VERDICTS)}, got {expect!r}"
        )
    rng = random.Random(chk.get("seed", ctx["seed"]))
    b_data = _b_data(chk.get("b", {"random": {}}), system, rng, f"{where}.b")
    cfg = GroupConfig.from_rule(
        system, psi, lambda d, n, t: choose_annihilator(b_data[(d, n)])
    )
    verdict = parity_obstruction(cfg, c1, c2, b_data, alpha, depth, bounds)
    result = {
        "ok": True,
        "status": verdict.status,
        "nstar": verdict.nstar,
        "witness": verdict.witness,
        "trace": {d: [list(t) for t in tr] for d, tr in verdict.traces},
        "searches": [list(s) for s in verdict.searches],
        "notes": list(verdict.notes),
    }
    if expect is not None:
        result["expected"] = expect
        result["ok"] = verdict.status == expect
    if chk.get("zero_splits"):
        from .splitting import build_twisted, zero_coloring

        ts, ex = build_twisted(cfg, zero_coloring(system, depth), alpha, depth)
        found = splitting_search(ts, bounds[-1])
        result["zero_coloring_section_found"] = found.found
        result["exactness_ok"] = ex.ok
        result["ok"] = result["ok"] and found.found and ex.ok
    return result


_RUNNERS = {
    "validate": _check_validate,
    "build": _check_build,
    "project": _check_project,
    "equiv": _check_equiv,
    "uniformize": _check_uniformize,
    "extend": _check_extend,
    "obstruct": _check_obstruct,
}


def _resolve(ctx, section, chk, key, where):
    name = _need(chk, key, where)
    pool = ctx[section]
    if name not in pool:
        raise ScenarioError(f"{where}.{key}: unknown {section[:-1]} {name!r}")
    return pool[name]


def run_scenario(path: str, options: dict) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{os.path.basename(path)}: {exc}") from None
    systems = _build_systems(raw.get("systems", {}))
    groups = _build_groups(raw.get("groups", {}), systems)
    colorings = _build_colorings(raw.get("colorings", {}))
    ctx = {
        "systems": systems,
        "groups": groups,
        "colorings": colorings,
        "depth": options["depth"],
        "seed": options["seed"],
        "bound": options["bound"],
        "stage": options["stage"],
    }
    wanted = options.get("kind")
    checks = []
    all_ok = True
    first_failure = None
    for i, chk in enumerate(raw.get("checks", [])):
        where = f"checks[{i}]"
        kind = _need(chk, "check", where)
        if kind not in _RUNNERS:
            raise ScenarioError(f"{where}: unknown check kind {kind!r}")
        if wanted and kind != wanted:
            continue
        name = chk.get("name", f"{kind}-{i}")
        try:
            result = _RUNNERS[kind](ctx, chk, where)
        except ScenarioError:
            raise
        except PrefixExhaustedError as exc:
            result = {"ok": False, "error": f"{exc} (increase depth)"}
        except (ValueError, KeyError, LookupError) as exc:
            result = {"ok": False, "error": str(exc)}
        entry = {"name": name, "kind": kind}
        entry.update(result)
        checks.append(entry)
        if not entry["ok"]:
            all_ok = False
            if first_failure is None:
                first_failure = name
    return {
        "scenario": os.path.basename(path),
        "options": {
            "bound": options["bound"],
            "depth": options["depth"],
            "seed": options["seed"],
            "stage": format_ordinal(options["stage"]) if options["stage"] else None,
        },
        "checks": checks,
        "passed": sum(1 for c in checks if c["ok"]),
        "total": len(checks),
        "ok": all_ok,
        "first_failure": first_failure,
    }


def _render_text(report: dict) -> str:
    lines = [f"scenario: {report['scenario']}"]
    lines.append(
        "options: " + json.dumps(report["options"], sort_keys=True, separators=(", ", ": "))
    )
    for chk in report["checks"]:
        status = "PASS" if chk["ok"] else "FAIL"
        lines.append(f"== {chk['kind']} '{chk['name']}': {status}")
        for key in sorted(chk):
            if key in ("name", "kind", "ok"):
                continue
            value = json.dumps(chk[key], sort_keys=True, separators=(",", ":"))
            lines.append(f"   {key}: {value}")
    verdict = "PASS" if report["ok"] else f"FAIL (first failure: {report['first_failure']})"
    lines.append(f"result: {verdict} ({report['passed']}/{report['total']})")
    return "\n".join(lines) + "\n"


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    return _render_text(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="laddergroups",
        description="Build and verify ladder-system groups from scenario files.",
    )
    default_depth = int(os.environ.get(DEPTH_ENV, "6"))
    parser.add_argument(
        "verb",
        choices=["run", "validate", "build", "project", "equiv", "uniformize",
                 "extend", "obstruct"],
        help="run all checks, or only those of one kind",
    )
    parser.add_argument("scenario", help="scenario JSON file")
    parser.add_argument("--depth", type=int, default=default_depth,
                        help=f"default chain depth (env {DEPTH_ENV})")
    parser.add_argument("--stage", type=str, default=None,
                        help="default stage level as an ordinal literal")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized sweeps")
    parser.add_argument("--bound", type=int, default=25,
                        help="default splitting search bound")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--out", type=str, default=None,
                        help="write the report to a file instead of stdout")
    args = parser.parse_args(argv)
    options = {
        "depth": args.depth,
        "seed": args.seed,
        "bound": args.bound,
        "stage": None,
        "kind": None if args.verb == "run" else args.verb,
    }
    try:
        if args.stage:
            options["stage"] = _ordinal(args.stage, "--stage")
        report = run_scenario(args.scenario, options)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render_report(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if options["kind"] and not report["checks"]:
        print(f"error: no checks of kind {options['kind']!r}", file=sys.stderr)
        return 2
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
