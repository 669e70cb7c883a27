"""Scenario ingestion and deterministic verification reports.

A scenario file is JSON with four sections: named ladder systems, named
group configurations, named colorings, and a list of checks.  The whole file
is checked before any check runs, whatever the verb: a field of the wrong
type, sign or range, an unknown reference, a repeated delta or a repeated
key is a ``ScenarioError`` naming it as ``section[name].field[index]``.
Checks then run in declaration order; the report is canonical (sorted keys,
stable ordering, no timestamps) so reruns are byte-identical.  Exit status
is 0 exactly when every requested check passes.
"""

from __future__ import annotations

import json
import os
import random
import sys
from contextlib import contextmanager

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
)
from .ordinals import Ordinal, OrdinalParseError, format_ordinal, parse_ordinal
from .presentation import FactorialPsi, GroupConfig, TablePsi
from .splitting import (
    Coloring,
    IntegerTarget,
    MarkedBasisTarget,
    build_twisted,
    choose_annihilator,
    extend_hom,
    greedy_uniformize,
    induced_coloring,
    parity_obstruction,
    recover_uniformization,
    splitting_search,
    zero_coloring,
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


# ---------------------------------------------------------------------------
# the field reader: a kind is a function (value, where) -> parsed value that
# raises ScenarioError, naming `where`, for a value it rejects


def _fail(where: str, what: str, value):
    raise ScenarioError(f"{where}: expected {what}, got {value!r}")


def _is_int(value, least: int | None = None) -> bool:
    # type(), not isinstance(): JSON's true and false are bools, and bool is an int
    return type(value) is int and (least is None or value >= least)


def _ints(value, least: int | None = None) -> bool:
    return isinstance(value, list) and all(_is_int(v, least) for v in value)


def _expect(what: str, test, convert=None):
    """The kind of the values that pass `test`, read through `convert`."""

    def kind(value, where):
        if not test(value):
            _fail(where, what, value)
        return convert(value) if convert else value

    return kind


def _is_lift(value) -> bool:
    return isinstance(value, dict) and len(value) == 1 and value.keys() <= {"values", "random"}


INT = _expect("an integer", _is_int)
NAT = _expect("a non-negative integer", lambda v: _is_int(v, 0))
POS = _expect("a positive integer", lambda v: _is_int(v, 1))
BOOL = _expect("true or false", lambda v: isinstance(v, bool))
STRING = _expect("a string", lambda v: isinstance(v, str))
OBJECT = _expect("an object", lambda v: isinstance(v, dict))
LIST = _expect("a list", lambda v: isinstance(v, list))
INTS = _expect("a list of integers", _ints)
NATS = _expect("a list of non-negative integers", lambda v: _ints(v, 0), tuple)
POSITIVES = _expect("a list of positive integers", lambda v: _ints(v, 1), tuple)
INT_LISTS = _expect(
    "a list of integer lists",
    lambda v: isinstance(v, list) and all(map(_ints, v)),
    lambda v: tuple(map(tuple, v)),
)
BOUNDS = _expect("a non-empty list of non-negative integers", lambda v: v and _ints(v, 0), tuple)
DECIMAL = _expect("a non-negative integer", lambda v: v.strip().isdecimal(), int)
PALETTE = _expect("a positive integer or null", lambda v: v is None or _is_int(v, 1))
PSI = _expect(
    '"factorial" or a list of positive integers',
    lambda v: v == "factorial" or _ints(v, 1),
    lambda v: FactorialPsi() if v == "factorial" else TablePsi(tuple(v)),
)
COEFFS = _expect(
    '"ones", "alternating" or an object',
    lambda v: v in ("ones", "alternating") or isinstance(v, dict),
)
LIFT = _expect('an object with one key, "values" or "random"', _is_lift)
PHI = _expect(
    '"unit" or an object with one key, "values" or "random"',
    lambda v: v == "unit" or _is_lift(v),
)
_REQUIRED = object()  # the default of a field that must be given


def ORDINAL(value, where):
    if not isinstance(value, str):
        _fail(where, "an ordinal literal", value)
    try:
        return parse_ordinal(value)
    except OrdinalParseError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def ORDINALS(value, where):
    return tuple(ORDINAL(v, f"{where}[{i}]") for i, v in enumerate(LIST(value, where)))


def _one_of(pool):
    """The kind of the names in `pool`: a key of a dict reads as its value,
    a member of a tuple as itself."""

    def kind(value, where):
        if not (isinstance(value, str) and value in pool):
            _fail(where, f"one of {', '.join(pool) or '(none defined)'}", value)
        return pool[value] if isinstance(pool, dict) else value

    return kind


def _delta(value, where: str, seen, system: LadderSystem | None = None):
    """An ordinal literal for a delta not in `seen` and, given a system, one
    with a ladder in it."""
    delta = ORDINAL(value, where)
    if delta in seen:
        raise ScenarioError(f"{where}: delta {format_ordinal(delta)} given twice")
    if system is not None and delta not in system.deltas:
        raise ScenarioError(f"{where}: no ladder on {format_ordinal(delta)} in the system")
    return delta


def _low_high(value, where):
    """The [low, high] range of a random draw; low and high default to -9, 9."""
    if isinstance(value, dict):
        lo, hi = value.get("low", -9), value.get("high", 9)
        if _is_int(lo) and _is_int(hi) and lo <= hi:
            return lo, hi
    _fail(where, "integers low <= high", value)


def _get(obj: dict, key: str, where: str, kind, default=_REQUIRED):
    """Field `key` of the JSON object at `where`, read by `kind`.

    A missing field is an error unless it has a default.  A default of None
    stands for "not given" and is returned as it is; any other default is
    read by `kind` too, so the run-wide defaults (`--bound`, `--depth`) are
    checked wherever a check falls back on them."""
    path = f"{where}.{key}" if where else key
    if key in obj:
        return kind(obj[key], path)
    if default is _REQUIRED:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return default if default is None else kind(default, path)


def _each(obj: dict, key: str, where: str, kind, default=_REQUIRED):
    """(key, path, object) for each object of the list (kind LIST) or of the
    section (kind OBJECT) in field `key`."""
    path = f"{where}.{key}" if where else key
    items = _get(obj, key, where, kind, default)
    for k, item in items.items() if isinstance(items, dict) else enumerate(items):
        yield k, f"{path}[{k}]", OBJECT(item, f"{path}[{k}]")


def _by_delta(obj: dict, key: str, where: str, system: LadderSystem, kind) -> dict:
    """Field `key`: an object keyed by ordinal literals, one per ladder of
    `system` at most, with each value read by `kind`."""
    path = f"{where}.{key}"
    out = {}
    for lit, value in _get(obj, key, where, OBJECT).items():
        delta = _delta(lit, path, out, system)
        out[delta] = kind(value, f"{path}[{format_ordinal(delta)}]")
    return out


def _values_or_random(spec: dict, where: str, system: LadderSystem, kind):
    """(values, None) for {"values": {delta: ...}}, each value read by
    `kind`, or (None, (low, high)) for {"random": {"low": .., "high": ..}}."""
    if "random" in spec:
        return None, _get(spec, "random", where, _low_high)
    return _by_delta(spec, "values", where, system, kind), None


@contextmanager
def _entry(where: str):
    """Name the section entry `where` in a library ValueError raised while
    it is built; a ScenarioError names its field already."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _build_systems(raw: dict) -> dict[str, LadderSystem]:
    systems: dict[str, LadderSystem] = {}
    for name, where, spec in _each(raw, "systems", "", OBJECT, {}):
        with _entry(where):
            if "companion_of" in spec:
                src = _get(spec, "companion_of", where, _one_of(systems))
                sizes = _by_delta(spec, "block_sizes", where, src, POSITIVES)
                ladders = {d: companion_same_range(src.ladder(d), s) for d, s in sizes.items()}
                systems[name] = LadderSystem.build(src.alpha, ladders)
                continue
            alpha = _get(spec, "alpha", where, ORDINAL)
            ladders = {}
            for _, lwhere, lad in _each(spec, "ladders", where, LIST):
                delta = _get(lad, "delta", lwhere, lambda v, w: _delta(v, w, ladders))
                if "entries" in lad:
                    bps = _get(lad, "breakpoints", lwhere, NATS, None)
                    entries = _get(lad, "entries", lwhere, ORDINALS)
                    ladders[delta] = prefix_special(delta, entries, bps)
                    continue
                family = _get(lad, "family", lwhere, _one_of(("simple", "blocks")), "simple")
                blocks = _get(lad, "blocks", lwhere, POS)
                offsets = _get(lad, "offsets", lwhere, INT_LISTS, [[1, 2]])
                if family == "simple":
                    ladders[delta] = make_simple_special(delta, blocks)
                else:
                    ladders[delta] = make_block_special(delta, blocks, offsets)
            systems[name] = LadderSystem.build(alpha, ladders)
    return systems


def _build_groups(raw: dict, systems: dict) -> dict[str, GroupConfig]:
    groups = {}
    for name, where, g in _each(raw, "groups", "", OBJECT, {}):
        with _entry(where):
            system = _get(g, "system", where, _one_of(systems))
            psi = _get(g, "psi", where, PSI, "factorial")
            coeffs = _get(g, "coeffs", where, COEFFS, "ones")
            if coeffs == "ones":
                groups[name] = GroupConfig.all_ones(system, psi)
            elif coeffs == "alternating":
                groups[name] = GroupConfig.alternating(system, psi)
            else:
                table = _by_delta(g, "coeffs", where, system, INT_LISTS)
                groups[name] = GroupConfig(system, psi, {
                    (delta, n): vec for delta, vecs in table.items() for n, vec in enumerate(vecs)
                })
    return groups


def _build_colorings(raw: dict) -> dict[str, Coloring]:
    out = {}
    for name, where, c in _each(raw, "colorings", "", OBJECT, {}):
        with _entry(where):
            palette = _get(c, "palette", where, PALETTE, 2)
            entries = {}
            for _, rwhere, row in _each(c, "entries", where, LIST):
                delta = _get(row, "delta", rwhere, lambda v, w: _delta(v, w, entries))
                entries[delta] = _get(row, "colors", rwhere, NATS)
            out[name] = Coloring(entries, palette)
    return out


# ---------------------------------------------------------------------------
# check runners: generators that read and check every field of their check
# up to their `yield`, and run it and return its result after


def _stage(ctx, chk, where, system: LadderSystem) -> tuple[int, Ordinal]:
    """The check's chain depth and stage level.  The level is the check's
    alpha, else the run's --stage, else the system's."""
    depth = _get(chk, "depth", where, NAT, ctx["depth"])
    levels = (_get(chk, "alpha", where, ORDINAL, None), ctx["stage"], system.alpha)
    return depth, next(level for level in levels if level is not None)


def _check_validate(ctx, chk, where):
    system = _get(chk, "system", where, ctx["system"])
    yield
    reports = {format_ordinal(delta): sl.report for delta, sl in system.items()}
    tree = is_tree_like(system)
    return {
        "ok": all(rep.ok for rep in reports.values()),
        "alpha": format_ordinal(system.alpha),
        "ladders": {tag: dict(vars(rep)) for tag, rep in reports.items()},
        "tree_like": tree.ok,
        "tree_witness": list(tree.witness) if tree.witness else None,
    }


def _check_build(ctx, chk, where):
    cfg = _get(chk, "group", where, ctx["group"])
    depth, alpha = _stage(ctx, chk, where, cfg.system)
    yield
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
    cfg = _get(chk, "group", where, ctx["group"])
    depth, alpha = _stage(ctx, chk, where, cfg.system)
    levels = _get(chk, "levels", where, ORDINALS)
    yield
    sg = build_stage(cfg, alpha, depth)
    reports = [projection(sg, nu)[1] for nu in levels]
    ok = all(rep.ok for rep in reports)
    return {"ok": ok, "depth": depth, "projections": [dict(vars(rep)) for rep in reports]}


def _check_equiv(ctx, chk, where):
    src_cfg = _get(chk, "src", where, ctx["group"])
    dst_cfg = _get(chk, "dst", where, ctx["group"])
    depth, alpha = _stage(ctx, chk, where, src_cfg.system)
    yield
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
        "iso": dict(vars(rep)),
    }


def _check_uniformize(ctx, chk, where):
    system = _get(chk, "system", where, ctx["system"])
    coloring = _get(chk, "coloring", where, ctx["coloring"])
    yield
    d = disjointify(system)
    data = greedy_uniformize(system, coloring, d)
    return {
        "ok": d.certified,
        "tails_disjoint": d.certified,
        "thresholds": {format_ordinal(k): v for k, v in data.thresholds.items()},
        "values_colored": len(data.psi),
    }


def _check_extend(ctx, chk, where):
    cfg = _get(chk, "group", where, ctx["group"])
    depth, alpha = _stage(ctx, chk, where, cfg.system)
    marked = _get(chk, "target", where, _one_of({"integers": False, "marked": True}), "integers")
    # the marked target induces phi from the coloring, so it needs one
    coloring = _get(chk, "coloring", where, ctx["coloring"], _REQUIRED if marked else None)
    rng = random.Random(_get(chk, "seed", where, INT, ctx["seed"]))
    phi_spec = _get(chk, "phi", where, PHI, "unit")
    values, low_high = (
        (None, None) if phi_spec == "unit"
        else _values_or_random(phi_spec, f"{where}.phi", cfg.system, INTS)
    )
    for delta in cfg.system.deltas_below(alpha) if values is not None else ():
        if len(values.get(delta, ())) != depth:
            vwhere = f"{where}.phi.values[{format_ordinal(delta)}]"
            _fail(vwhere, f"a list of {depth} integers", values.get(delta))
    recover = _get(chk, "recover", where, BOOL, False)
    yield
    cfg = cfg.restrict(depth)
    sg = build_stage(cfg, alpha, depth)
    target = MarkedBasisTarget() if marked else IntegerTarget()
    if marked:
        phi = target.relation_images(sg, coloring)
    elif values is not None:
        phi = {(d, n): v for d, vals in values.items() for n, v in enumerate(vals)}
    else:
        keys = [(d, n) for d in sg.deltas for n in range(depth)]
        phi = {key: rng.randint(*low_high) if low_high else 1 for key in keys}
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
    if recover:
        data, rrep = recover_uniformization(sg, coloring, hom)
        tails_match = all(
            data.psi[cfg.system.ladder(dd).entries[k]] == coloring.color(dd, k)
            for dd in sg.deltas
            for k in range(data.thresholds[dd], min(2 * depth, coloring.depth(dd)))
        )
        out["recover"] = dict(vars(rrep))
        out["recovered_tail_colors_match"] = tails_match
        out["ok"] = out["ok"] and rrep.ok and tails_match
    return out


def _b_data(chk, where: str, system: LadderSystem, rng):
    """The x lift of an obstruct check, one integer vector per explored block
    of every ladder: given as {"values": {delta: [[...], ...]}}, or drawn
    from [low, high] by {"random": {"low": -9, "high": 9}}."""
    spec = _get(chk, "b", where, LIFT, {"random": {}})
    given, low_high = _values_or_random(spec, f"{where}.b", system, LIST)
    b_data = {}
    for delta, sl in system.items():
        vwhere = f"{where}.b.values[{format_ordinal(delta)}]"
        vectors = given.get(delta) if given is not None else [
            [rng.randint(*low_high) for _ in range(sl.t(n))] if sl.t(n) > 1 else [0]
            for n in range(sl.block_count)
        ]
        if not isinstance(vectors, list) or len(vectors) != sl.block_count:
            _fail(vwhere, f"a list of {sl.block_count} block vectors", vectors)
        for n, vec in enumerate(vectors):
            if not (_ints(vec) and len(vec) == sl.t(n)):
                _fail(f"{vwhere}[{n}]", f"a list of {sl.t(n)} integers", vec)
            b_data[(delta, n)] = tuple(vec)
    return b_data


def _check_obstruct(ctx, chk, where):
    system = _get(chk, "system", where, ctx["system"])
    depth, alpha = _stage(ctx, chk, where, system)
    c1 = _get(chk, "c1", where, ctx["coloring"])
    c2 = _get(chk, "c2", where, ctx["coloring"])
    psi = _get(chk, "psi", where, PSI, "factorial")
    bounds = _get(chk, "bounds", where, BOUNDS, [ctx["bound"]])
    expect = _get(chk, "expect", where, _one_of(VERDICTS), None)
    rng = random.Random(_get(chk, "seed", where, INT, ctx["seed"]))
    b_data = _b_data(chk, where, system, rng)
    zero_splits = _get(chk, "zero_splits", where, BOOL, False)
    yield
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
    if zero_splits:
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


def _unique_keys(pairs: list) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ScenarioError(f"key {key!r} given twice in one object")
        out[key] = value
    return out


def run_scenario(path: str, options: dict) -> dict:
    name = os.path.basename(path)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, ScenarioError) as exc:
        raise ScenarioError(f"{name}: {exc}") from None
    raw = OBJECT(raw, name)
    systems = _build_systems(raw)
    groups = _build_groups(raw, systems)
    colorings = _build_colorings(raw)
    # the run-wide defaults, and the kinds that read a reference to a section
    ctx = dict(
        options, system=_one_of(systems), group=_one_of(groups), coloring=_one_of(colorings)
    )
    wanted = options.get("kind")
    steps = []
    for i, where, chk in _each(raw, "checks", "", LIST, []):
        kind = _get(chk, "check", where, _one_of(tuple(_RUNNERS)))
        label = _get(chk, "name", where, STRING, f"{kind}-{i}")
        step = _RUNNERS[kind](ctx, chk, where)
        next(step)
        if not wanted or kind == wanted:
            steps.append((label, kind, step))
    checks = []
    for label, kind, step in steps:
        try:
            next(step)
        except StopIteration as done:
            result = done.value
        except PrefixExhaustedError as exc:
            result = {"ok": False, "error": f"{exc} (increase depth)"}
        except (ValueError, KeyError, LookupError) as exc:
            result = {"ok": False, "error": str(exc)}
        except Exception as exc:
            result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        checks.append({"name": label, "kind": kind, **result})
    first_failure = next((c["name"] for c in checks if not c["ok"]), None)
    return {
        "scenario": name,
        "options": {
            "bound": options["bound"],
            "depth": options["depth"],
            "seed": options["seed"],
            "stage": None if options["stage"] is None else format_ordinal(options["stage"]),
        },
        "checks": checks,
        "passed": sum(1 for c in checks if c["ok"]),
        "total": len(checks),
        "ok": first_failure is None,
        "first_failure": first_failure,
    }


def _render_text(report: dict) -> str:
    options = json.dumps(report["options"], sort_keys=True, separators=(", ", ": "))
    lines = [f"scenario: {report['scenario']}", f"options: {options}"]
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


# the command line: VERB SCENARIO and these options, each (metavar, help,
# kind, default) with kind int, str or a tuple of choices.  No option name
# is a prefix of another, so an exact name is also a unique prefix.
VERBS = ("run", *_RUNNERS)
OPTIONS = {
    "depth": ("N", f"default chain depth (default: env {DEPTH_ENV}, else 6)", int, None),
    "stage": ("LIT", "default stage level as an ordinal literal (default: none)", str, None),
    "seed": ("N", "seed for randomized sweeps (default: 0)", int, 0),
    "bound": ("N", "default splitting search bound (default: 25)", int, 25),
    "format": ("{text,json}", "report format (default: text)", ("text", "json"), "text"),
    "out": ("PATH", "write the report to a file instead of stdout (default: none)", str, None),
}
USAGE = "usage: laddergroups [-h] VERB SCENARIO [--OPTION VALUE ...]"


def _bad_usage(message: str):
    sys.stderr.write(f"{USAGE}\nladdergroups: error: {message}\n")
    raise SystemExit(2)


def _choice(what: str, value: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        _bad_usage(f"argument {what}: invalid choice: {value!r} (choose from {', '.join(choices)})")
    return value


def _is_option(arg: str) -> bool:
    # as in argparse, "-" and negative numbers are values
    return arg.startswith("-") and arg != "-" and not arg[1:].replace(".", "", 1).isdecimal()


def _parse_args(argv: list[str]) -> dict:
    """VERB, SCENARIO and the option values of argv, read as argparse reads
    them: --name VALUE or --name=VALUE, with name any unique prefix of an
    option, in any order, and the last of a repeated option winning.  -h or
    --help prints the help and exits 0; a usage error exits 2 after a usage
    line and an error line."""
    out = {name: spec[3] for name, spec in OPTIONS.items()}
    positional, extras, args = [], [], iter(argv)
    for arg in args:
        if not _is_option(arg):
            positional.append(arg)
            _choice("verb", positional[0], VERBS)  # checked when read, as argparse does
            continue
        prefix, eq, value = ("--help" if arg == "-h" else arg)[2:].partition("=")
        names = [n for n in ("help", *OPTIONS) if prefix and n.startswith(prefix)]
        if not names or arg[1] != "-" and arg != "-h":
            extras.append(arg)  # reported at the end, as argparse does
            continue
        if len(names) > 1:
            _bad_usage(f"ambiguous option: --{prefix} could match --{', --'.join(names)}")
        if names == ["help"]:
            rows = [("VERB", f"run all checks, or only those of one kind: {', '.join(VERBS)}"),
                    ("SCENARIO", "scenario JSON file"), ("-h, --help", "show this help and exit"),
                    *((f"--{name} {spec[0]}", spec[1]) for name, spec in OPTIONS.items())]
            sys.stdout.write(f"{USAGE}\n\nBuild and verify ladder-system groups from scenario "
                             "files.\n\n" + "".join(f"  {a:<22}{b}\n" for a, b in rows))
            raise SystemExit(0)
        name, kind = names[0], OPTIONS[names[0]][2]
        if not eq and _is_option(value := next(args, "--")):  # "--" when argv ends here
            _bad_usage(f"argument --{name}: expected one argument")
        try:
            out[name] = kind(value) if callable(kind) else _choice(f"--{name}", value, kind)
        except ValueError:
            _bad_usage(f"argument --{name}: invalid int value: {value!r}")
    if len(positional) != 2 or extras:
        _bad_usage(f"unrecognized arguments: {' '.join(extras)}" if len(positional) == 2
                   else f"expected the arguments VERB SCENARIO, got {positional}")
    out["verb"], out["scenario"] = positional
    return out


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        depth = _get(os.environ, DEPTH_ENV, "", DECIMAL, "6") if args["depth"] is None \
            else args["depth"]
        options = dict(args, depth=NAT(depth, "--depth"),
                       stage=None if args["stage"] is None else ORDINAL(args["stage"], "--stage"),
                       kind=None if args["verb"] == "run" else args["verb"])
        report = run_scenario(args["scenario"], options)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render_report(report, args["format"])
    if args["out"] is not None:
        try:
            with open(args["out"], "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if options["kind"] and not report["checks"]:
        print(f"error: no checks of kind {options['kind']!r}", file=sys.stderr)
        return 2
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
