"""Spans and counters at the boundaries of the laddergroups modules.

``Tracer.install`` wraps the listed public functions and methods of every
layer in each module namespace that holds them, so calls made inside the
package are seen as well as calls from the benchmark.  Each span records its
name, start, end, parent span and job id; spans stay in memory until the
process writes them out.  Counters are kept at the same boundaries, from the
arguments and results of the wrapped calls.

Only the job processes of a traced run install it; the end-to-end metrics
come from untraced runs.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

LAYERS = ("ordinals", "ladders", "presentation", "stages", "equivalence", "splitting", "cli")

# Functions and methods that get a span, by layer.  "Class.name" is a method.
SPANNED = {
    "ordinals": ("parse_ordinal", "format_ordinal"),
    "ladders": ("validate_special", "omega_range", "make_simple_special",
                "make_block_special", "prefix_special", "companion_same_range",
                "LadderSystem.build"),
    "presentation": ("chain_element", "chain_relation", "stage_rewrite", "verify_hom",
                     "compose_maps", "membership", "membership_at_level",
                     "GeneratorMap.apply"),
    "stages": ("build_stage", "projection", "filtration_subgroup", "freeness_basis"),
    "equivalence": ("disjointify", "overlap_check", "build_matched_stages",
                    "level_iso_build", "level_iso_verify", "invert_level_iso"),
    "splitting": ("greedy_uniformize", "induced_coloring", "extend_hom",
                  "recover_uniformization", "build_twisted", "splitting_search",
                  "splitting_search_pair", "parity_obstruction",
                  "IntegerTarget.encode", "IntegerTarget.decode",
                  "MarkedBasisTarget.encode", "MarkedBasisTarget.decode"),
    "cli": ("main", "run_scenario", "render_report"),
}

# FreeElement arithmetic is counted but gets no span: it is the innermost
# loop of every layer above it, and a span per operation would swamp the
# trace.
COUNTED_ONLY = ("__add__", "__sub__", "__neg__", "scale", "__rmul__")

# Span names that several wrapped functions share.
ALIASES = {
    "splitting.IntegerTarget.encode": "splitting.encode",
    "splitting.MarkedBasisTarget.encode": "splitting.encode",
    "splitting.IntegerTarget.decode": "splitting.decode",
    "splitting.MarkedBasisTarget.decode": "splitting.decode",
}

LADDER_BUILDERS = frozenset({
    "ladders.make_simple_special", "ladders.make_block_special",
    "ladders.companion_same_range", "ladders.LadderSystem.build",
})


def _max_denominator_bits(element) -> int:
    return max((q.denominator.bit_length() for _, q in element.items()), default=0)


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, job]
        self._stack: list[int] = []
        self.job: str | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self._distinct: dict[str, set] = defaultdict(set)
        self._keys: dict[int, tuple] = {}
        self._pinned: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("laddergroups")
        modules = [pkg] + [importlib.import_module(f"laddergroups.{m}") for m in LAYERS]
        for layer, names in SPANNED.items():
            home = importlib.import_module(f"laddergroups.{layer}")
            for name in names:
                self._wrap(home, layer, name, modules)
        free = importlib.import_module("laddergroups.presentation").FreeElement
        for op in COUNTED_ONLY:
            setattr(free, op, self._counter(getattr(free, op)))

    def _wrap(self, home, layer: str, name: str, modules) -> None:
        span = ALIASES.get(f"{layer}.{name}", f"{layer}.{name}")
        hook = getattr(self, "_on_" + span.replace(".", "_"), None)
        if "." in name:
            cls_name, meth = name.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._spanned(span, raw.__func__, hook)))
            else:
                setattr(cls, meth, self._spanned(span, raw, hook))
            return
        original = getattr(home, name)
        wrapped = self._spanned(span, original, hook)
        for module in modules:
            if getattr(module, name, None) is original:
                setattr(module, name, wrapped)

    def _spanned(self, span: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [span, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["presentation.free_element.ops"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_job(self, job_id: str, fn, *args):
        """Call fn(*args) inside a root span that tags its spans with job_id."""
        self.job = job_id
        return self._spanned("job", fn, None)(*args)

    # -- value keys for the repeat and duplicate ratios -------------------

    def _key(self, obj, make) -> tuple:
        """Value key of an unhashable config or coloring, cached by
        identity; the object is pinned so its id is never reused."""
        if obj is None:
            return ()
        key = self._keys.get(id(obj))
        if key is None:
            key = make(obj)
            self._keys[id(obj)] = key
            self._pinned.append(obj)
        return key

    def _cfg_key(self, cfg) -> tuple:
        return self._key(cfg, lambda c: (
            c.system, c.psi.describe(),
            tuple(sorted((d.terms, n, v) for (d, n), v in c.coeffs.items())),
        ))

    def _coloring_key(self, coloring) -> tuple:
        return self._key(coloring, lambda c: (
            c.palette, tuple(sorted((d.terms, v) for d, v in c.entries.items())),
        ))

    # -- result hooks (named after the span they follow) -------------------

    def _on_presentation_chain_element(self, args, kwargs, result):
        cfg, delta, n = args[:3]
        coloring = args[3] if len(args) > 3 else kwargs.get("coloring")
        self._distinct["chain_element"].add(
            (self._cfg_key(cfg), delta, n, self._coloring_key(coloring)))
        self._max("presentation.max_denominator_bits", _max_denominator_bits(result))

    def _on_presentation_chain_relation(self, args, kwargs, result):
        self._max("presentation.max_denominator_bits", _max_denominator_bits(result))

    _on_presentation_stage_rewrite = _on_presentation_chain_relation

    def _on_stages_build_stage(self, args, kwargs, result):
        cfg, alpha, depth = args[:3]
        coloring = args[3] if len(args) > 3 else kwargs.get("coloring")
        self._distinct["build_stage"].add(
            (self._cfg_key(cfg), alpha, depth, self._coloring_key(coloring)))
        self.counts["stages.relations_verified"] += len(result.deltas) * result.depth

    def _on_equivalence_level_iso_verify(self, args, kwargs, result):
        self.counts["equivalence.level_checks"] += len(result.level_checks)
        self._max("equivalence.basis_dim.max", len(result.src_basis))

    def _on_splitting_splitting_search(self, args, kwargs, result):
        self.counts["splitting.seeds_tried"] += result.candidates_tried
        self.counts["splitting.searches_found"] += int(result.found)

    _on_splitting_splitting_search_pair = _on_splitting_splitting_search

    def _on_splitting_encode(self, args, kwargs, result):
        self._max("splitting.max_code_bits", result.bit_length())

    def _on_ladders_validate_special(self, args, kwargs, result):
        self._distinct["validated_ladders"].add(args[0])

    def _on_cli_run_scenario(self, args, kwargs, result):
        self.counts["cli.checks"] += result["total"]
        self.counts["cli.checks_failed"] += result["total"] - result["passed"]

    def _max(self, name: str, value: int) -> None:
        if value > self.counts[name]:
            self.counts[name] = value

    def counters(self) -> dict:
        """Counts and maxima of this process, with the distinct-key sizes."""
        out = dict(self.counts)
        for name, keys in self._distinct.items():
            out[f"distinct.{name}"] = len(keys)
        return out


MAXIMA = frozenset({"equivalence.basis_dim.max", "presentation.max_denominator_bits",
                    "splitting.max_code_bits"})


def merge_counters(total: dict, part: dict) -> None:
    """Add one process's counters into `total`; maxima take the larger."""
    for key, value in part.items():
        if key in MAXIMA:
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


# ---------------------------------------------------------------------------
# metrics from spans


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the part its child spans cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _outermost_inclusive(spans: list, names) -> float:
    """Inclusive time of the spans in `names` that have no ancestor in
    `names`, so nested calls are not counted twice."""
    total = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics named by the benchmark, with how each one is computed
# from the span table (calls, s, self_s) or the counters.
CALLS = (
    "equivalence.invert_level_iso", "equivalence.level_iso_verify",
    "presentation.chain_element", "presentation.chain_relation",
    "presentation.stage_rewrite", "presentation.verify_hom",
    "stages.build_stage", "stages.projection",
    "splitting.build_twisted", "splitting.splitting_search_pair",
    "splitting.encode", "splitting.decode",
    "ladders.validate_special", "ladders.omega_range",
    "ordinals.parse_ordinal", "ordinals.format_ordinal",
)
SELF_S = (
    "equivalence.invert_level_iso", "equivalence.level_iso_verify",
    "presentation.chain_element", "presentation.chain_relation",
    "presentation.stage_rewrite", "presentation.verify_hom",
    "stages.build_stage", "stages.projection",
    "splitting.build_twisted", "splitting.parity_obstruction",
    "splitting.extend_hom", "splitting.recover_uniformization",
    "cli.run_scenario",
)
INCLUSIVE_S = (
    "equivalence.level_iso_build", "equivalence.disjointify", "equivalence.overlap_check",
    "splitting.splitting_search_pair", "splitting.splitting_search",
    "splitting.encode", "splitting.decode", "splitting.greedy_uniformize",
    "ladders.validate_special", "ladders.omega_range",
    "ordinals.parse_ordinal", "ordinals.format_ordinal", "cli.render_report",
)
COUNTERS = (
    "equivalence.level_checks", "equivalence.basis_dim.max",
    "presentation.free_element.ops", "presentation.max_denominator_bits",
    "stages.relations_verified", "splitting.seeds_tried", "splitting.max_code_bits",
    "cli.checks", "cli.checks_failed",
)


def layer_metrics(spans: list, counters: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit)."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_by_name: dict[str, float] = defaultdict(float)
    for (name, *_), own in zip(spans, selfs):
        calls[name] += 1
        self_by_name[name] += own
    out: dict[str, tuple[float, str]] = {}
    for name in CALLS:
        out[f"{name}.calls"] = (calls[name], "count")
    for name in SELF_S:
        out[f"{name}.self_s"] = (self_by_name[name], "s")
    for name in INCLUSIVE_S:
        out[f"{name}.s"] = (_outermost_inclusive(spans, {name}), "s")
    out["ladders.build.s"] = (_outermost_inclusive(spans, LADDER_BUILDERS), "s")
    for name in COUNTERS:
        out[name] = (counters.get(name, 0), "count")
    out["presentation.chain_element.repeat_ratio"] = (
        _ratio(calls["presentation.chain_element"], counters.get("distinct.chain_element", 0)),
        "ratio")
    out["stages.build_stage.dup_ratio"] = (
        _ratio(calls["stages.build_stage"], counters.get("distinct.build_stage", 0)), "ratio")
    out["ladders.validations_per_ladder"] = (
        _ratio(calls["ladders.validate_special"], counters.get("distinct.validated_ladders", 0)),
        "ratio")
    out["splitting.search_yield"] = (
        _ratio(counters.get("splitting.searches_found", 0), counters.get("splitting.seeds_tried", 0)),
        "ratio")
    job_total = sum(end - start for name, start, end, _, _ in spans if name == "job")
    for layer in LAYERS:
        own = sum(t for (name, *_), t in zip(spans, selfs) if name.startswith(layer + "."))
        out[f"{layer}.self_share"] = (_ratio(own, job_total), "ratio")
    return out


def per_call_seconds(spans: list, name: str) -> float:
    """Median inclusive time of one call of `name`."""
    durations = [end - start for n, start, end, _, _ in spans if n == name]
    return statistics.median(durations) if durations else 0.0
