"""Seeded job generators for the three benchmark workloads.

A job is a JSON-ready dict with an ``id`` and a ``kind``:

* ``cli``: one scenario run through ``laddergroups.cli.main``.  The scenario
  is either generated (``scenario``) or one of the shipped files
  (``shipped``); ``args`` holds the extra command-line arguments.
* ``transitive``: one library pipeline certifying that two companions B and
  C of a simple system A are equivalent through A (``spec`` holds the
  systems).

A workload's job list is fixed by the seed.  The seed changes the content
of the inputs (block sizes, coefficients, colorings, levels), never their
depth schedule, so every seed measures the same mix of job sizes.

There is no recorded user traffic for this library.  The sizes are scaled
from the shipped scenarios, the acceptance tests and the depth-8/16/24
baseline configurations in ROADMAP.md.
"""

from __future__ import annotations

import random

WORKLOADS = ("equiv-transitive", "splitting-deep", "scenario-batch")

SHIPPED = ("example14-pair.json", "parity-obstruction.json", "uniformize-roundtrip.json")

DELTAS2 = ("w^2", "w^2*2")
ALPHA2 = "w^2*2+1"
DELTAS3 = ("w^2", "w^2*2", "w^3")
ALPHA3 = "w^3+1"

# The omega-interval carrying block n of the rule-backed ladder on delta is
# BLOCK_LIMIT[delta].format(n + 1); see ladders._rule_for.
BLOCK_LIMIT = {"w^2": "w*{}", "w^2*2": "w^2*1+w*{}", "w^3": "w^2*{}"}

# Full-size and tiny (self-test) parameters.  Tiny runs exist only so the
# benchmark's own tests finish in seconds; their job ids carry the size so
# they never meet the recorded digests.
SIZES = {
    "full": {
        "transitive_depths": (8, 9, 10),
        "obstruct_depth": 16,
        "obstruct_bounds": (1, 5, 25, 625, 15625),
        "roundtrip_depths": (14, 16),
        "batch_variants": 14,
    },
    "tiny": {
        "transitive_depths": (3, 4),
        "obstruct_depth": 5,
        "obstruct_bounds": (1, 5),
        "roundtrip_depths": (4,),
        "batch_variants": 1,
    },
}


def generate(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The job list of a workload for one seed."""
    params = SIZES[size]
    if workload == "equiv-transitive":
        return _transitive_jobs(seed, params, size)
    if workload == "splitting-deep":
        return _splitting_jobs(seed, params, size)
    if workload == "scenario-batch":
        return _batch_jobs(seed, params, size)
    raise ValueError(f"unknown workload {workload!r}")


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(repr((seed,) + salt))


# ---------------------------------------------------------------------------
# equiv-transitive


def _transitive_jobs(seed: int, params: dict, size: str) -> list[dict]:
    return [
        {"id": f"{size}-transitive-d{depth}", "kind": "transitive",
         "spec": _transitive_spec(_rng(seed, "transitive", depth), depth)}
        for depth in params["transitive_depths"]
    ]


def _transitive_spec(rng: random.Random, depth: int) -> dict:
    """Simple source A on three deltas plus two range-matched companions.

    Each block takes its (B, C) size pair from a fixed multiset, and the
    coefficients after each block's leading 1 from a fixed multiset of
    values in [-3, 3], so the matrix order and the number of zero entries
    (which the dense eliminations skip) are the same for every seed at a
    given depth; the seed places the pairs and the coefficients.
    """
    pairs = [(1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (1, 2), (2, 1)]
    companions = {"B": {"block_sizes": {}, "coeffs": {}},
                  "C": {"block_sizes": {}, "coeffs": {}}}
    for delta in DELTAS3:
        blocks = [pairs[n % len(pairs)] for n in range(depth)]
        rng.shuffle(blocks)
        for pos, name in enumerate("BC"):
            sizes = [pair[pos] for pair in blocks]
            companions[name]["block_sizes"][delta] = sizes
            companions[name]["coeffs"][delta] = _leading_ones(rng, sizes)
    return {"alpha": ALPHA3, "deltas": list(DELTAS3), "depth": depth,
            "companions": companions}


def _leading_ones(rng: random.Random, sizes: list[int]) -> list[list[int]]:
    """One coefficient vector per block size, each leading with 1; the
    entries after the 1s are a fixed multiset of values in [-3, 3] that
    the seed places."""
    tail = [v % 7 - 3 for v in range(sum(sizes) - len(sizes))]
    rng.shuffle(tail)
    vectors = []
    for t in sizes:
        vectors.append([1] + tail[: t - 1])
        tail = tail[t - 1:]
    return vectors


# ---------------------------------------------------------------------------
# splitting-deep


def _splitting_jobs(seed: int, params: dict, size: str) -> list[dict]:
    jobs = []
    depth = params["obstruct_depth"]
    for r, rt_depth in enumerate(params["roundtrip_depths"]):
        rng = _rng(seed, "obstruct", r)
        jobs.append(_cli_job(f"{size}-obstruct{r}-d{depth}",
                             _obstruct_scenario(rng, depth, params["obstruct_bounds"],
                                                DELTAS3, ALPHA3, zero_splits=True)))
        rng = _rng(seed, "roundtrip", r)
        jobs.append(_cli_job(f"{size}-roundtrip{r}-d{rt_depth}",
                             _roundtrip_scenario(rng, rt_depth)))
    return jobs


def _cli_job(job_id: str, scenario: dict, fmt: str = "text") -> dict:
    return {"id": job_id, "kind": "cli", "scenario": scenario,
            "args": ["--format", fmt]}


def _paired_system(deltas, alpha: str, blocks: int) -> dict:
    return {"alpha": alpha, "ladders": [
        {"delta": d, "family": "blocks", "blocks": blocks, "offsets": [[1, 2]]}
        for d in deltas
    ]}


def _coloring(colors: dict) -> dict:
    return {"palette": 2, "entries": [{"delta": d, "colors": c} for d, c in colors.items()]}


def _obstruct_scenario(rng, depth, bounds, deltas, alpha, zero_splits, first_diff=2,
                       lift="fixed") -> dict:
    """Two 0/1 colorings agreeing below `first_diff` and differing there on
    one delta; the x lift is (3, 6) on every block, or seeded when
    `lift` is "random"."""
    c2 = {d: [rng.randint(0, 1) for _ in range(depth)] for d in deltas}
    c1 = {d: list(c) for d, c in c2.items()}
    flip = deltas[rng.randrange(len(deltas))]
    c1[flip][first_diff] ^= 1
    if lift == "fixed":
        b = {"values": {d: [[3, 6]] * depth for d in deltas}}
    else:
        b = {"random": {"low": -9, "high": 9}}
    check = {"check": "obstruct", "name": "parity", "system": "s", "depth": depth,
             "c1": "c1", "c2": "c2", "b": b, "bounds": list(bounds),
             "expect": "OBSTRUCTED", "seed": rng.randrange(1 << 30)}
    if zero_splits:
        check["zero_splits"] = True
    return {
        "systems": {"s": _paired_system(deltas, alpha, depth)},
        "colorings": {"c1": _coloring(c1), "c2": _coloring(c2)},
        "checks": [check],
    }


def _roundtrip_scenario(rng, depth: int, recover: bool = True) -> dict:
    """The marked-target extension of a seeded coloring and the recovery of
    its uniformization, as in the shipped uniformize-roundtrip scenario.

    The last block is colored (1, 1) on every delta.  That block asks the
    marked-basis codec for its largest prime index, and the cost of growing
    the prime list depends mostly on that index; fixing it gives every seed
    the same (largest) codec cost at a given depth, and the seed draws the
    other colors."""
    colors = {d: [rng.randint(0, 1) for _ in range(2 * depth - 2)] + [1, 1] for d in DELTAS2}
    check = {"check": "extend", "name": "marked-roundtrip", "group": "g",
             "depth": depth, "target": "marked", "coloring": "c"}
    if recover:
        check["recover"] = True
    return {
        "systems": {"rt": _paired_system(DELTAS2, ALPHA2, depth)},
        "groups": {"g": {"system": "rt", "psi": "factorial", "coeffs": "alternating"}},
        "colorings": {"c": _coloring(colors)},
        "checks": [check],
    }


# ---------------------------------------------------------------------------
# scenario-batch


def _batch_jobs(seed: int, params: dict, size: str) -> list[dict]:
    """Shipped scenarios plus seeded variants of every check kind.

    Each variant draws its shape (ladder families, block sizes, which
    levels, which group coefficients) from a generator that ignores the
    seed, and its content (colorings, coefficient values, offsets inside
    a block, the seeds of randomized checks) from the seed.  So every seed
    has the same job sizes and the median job stays the same job."""
    jobs = []
    for name in SHIPPED:
        for fmt in ("text", "json"):
            jobs.append({"id": f"{size}-shipped-{name}-{fmt}", "kind": "cli",
                         "shipped": name, "args": ["--format", fmt]})
    makers = {
        "validate": _validate_scenario,
        "build": _build_scenario,
        "project": _project_scenario,
        "equiv": _equiv_scenario,
        "uniformize": _uniformize_scenario,
        "extend": _extend_scenario,
        "obstruct": _small_obstruct_scenario,
    }
    for i in range(params["batch_variants"]):
        for kind, make in makers.items():
            shape = _rng("shape", kind, i)
            rng = _rng(seed, "batch", kind, i)
            fmt = ("text", "json")[i % 2]
            jobs.append(_cli_job(f"{size}-v{i}-{kind}", make(shape, rng, i), fmt))
    return jobs


def _block_sizes(shape, blocks: int) -> list[int]:
    return [shape.randint(1, 3) for _ in range(blocks)]


def _prefix_ladder(delta: str, sizes: list[int]) -> dict:
    entries = []
    for n, t in enumerate(sizes):
        limit = BLOCK_LIMIT[delta].format(n + 1)
        entries.extend(f"{limit}+{j}" for j in range(1, t + 1))
    breakpoints = [0]
    for t in sizes:
        breakpoints.append(breakpoints[-1] + t)
    return {"delta": delta, "entries": entries, "breakpoints": breakpoints}


def _rule_ladder(shape, delta: str, blocks: int) -> dict:
    family = shape.choice(("simple", "blocks"))
    if family == "simple":
        return {"delta": delta, "family": "simple", "blocks": blocks}
    offsets = shape.choice(([[1, 2]], [[1], [1, 2]], [[2, 3]], [[1, 2, 3], [1]]))
    return {"delta": delta, "family": "blocks", "blocks": blocks, "offsets": offsets}


def _depth(i: int, low: int = 4, high: int = 8) -> int:
    return low + i % (high - low + 1)


def _validate_scenario(shape, rng, i):
    depth = _depth(i)
    ladders = []
    for delta in DELTAS3:
        if shape.random() < 0.5:
            sizes = _block_sizes(shape, depth)
            rng.shuffle(sizes)
            ladders.append(_prefix_ladder(delta, sizes))
        else:
            ladders.append(_rule_ladder(shape, delta, depth))
    return {"systems": {"s": {"alpha": ALPHA3, "ladders": ladders}},
            "checks": [{"check": "validate", "name": "system", "system": "s"}]}


def _group_spec(shape) -> dict:
    coeffs = shape.choice(("ones", "alternating"))
    return {"system": "s", "psi": "factorial", "coeffs": coeffs}


def _build_scenario(shape, rng, i):
    depth = _depth(i)
    deltas = DELTAS3 if i % 2 else DELTAS2
    alpha = ALPHA3 if i % 2 else ALPHA2
    ladders = [_rule_ladder(shape, d, depth + 1) for d in deltas]
    rng.shuffle(ladders)
    for ladder, delta in zip(ladders, deltas):
        ladder["delta"] = delta
    return {"systems": {"s": {"alpha": alpha, "ladders": ladders}},
            "groups": {"g": _group_spec(shape)},
            "checks": [{"check": "build", "name": "stage", "group": "g", "depth": depth}]}


def _project_scenario(shape, rng, i):
    """Four levels; the shape fixes the block each lies in, the seed the
    offset inside it."""
    depth = _depth(i, 4, 7)
    system = {"alpha": ALPHA2, "ladders": [_rule_ladder(shape, d, depth) for d in DELTAS2]}
    pool = [("0", (None,))]
    pool += [(f"w*{k}", (None,)) for k in range(1, depth + 2)]
    pool += [(f"w*{k}+{{}}", (1, 3, 7)) for k in range(1, depth + 2)]
    pool += [(f"w^2*1+w*{k}", (None,)) for k in range(1, depth + 2)]
    pool += [(f"w^2*1+w*{k}+{{}}", (1, 2)) for k in range(1, depth + 2)]
    picks = sorted(shape.sample(range(len(pool)), 4))
    levels = [pool[p][0].format(rng.choice(pool[p][1])) for p in picks]
    return {"systems": {"s": system}, "groups": {"g": _group_spec(shape)},
            "checks": [{"check": "project", "name": "separability", "group": "g",
                        "depth": depth, "levels": levels}]}


def _equiv_scenario(shape, rng, i):
    """A simple source and a companion; the shape fixes the block sizes,
    the seed the coefficients."""
    depth = _depth(i, 4, 6)
    blocks = depth + 2
    src = {"alpha": ALPHA2, "ladders": [
        {"delta": d, "family": "simple", "blocks": blocks} for d in DELTAS2]}
    sizes = {d: _block_sizes(shape, blocks) for d in DELTAS2}
    coeffs = {d: _leading_ones(rng, sizes[d]) for d in DELTAS2}
    return {
        "systems": {"src": src, "dst": {"companion_of": "src", "block_sizes": sizes}},
        "groups": {"g-src": {"system": "src", "psi": "factorial", "coeffs": "ones"},
                   "g-dst": {"system": "dst", "psi": "factorial", "coeffs": coeffs}},
        "checks": [{"check": "equiv", "name": "pair", "src": "g-src", "dst": "g-dst",
                    "depth": depth}],
    }


def _uniformize_scenario(shape, rng, i):
    depth = _depth(i)
    deltas = DELTAS3 if i % 2 else DELTAS2
    alpha = ALPHA3 if i % 2 else ALPHA2
    colors = {d: [rng.randint(0, 1) for _ in range(2 * depth)] for d in deltas}
    return {"systems": {"s": _paired_system(deltas, alpha, depth)},
            "colorings": {"c": _coloring(colors)},
            "checks": [{"check": "uniformize", "name": "colors", "system": "s",
                        "coloring": "c"}]}


def _extend_scenario(shape, rng, i):
    if i % 2:
        return _roundtrip_scenario(rng, _depth(i, 4, 6), recover=bool(i % 4 == 1))
    depth = _depth(i)
    phi = shape.choice(("unit", {"random": {"low": -9, "high": 9}}))
    return {
        "systems": {"s": _paired_system(DELTAS2, ALPHA2, depth)},
        "groups": {"g": {"system": "s", "psi": "factorial", "coeffs": "alternating"}},
        "checks": [{"check": "extend", "name": "integer-phi", "group": "g",
                    "depth": depth, "phi": phi, "seed": rng.randrange(1 << 30)}],
    }


def _small_obstruct_scenario(shape, rng, i):
    depth = _depth(i)
    bounds = [1, 5, 25][: 1 + i % 3]
    deltas = DELTAS3 if i % 2 else DELTAS2
    alpha = ALPHA3 if i % 2 else ALPHA2
    return _obstruct_scenario(rng, depth, bounds, deltas, alpha,
                              zero_splits=bool(i % 2), first_diff=2 + i % 2,
                              lift="random")
