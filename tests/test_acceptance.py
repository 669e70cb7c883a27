"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts the criterion itself, so the suite both documents and enforces the
contract.
"""

import random
from fractions import Fraction
from importlib import resources
from itertools import combinations, product
from math import gcd

from laddergroups.cli import render_report, run_scenario
from laddergroups.equivalence import (
    build_matched_stages,
    disjointify,
    level_iso_build,
    level_iso_verify,
    overlap_check,
)
from laddergroups.ladders import (
    LadderSystem,
    companion_same_range,
    make_block_special,
    make_simple_special,
    prefix_special,
)
from laddergroups.ordinals import omega_power, parse_ordinal
from laddergroups.presentation import (
    FreeElement,
    GroupConfig,
    xgen,
    ygen,
)
from laddergroups.splitting import (
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
)
from laddergroups.stages import build_stage, freeness_basis, projection

from test_presentation import expanded_relation

W2 = omega_power(2)
W2_2 = omega_power(2, 2)
W3 = omega_power(3)
DELTAS = (W2, W2_2, W3)


def _report(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def _random_gcd_one(rng: random.Random, t: int) -> tuple[int, ...]:
    while True:
        vec = tuple(rng.randint(-5, 5) for _ in range(t))
        if any(vec) and gcd(*vec) == 1:
            return vec


def _random_system(rng: random.Random, depth: int) -> LadderSystem:
    chosen = rng.sample(DELTAS, rng.randint(1, 3))
    alpha = parse_ordinal("w^3+1")
    ladders = {}
    for d in chosen:
        sizes = tuple(rng.randint(1, 4) for _ in range(depth))
        ladders[d] = companion_same_range(make_simple_special(d, depth), sizes)
    return LadderSystem.build(alpha, ladders)


def test_criterion_1_relation_identity_suite():
    rng = random.Random(1001)
    configs = 0
    ok = True
    while configs < 50:
        depth = rng.randint(4, 12)
        sys = _random_system(rng, depth)
        cfg = GroupConfig.from_rule(
            sys, None, lambda d, n, t: _random_gcd_one(rng, t)
        )
        for d in sys.deltas:
            for n in range(depth):
                ok = ok and expanded_relation(cfg, d, n).is_zero
        configs += 1
    _report(1, "relation identity on 50 random configs", ok and configs >= 50)


def test_criterion_2_separability_witness():
    stages = []
    sys1 = LadderSystem.build(parse_ordinal("w^2+1"), {W2: make_simple_special(W2, 8)})
    stages.append(build_stage(GroupConfig.all_ones(sys1), parse_ordinal("w^2+1"), 6))
    sys2 = LadderSystem.build(
        parse_ordinal("w^2*2+1"),
        {W2: make_block_special(W2, 8), W2_2: make_simple_special(W2_2, 8)},
    )
    stages.append(
        build_stage(GroupConfig.from_rule(sys2, None, lambda d, n, t: (1, -1)[:t] or (1,)),
                    parse_ordinal("w^2*2+1"), 6)
    )
    sys3 = LadderSystem.build(
        parse_ordinal("w^3+1"),
        {W2: make_simple_special(W2, 8), W2_2: make_simple_special(W2_2, 8),
         W3: make_simple_special(W3, 8)},
    )
    stages.append(build_stage(GroupConfig.all_ones(sys3), parse_ordinal("w^3+1"), 6))
    low = ["0", "5", "w*1", "w*1+3", "w*2", "w*2+3", "w*3", "w*4", "w*4+1",
           "w*5+7", "w*6", "w*6+2"]
    high = ["w^2*1+1", "w^2*1+w*3", "w^2*1+w*4+2", "w^2*2+w*1", "w^2*2+w*5+1",
            "w^3*1"]
    ok = True
    for sg in stages:
        checked = 0
        for lit in low + high:
            nu = parse_ordinal(lit)
            if nu in sg.cfg.system.deltas or sg.alpha < nu:
                continue
            _, rep = projection(sg, nu)
            ok = ok and rep.ok
            checked += 1
        ok = ok and checked >= 10
    _report(2, "projection certificates at sampled levels", ok)


def test_criterion_3_freeness_oracle():
    sys = LadderSystem.build(parse_ordinal("w^2+1"), {W2: make_simple_special(W2, 8)})
    cfg = GroupConfig.all_ones(sys)
    sg = build_stage(cfg, parse_ordinal("w^2+1"), 6)
    eta = sys.ladder(W2)
    pool = [
        ygen(W2, 0),
        ygen(W2, 1),
        ygen(W2, 2),
        xgen(eta.entries[0]),
        xgen(eta.entries[2]),
        xgen(eta.entries[4]),
    ]
    ok = True
    for size in range(1, 5):
        for T in combinations(pool, size):
            fb = freeness_basis(sg, T)
            ok = ok and fb.ok
            concrete = [sg.realize(g) for g in T]
            for combo in product(range(-3, 4), repeat=size):
                e = FreeElement()
                for c, v in zip(combo, concrete):
                    e = e + v.scale(c)
                coords = sg.rewrite(e, fb.basis_chain_index)
                integral = coords.integer_form()[0] == 1
                supported = all(k in fb.basis for k in coords.support())
                ok = ok and integral and supported
                # purity: dividing by 2 or 3 lands in the group exactly when
                # it lands in the integer span of the claimed basis
                for k in (2, 3):
                    frac = e.scale(Fraction(1, k))
                    in_group = sg.membership(frac).in_group
                    basis_coords = sg.rewrite(frac, fb.basis_chain_index)
                    in_basis = basis_coords.integer_form()[0] == 1 and all(
                        key in fb.basis for key in basis_coords.support())
                    ok = ok and (in_group == in_basis)
            if not ok:
                break
    _report(3, "freeness basis agrees with brute-force span", ok)


def test_criterion_4_filtration_equivalence():
    rng = random.Random(4004)
    ok = True
    pairs = 0
    while pairs < 20:
        if pairs % 3 == 2:
            deltas = (W2, W2_2)
            alpha = parse_ordinal("w^2*2+1")
        else:
            deltas = (rng.choice(DELTAS),)
            alpha = parse_ordinal("w^3+1")
        depth = 4
        src_sys = LadderSystem.build(
            alpha, {d: make_simple_special(d, depth + 2) for d in deltas}
        )
        dst_sys = LadderSystem.build(
            alpha,
            {
                d: companion_same_range(
                    src_sys.ladder(d),
                    tuple(rng.randint(1, 3) for _ in range(depth + 2)),
                )
                for d in deltas
            },
        )
        cfg_src = GroupConfig.all_ones(src_sys)
        cfg_dst = GroupConfig.from_rule(
            dst_sys, None,
            lambda d, n, t: (1,) + tuple(rng.randint(-3, 3) for _ in range(t - 1)),
        )
        d = disjointify(src_sys)
        src, dst = build_matched_stages(cfg_src, cfg_dst, alpha, depth)
        gmap = level_iso_build(src, dst, d)
        rep = level_iso_verify(gmap, src, dst)
        ok = ok and rep.ok and all(good for _, good in rep.level_checks)
        pairs += 1
    _report(4, "level isomorphisms for 20 range-matched pairs", ok)


def test_criterion_5_disjointification_suite():
    alpha = parse_ordinal("w^2*9")
    deltas = [omega_power(2, k) for k in range(1, 9)]
    sys = LadderSystem.build(
        alpha, {d: make_simple_special(d, 32) for d in deltas}
    )
    d = disjointify(sys)
    ok = d.certified
    sizes = {dd: tuple(1 + (n % 2) for n in range(32)) for dd in deltas}
    dst = LadderSystem.build(
        alpha, {dd: companion_same_range(sys.ladder(dd), sizes[dd]) for dd in deltas}
    )
    ok = ok and overlap_check(sys, dst, d).ok
    ok = ok and overlap_check(sys, sys, d).ok
    # a ladder dipping below its predecessors still certifies after its
    # threshold
    dipped = prefix_special(
        W2_2,
        tuple(parse_ordinal(f"w*{n + 1}+5") for n in range(3))
        + tuple(parse_ordinal(f"w^2*1+w*{n + 1}+1") for n in range(3, 32)),
    )
    sys_dip = LadderSystem.build(alpha, {W2: make_simple_special(W2, 32), W2_2: dipped})
    d_dip = disjointify(sys_dip)
    ok = ok and d_dip.certified and d_dip.thresholds[W2_2] == 3
    _report(5, "disjoint tails and overlap rigidity", ok)


def test_criterion_6_extension_identity():
    rng = random.Random(6006)
    ok = True
    runs = 0
    while runs < 20:
        kind = runs % 3
        if kind == 0:
            sys = LadderSystem.build(parse_ordinal("w^2+1"), {W2: make_block_special(W2, 6)})
        elif kind == 1:
            sys = LadderSystem.build(
                parse_ordinal("w^2*2+1"),
                {W2: make_block_special(W2, 6), W2_2: make_block_special(W2_2, 6)},
            )
        else:
            l1 = make_block_special(W2, 6)
            shared = rng.randint(1, 4)
            tail = tuple(
                parse_ordinal(f"w^2*1+w*{n + 1}+{1 + (k % 2)}")
                for n in range(shared, 6)
                for k in range(2)
            )
            l2 = prefix_special(
                W2_2, l1.entries[: 2 * shared] + tail, tuple(range(0, 13, 2))
            )
            sys = LadderSystem.build(parse_ordinal("w^2*2+1"), {W2: l1, W2_2: l2})
        cfg = GroupConfig.alternating(sys)
        sg = build_stage(cfg, sys.alpha, 6)
        target = IntegerTarget()
        phi = {(d, n): rng.randint(-50, 50) for d in sg.deltas for n in range(6)}
        u = greedy_uniformize(sys, induced_coloring(sg, phi, target), disjointify(sys))
        _, rep = extend_hom(sg, phi, u, target)
        ok = ok and rep.ok and rep.relations_checked == 6 * len(sg.deltas)
        runs += 1
    _report(6, "extension identity for 20 random instances", ok)


def test_criterion_7_uniformization_round_trip():
    rng = random.Random(7007)
    ok = True
    for trial in range(5):
        sys = LadderSystem.build(
            parse_ordinal("w^2*2+1"),
            {W2: make_block_special(W2, 6), W2_2: make_block_special(W2_2, 6)},
        )
        cfg = GroupConfig.alternating(sys)
        sg = build_stage(cfg, sys.alpha, 6)
        target = MarkedBasisTarget()
        c = Coloring(
            {d: tuple(rng.randrange(2) for _ in range(12)) for d in sys.deltas}, 2
        )
        phi = {
            (d, n): target.basis(n, c.color(d, 2 * n), c.color(d, 2 * n + 1))
            for d in sg.deltas
            for n in range(6)
        }
        u = greedy_uniformize(sys, induced_coloring(sg, phi, target), disjointify(sys))
        hom, _ = extend_hom(sg, phi, u, target)
        data, rep = recover_uniformization(sg, c, hom)
        ok = ok and rep.ok
        for d in sys.deltas:
            sl = sys.ladder(d)
            for k in range(data.thresholds[d], 12):
                ok = ok and data.psi[sl.entries[k]] == c.color(d, k)
    _report(7, "uniformization round trip reproduces tail colors", ok)


def test_criterion_8_parity_obstruction():
    sys = LadderSystem.build(parse_ordinal("w^2+1"), {W2: make_block_special(W2, 8)})
    b_data = {(W2, n): (3, 6) for n in range(8)}
    cfg = GroupConfig.from_rule(
        sys, None, lambda d, n, t: choose_annihilator(b_data[(d, n)])
    )
    c1 = Coloring({W2: (0, 0, 1) + (0,) * 13}, 2)
    c2 = Coloring({W2: (0,) * 16}, 2)
    verdict = parity_obstruction(cfg, c1, c2, b_data, sys.alpha, 8, bounds=(1, 5, 25))
    ok = verdict.status == "OBSTRUCTED"
    ok = ok and verdict.nstar == 2 and "2*Delta = -1" in verdict.witness
    ok = ok and all(status == "exhausted" for _, status, _ in verdict.searches)
    ok = ok and [b for b, _, _ in verdict.searches] == [1, 5, 25]
    ts_zero, ex = build_twisted(cfg, c2, sys.alpha, 8)
    found = splitting_search(ts_zero, 25)
    ok = ok and ex.ok and found.found
    _report(8, "parity obstruction with exhaustive searches", ok)


def test_criterion_9_report_determinism():
    options = {"depth": 6, "seed": 0, "bound": 25, "stage": None, "kind": None}
    ok = True
    for name in ("example14-pair.json", "parity-obstruction.json",
                 "uniformize-roundtrip.json"):
        path = str(resources.files("laddergroups.scenarios").joinpath(name))
        for fmt in ("text", "json"):
            a = render_report(run_scenario(path, dict(options)), fmt)
            b = render_report(run_scenario(path, dict(options)), fmt)
            ok = ok and a.encode() == b.encode()
        ok = ok and run_scenario(path, dict(options))["ok"]
    _report(9, "byte-identical scenario reports", ok)
