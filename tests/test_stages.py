import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from laddergroups import stages
from laddergroups.ladders import (
    LadderSystem,
    make_block_special,
    make_simple_special,
)
from laddergroups.ordinals import ZERO, nat, omega_power, parse_ordinal
from laddergroups.presentation import (
    ConfigError,
    FactorialPsi,
    FreeElement,
    GroupConfig,
    ScopeError,
    TablePsi,
    block_element,
    chain_element,
    generator_level,
    membership,
    stage_rewrite,
    xgen,
    ygen,
)
from laddergroups.splitting import Coloring
from laddergroups.stages import (
    build_stage,
    filtration_subgroup,
    freeness_basis,
    projection,
)

W2 = omega_power(2)
W2_2 = omega_power(2, 2)


def two_delta_stage(depth=6):
    alpha = parse_ordinal("w^2*2+1")
    sys = LadderSystem.build(
        alpha,
        {W2: make_simple_special(W2, 10), W2_2: make_simple_special(W2_2, 10)},
    )
    cfg = GroupConfig.all_ones(sys)
    return build_stage(cfg, alpha, depth)


def test_build_empty_system_is_free_on_x():
    alpha = parse_ordinal("w^2+1")
    sys = LadderSystem.build(alpha, {})
    cfg = GroupConfig.all_ones(sys)
    sg = build_stage(cfg, alpha, 4, extra_x=(nat(1), parse_ordinal("w*2")))
    assert sg.formal_relations() == []
    assert all(k.kind == "x" for k in sg.stage_basis())


def test_build_example_presets():
    alpha = parse_ordinal("w^2+1")
    simple = LadderSystem.build(alpha, {W2: make_simple_special(W2, 6)})
    cfg = GroupConfig.all_ones(simple)
    sg = build_stage(cfg, alpha, 5)
    eta = simple.ladder(W2)
    rel = sg.formal_relations()[1][1]
    # psi(n) z_{n+1} = z_n + x at the single ladder position
    assert rel.coeff(xgen(eta.entries[1])) == -1
    paired = LadderSystem.build(alpha, {W2: make_block_special(W2, 6)})
    cfg2 = GroupConfig.alternating(paired)
    sg2 = build_stage(cfg2, alpha, 5)
    nu = paired.ladder(W2)
    rel2 = sg2.formal_relations()[0][1]
    assert rel2.coeff(xgen(nu.entries[0])) == -1
    assert rel2.coeff(xgen(nu.entries[1])) == 1


def test_build_catches_shallow_ladders():
    alpha = parse_ordinal("w^2+1")
    sys = LadderSystem.build(alpha, {W2: make_simple_special(W2, 3)})
    cfg = GroupConfig.all_ones(sys)
    with pytest.raises(ConfigError, match="increase depth"):
        build_stage(cfg, alpha, 5)


def test_build_rejects_negative_depth():
    alpha = parse_ordinal("w^2+1")
    sys = LadderSystem.build(alpha, {W2: make_simple_special(W2, 3)})
    with pytest.raises(ConfigError, match="non-negative"):
        build_stage(GroupConfig.all_ones(sys), alpha, -3)


def test_filtration_subgroup_levels():
    sg = two_delta_stage()
    low = filtration_subgroup(sg, ZERO)
    assert low == ()  # no finite x indices explored
    at_first_delta = filtration_subgroup(sg, W2 + nat(1))
    assert ygen(W2, sg.depth) in at_first_delta
    assert ygen(W2_2, sg.depth) not in at_first_delta
    full = filtration_subgroup(sg, sg.alpha)
    assert set(full) == set(sg.stage_basis())


def test_filtration_monotone_and_union_below_limits():
    sg = two_delta_stage()
    levels = sorted(
        {generator_level(k).terms for k in sg.stage_basis()} | {sg.alpha.terms}
    )
    from laddergroups.ordinals import Ordinal

    previous: set = set()
    for terms in levels:
        current = set(filtration_subgroup(sg, Ordinal(terms)))
        assert previous <= current
        previous = current
    # at a limit level, the strictly-lower part is the union of the earlier
    # explored stages; generators whose level IS the limit enter exactly there
    mu = W2_2
    union = set()
    for terms in levels:
        if Ordinal(terms) < mu:
            union |= set(filtration_subgroup(sg, Ordinal(terms)))
    strictly_below = {
        k for k in filtration_subgroup(sg, mu) if generator_level(k) < mu
    }
    assert union == strictly_below


def test_filtration_purity_on_basis_combinations():
    sg = two_delta_stage(depth=4)
    rng = random.Random(5)
    sub = filtration_subgroup(sg, W2 + nat(1))
    for _ in range(20):
        e = FreeElement()
        for key in sub:
            e = e + sg.realize(key).scale(rng.randint(-3, 3))
        res = sg.membership(e)
        assert res.in_group and res.pure_multiple == 1


# ---------------------------------------------------------------------------
# projections


def test_projection_cut_and_backfill():
    alpha = parse_ordinal("w^2+1")
    sys = LadderSystem.build(alpha, {W2: make_simple_special(W2, 8)})
    cfg = GroupConfig.all_ones(sys)
    sg = build_stage(cfg, alpha, 5)
    nu = parse_ordinal("w*2+5")
    gmap, rep = projection(sg, nu)
    assert rep.ok
    # blocks 0 and 1 survive below nu, so the seed backfills to their sum
    eta = sys.ladder(W2)
    expect = -FreeElement.single(xgen(eta.entries[0])) - FreeElement.single(
        xgen(eta.entries[1])
    )
    assert gmap.image_of(ygen(W2, 0)) == expect
    assert gmap.image_of(ygen(W2, 2)).is_zero


def test_projection_identity_when_nu_above_ladders():
    sg = two_delta_stage(depth=4)
    gmap, rep = projection(sg, sg.alpha)
    assert rep.ok
    for key in sg.stage_basis():
        assert gmap.apply(FreeElement.single(key)) == sg.realize(key)


def test_projection_rejects_ladder_levels():
    sg = two_delta_stage(depth=4)
    with pytest.raises(ScopeError):
        projection(sg, W2)


def test_projection_emits_shifted_closed_form_note():
    alpha = parse_ordinal("w^2+1")
    sys = LadderSystem.build(alpha, {W2: make_simple_special(W2, 8)})
    cfg = GroupConfig.all_ones(sys)
    sg = build_stage(cfg, alpha, 6)
    # cut deep enough that psi(j+1) != psi(j) inside the backfill range
    _, rep = projection(sg, parse_ordinal("w*5+1"))
    assert rep.ok
    assert any("shifted" in note for note in rep.closed_form_notes)


def test_projection_sampled_levels_two_deltas():
    sg = two_delta_stage(depth=5)
    for lit in ["0", "5", "w*1", "w*2+3", "w*4", "w^2*1+1", "w^2*1+w*3", "w^2*2"]:
        nu = parse_ordinal(lit)
        if nu in sg.cfg.system.deltas:
            continue
        _, rep = projection(sg, nu)
        assert rep.ok, (lit, rep)


# ---------------------------------------------------------------------------
# freeness


def test_freeness_single_x():
    sg = two_delta_stage(depth=4)
    beta = sg.x_indices[0]
    fb = freeness_basis(sg, (xgen(beta),))
    assert fb.ok
    assert fb.basis == (xgen(beta),)


def test_freeness_low_chain_pair_keeps_chain_index():
    alpha = parse_ordinal("w^2+1")
    sys = LadderSystem.build(alpha, {W2: make_simple_special(W2, 8)})
    cfg = GroupConfig.all_ones(sys)
    sg = build_stage(cfg, alpha, 6)
    eta = sys.ladder(W2)
    fb = freeness_basis(sg, (ygen(W2, 0), ygen(W2, 1)))
    assert fb.ok
    # psi(1) = 1, so the chain cut stays at 1 and the x cut is breakpoint 2
    assert fb.basis_chain_index == 1
    assert set(fb.basis) == {ygen(W2, 1), xgen(eta.entries[0]), xgen(eta.entries[1])}


def test_freeness_deep_chain_needs_extra_division():
    alpha = parse_ordinal("w^2+1")
    sys = LadderSystem.build(alpha, {W2: make_simple_special(W2, 8)})
    cfg = GroupConfig.all_ones(sys)
    sg = build_stage(cfg, alpha, 6)
    fb = freeness_basis(sg, (ygen(W2, 2),))
    assert fb.ok
    # psi(2) = 2: the pure closure contains chain(3) = (chain(2) + x)/2
    assert fb.basis_chain_index == 3
    half = chain_element(cfg, W2, 3)
    coords = stage_rewrite(cfg, 3, half)
    assert all(q.denominator == 1 for _, q in coords.items())


def test_freeness_two_deltas_disjoint_union():
    sg = two_delta_stage(depth=6)
    fb = freeness_basis(sg, (ygen(W2, 1), ygen(W2_2, 0)))
    assert fb.ok
    ys = [k for k in fb.basis if k.kind == "y"]
    assert {k.ordinal for k in ys} == {W2, W2_2}


def test_freeness_oracle_small_subsets():
    alpha = parse_ordinal("w^2+1")
    sys = LadderSystem.build(alpha, {W2: make_simple_special(W2, 8)})
    cfg = GroupConfig.all_ones(sys)
    sg = build_stage(cfg, alpha, 6)
    eta = sys.ladder(W2)
    pool = [ygen(W2, 0), ygen(W2, 2), xgen(eta.entries[0]), xgen(eta.entries[3])]
    for size in (1, 2, 3):
        for T in combinations(pool, size):
            fb = freeness_basis(sg, T)
            assert fb.ok
            concrete = [sg.realize(g) for g in T]
            for combo in product(range(-2, 3), repeat=size):
                e = FreeElement()
                for c, v in zip(combo, concrete):
                    e = e + v.scale(c)
                coords = stage_rewrite(cfg, fb.basis_chain_index, e)
                assert all(q.denominator == 1 for _, q in coords.items())
                assert all(k in fb.basis for k, _ in coords.items())


def test_projection_dense_level_sweep():
    alpha = parse_ordinal("w^2*2+1")
    sys = LadderSystem.build(
        alpha,
        {W2: make_simple_special(W2, 8), W2_2: make_block_special(W2_2, 8)},
    )
    cfg = GroupConfig.from_rule(sys, None, lambda d, n, t: (1, -1)[:t])
    sg = build_stage(cfg, alpha, 5)
    candidates = set()
    for beta in sg.x_indices:
        candidates.add(beta)
        candidates.add(beta.limit_part)
        candidates.add(beta + nat(1))
    candidates.add(ZERO)
    candidates.add(alpha)
    for nu in sorted(candidates, key=lambda o: o.terms):
        if nu in sys.deltas or sg.alpha < nu:
            continue
        _, rep = projection(sg, nu)
        assert rep.ok, (str(nu), rep)


def test_freeness_deep_x_raises_chain_cut():
    alpha = parse_ordinal("w^2+1")
    sys = LadderSystem.build(alpha, {W2: make_simple_special(W2, 8)})
    cfg = GroupConfig.all_ones(sys)
    sg = build_stage(cfg, alpha, 6)
    eta = sys.ladder(W2)
    fb = freeness_basis(sg, (ygen(W2, 0), xgen(eta.entries[4])))
    assert fb.ok
    # the x at position 4 forces the closure cut past its block
    assert fb.chain_cut == 4
    assert xgen(eta.entries[4]) in fb.basis
    assert all(xgen(eta.entries[p]) in fb.basis for p in range(5))


def test_freeness_with_positive_first_breakpoint():
    # a ladder carrying one entry before its first block
    alpha = parse_ordinal("w^2+1")
    entries = (nat(3),) + tuple(parse_ordinal(f"w*{n + 1}+1") for n in range(7))
    from laddergroups.ladders import prefix_special

    sl = prefix_special(W2, entries, tuple(range(1, 9)))
    sys = LadderSystem.build(alpha, {W2: sl})
    cfg = GroupConfig.all_ones(sys)
    sg = build_stage(cfg, alpha, 5)
    fb = freeness_basis(sg, (ygen(W2, 0), xgen(nat(3))))
    assert fb.ok
    assert xgen(nat(3)) in fb.basis


def _chain_element_oracle(cfg, delta, n, coloring=None):
    """The closed form summed block by block, each weight a fresh product
    psi(i)...psi(n-1)."""
    out = FreeElement.single(ygen(delta, 0), Fraction(1, cfg.psi_product(0, n)))
    for i in range(n):
        twist = coloring.color(delta, i) if coloring is not None else None
        blk = block_element(cfg, delta, i, twist)
        out = out + blk.scale(Fraction(1, cfg.psi_product(i, n)))
    return out


@st.composite
def random_stages(draw):
    depth = draw(st.integers(0, 5))
    deltas = draw(st.sampled_from([(W2,), (W2, W2_2)]))
    alpha = parse_ordinal("w^2*2+1")
    if draw(st.booleans()):
        ladders = {d: make_simple_special(d, 6) for d in deltas}
    else:
        ladders = {d: make_block_special(d, 6) for d in deltas}
    sys = LadderSystem.build(alpha, ladders)
    if draw(st.booleans()):
        psi = FactorialPsi()
    else:
        psi = TablePsi(tuple(draw(st.lists(st.integers(1, 4), min_size=6, max_size=6))))
    if draw(st.booleans()):
        cfg = GroupConfig.all_ones(sys, psi)
    else:
        cfg = GroupConfig.alternating(sys, psi)
    coloring = None
    if draw(st.booleans()):
        colors = st.lists(st.integers(0, 1), min_size=depth, max_size=depth)
        coloring = Coloring({d: tuple(draw(colors)) for d in deltas}, 2)
    return cfg, alpha, depth, coloring


@settings(max_examples=60, deadline=None)
@given(random_stages())
def test_realize_matches_closed_form(stage_args):
    cfg, alpha, depth, coloring = stage_args
    sg = build_stage(cfg, alpha, depth, coloring=coloring)
    for g in sg.presentation_generators():
        if g.kind == "y":
            expect = chain_element(cfg, g.ordinal, g.index, coloring)
            assert expect == _chain_element_oracle(cfg, g.ordinal, g.index, coloring)
        else:
            expect = FreeElement.single(g)
        assert sg.realize(g) == expect, g
    # rewriting each seed over the stage basis and realizing it back
    for d in sg.deltas:
        seed = FreeElement.single(ygen(d, 0))
        rebuilt = FreeElement()
        for key, q in sg.rewrite(seed).items():
            rebuilt = rebuilt + sg.realize(key).scale(q)
        assert rebuilt == seed


def test_realize_rejects_chain_keys_outside_the_stage():
    sg = two_delta_stage(depth=4)
    assert sg.realize(ygen(W2, 4)) == chain_element(sg.cfg, W2, 4)
    with pytest.raises(ScopeError, match="outside the stage"):
        sg.realize(ygen(W2, 5))
    with pytest.raises(ScopeError, match="outside the stage"):
        sg.realize(ygen(parse_ordinal("w^2*3"), 0))


def test_relation_check_sees_a_perturbed_chain_element(monkeypatch):
    exact = stages.chain_element

    def perturbed(cfg, delta, n, coloring=None):
        e = exact(cfg, delta, n, coloring)
        return e + FreeElement.single(xgen(nat(1))) if (delta, n) == (W2_2, 3) else e

    monkeypatch.setattr(stages, "chain_element", perturbed)
    with pytest.raises(ConfigError, match=r"relation g\[w\^2\*2,2\] does not close"):
        two_delta_stage(depth=5)
