from fractions import Fraction

import pytest

from laddergroups import splitting
from laddergroups.ladders import LadderSystem, make_block_special
from laddergroups.ordinals import omega_power, parse_ordinal
from laddergroups.presentation import (
    FreeElement,
    GeneratorMap,
    GroupConfig,
    ScopeError,
    WGEN,
    chain_element,
    membership,
    stage_rewrite,
    xgen,
    ygen,
)
from laddergroups.splitting import (
    Coloring,
    build_twisted,
    choose_annihilator,
    parity_obstruction,
    splitting_search,
    zero_coloring,
)
from laddergroups.stages import build_stage, filtration_subgroup

W2 = omega_power(2)
W2_2 = omega_power(2, 2)
ALPHA = parse_ordinal("w^2*2+1")


@pytest.fixture
def twisted_pair():
    sys = LadderSystem.build(
        ALPHA, {W2: make_block_special(W2, 6), W2_2: make_block_special(W2_2, 6)}
    )
    cfg = GroupConfig.alternating(sys)
    c = Coloring({W2: (1, 0, 1, 0, 0, 1), W2_2: (0, 1, 1, 0, 1, 0)}, 2)
    return cfg, c


def test_twisted_chain_realization_satisfies_relations(twisted_pair):
    cfg, c = twisted_pair
    for d in cfg.system.deltas:
        for n in range(6):
            hi = chain_element(cfg, d, n + 1, c).scale(cfg.psi(n))
            lo = chain_element(cfg, d, n, c)
            blk = hi - lo
            # the residue is the block element plus the twist term
            assert blk.coeff(WGEN) == c.color(d, n)


def test_twisted_rewrite_tracks_twist_coordinate(twisted_pair):
    cfg, c = twisted_pair
    z4 = chain_element(cfg, W2, 4, c)
    coords = stage_rewrite(cfg, 4, z4, coloring=c)
    assert coords == FreeElement.single(ygen(W2, 4))
    # the seed picks up the accumulated twist corrections
    seed = FreeElement.single(ygen(W2, 0))
    coords = stage_rewrite(cfg, 3, seed, coloring=c)
    acc = sum(-cfg.psi_product(0, i) * c.color(W2, i) for i in range(3))
    assert coords.coeff(WGEN) == acc


def test_twisted_membership_and_purity(twisted_pair):
    cfg, c = twisted_pair
    w = FreeElement.single(WGEN)
    res = membership(cfg, 4, w, coloring=c)
    assert res.in_group and res.pure_multiple == 1
    res = membership(cfg, 4, w.scale(Fraction(1, 5)), coloring=c)
    assert not res.in_group and res.pure_multiple == 5
    # the twist generator is invisible to untwisted stages
    with pytest.raises(ScopeError):
        membership(cfg, 4, w)


def test_twisted_filtration_carries_twist_everywhere(twisted_pair):
    cfg, c = twisted_pair
    sg = build_stage(cfg, ALPHA, 5, coloring=c)
    for lit in ("0", "w*3", "w^2*1+1"):
        assert WGEN in filtration_subgroup(sg, parse_ordinal(lit))


def test_collapse_is_right_inverse_target(twisted_pair):
    cfg, c = twisted_pair
    ts, ex = build_twisted(cfg, c, ALPHA, 5)
    assert ex.ok
    # canonical x lift composed with the collapse is the identity on x
    for beta in ts.untwisted.x_indices[:4]:
        lift = FreeElement.single(xgen(beta))
        assert ts.collapse.apply(lift) == FreeElement.single(xgen(beta))


def test_collapse_doubling_an_x_generator_is_not_exact(twisted_pair, monkeypatch):
    # the untwisted realization sends its first x generator to twice itself,
    # so the collapse's basis matrix has a 2 on that diagonal entry
    cfg, c = twisted_pair
    exact = splitting.build_stage

    def doubled(cfg, alpha, depth, coloring=None):
        stage = exact(cfg, alpha, depth, coloring=coloring)
        if coloring is None:
            images = dict(stage.realization().images)
            key = xgen(stage.x_indices[0])
            images[key] = images[key].scale(2)
            object.__setattr__(stage, "realization", lambda: GeneratorMap(images))
        return stage

    monkeypatch.setattr(splitting, "build_stage", doubled)
    ts, ex = build_twisted(cfg, c, ALPHA, 5)
    assert ts.collapse.image_of(xgen(ts.untwisted.x_indices[0])) == FreeElement.single(
        xgen(ts.untwisted.x_indices[0]), 2)
    assert not ex.kernel_is_twist_line and not ex.surjective
    assert ex.kernel_pure and not ex.ok


def test_multi_delta_search_and_obstruction():
    sys = LadderSystem.build(
        ALPHA, {W2: make_block_special(W2, 8), W2_2: make_block_special(W2_2, 8)}
    )
    b_data = {}
    for d in sys.deltas:
        for n in range(8):
            b_data[(d, n)] = (2, 4) if d == W2 else (0, 5)
    cfg = GroupConfig.from_rule(
        sys, None, lambda d, n, t: choose_annihilator(b_data[(d, n)])
    )
    # difference confined to the second ladder still obstructs
    c1 = Coloring({W2: (0,) * 16, W2_2: (0, 0, 0, 1) + (0,) * 12}, 2)
    c2 = zero_coloring(sys, 16)
    verdict = parity_obstruction(cfg, c1, c2, b_data, ALPHA, 8, bounds=(2, 8))
    assert verdict.status == "OBSTRUCTED"
    assert verdict.nstar == 3
    assert all(status == "exhausted" for _, status, _ in verdict.searches)
    # the zero coloring splits on both chains simultaneously
    ts, _ = build_twisted(cfg, c2, ALPHA, 8)
    res = splitting_search(ts, 3)
    assert res.found
    assert dict(res.seed_offsets) == {"w^2*1": 0, "w^2*2": 0}


def test_search_reports_failing_chain():
    sys = LadderSystem.build(parse_ordinal("w^2+1"), {W2: make_block_special(W2, 6)})
    cfg = GroupConfig.alternating(sys)
    # a color deep in the chain needs a large seed: the offsets divide by
    # 2! and 3! before absorbing the color, so the least feasible seed is 12
    c = Coloring({W2: (0, 0, 0, 0, 1, 0)}, 2)
    ts, _ = build_twisted(cfg, c, parse_ordinal("w^2+1"), 6)
    res = splitting_search(ts, 11)
    assert not res.found
    assert res.failing_delta == "w^2*1"
    found = splitting_search(ts, 12)
    assert found.found
    assert found.seed_offsets == (("w^2*1", 12),)
