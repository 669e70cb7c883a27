import dataclasses
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
from laddergroups.ordinals import ZERO, format_ordinal, nat, omega_power, parse_ordinal, plus_omega
from laddergroups.presentation import (
    ConfigError,
    FactorialPsi,
    FreeElement,
    Generator,
    GeneratorMap,
    GroupConfig,
    HomReport,
    MapDomainError,
    ScopeError,
    TablePsi,
    WGEN,
    basis_order,
    block_element,
    chain_element,
    chain_relation,
    chain_table,
    gauss_jordan,
    generator_level,
    membership,
    relation_label,
    stage_rewrite,
    verify_hom,
    xgen,
    ygen,
)
from laddergroups.splitting import Coloring
from laddergroups.stages import (
    StageGroup,
    build_stage,
    filtration_subgroup,
    freeness_basis,
    projection,
)
from test_presentation import FractionElement, FractionMap

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


def test_formal_relations_built_once_per_stage(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return chain_relation(*args)

    monkeypatch.setattr(stages, "chain_relation", counted)
    sg = two_delta_stage(depth=4)
    relations = sg.formal_relations()
    assert len(calls) == len(relations) == 2 * 4
    assert sg.formal_relations() is relations
    assert len(calls) == 8
    by_hand = StageGroup(sg.cfg, sg.alpha, sg.depth)
    assert by_hand.formal_relations() == relations
    assert len(calls) == 16
    assert relations == [
        (relation_label(d, n), chain_relation(sg.cfg, d, n, None))
        for d in sg.deltas for n in range(sg.depth)
    ]


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


def test_freeness_basis_rejects_a_twisted_stage_up_front():
    alpha = parse_ordinal("w^2+1")
    sys = LadderSystem.build(alpha, {W2: make_simple_special(W2, 8)})
    coloring = Coloring({W2: (0, 1, 0, 1, 1, 0)}, 2)
    sg = build_stage(GroupConfig.all_ones(sys), alpha, 6, coloring=coloring)
    with pytest.raises(ScopeError) as err:
        freeness_basis(sg, (ygen(W2, 2),))
    assert str(err.value) == "freeness bases are defined on untwisted stages"


SHALLOW = "stage too shallow for the requested closure; increase depth"


def _freeness_oracle(sg, T):
    """freeness_basis as it was before its coordinates came from
    hom_from_basis: every closure element rewritten over the basis at mstar
    through the stage's chain table, and the basis keys' rank by
    elimination.  One guard is new: a closure generator outside the stage
    raises the shallow-stage ConfigError."""
    if sg.coloring is not None:
        raise ScopeError("freeness bases are defined on untwisted stages")
    cfg = sg.cfg
    for g in T:
        if g not in sg._scope:
            raise ScopeError(f"{g} outside stage scope")
    touched = sorted({g.ordinal for g in T if g.kind == "y"})
    if not touched:
        basis = tuple(basis_order(set(T)))
        return stages.FreenessBasis(basis, 0, 0, basis, True, ())
    m = max(g.index for g in T if g.kind == "y")
    for g in T:
        if g.kind != "x":
            continue
        for d in touched:
            sl = cfg.system.ladder(d)
            if g.ordinal in sl.entries:
                pos = sl.entries.index(g.ordinal)
                # entries before the first breakpoint are covered by any cut
                if pos >= sl.k(0):
                    m = max(m, sl.block_of_position(pos))
    mstar = m if cfg.psi(m) == 1 else m + 1
    if mstar > sg.depth or m + 1 > min(cfg.system.ladder(d).block_count for d in touched):
        raise ConfigError("stage too shallow for the requested closure; increase depth")
    closure: set[Generator] = set(T)
    basis: set[Generator] = {g for g in T if g.kind == "x"}
    for d in touched:
        sl = cfg.system.ladder(d)
        closure.update(ygen(d, n) for n in range(mstar + 1))
        closure.update(xgen(b) for b in sl.entries[: sl.k(m + 1)])
        basis.add(ygen(d, mstar))
        basis.update(xgen(b) for b in sl.entries[: sl.k(m + 1)])
    if not closure <= sg._scope:
        raise ConfigError(SHALLOW)
    problems = []
    basis_sorted = tuple(basis_order(basis))
    for g in basis_order(closure):
        coords = sg.rewrite(sg.realize(g), mstar)
        den, nums = coords.integer_form()
        for key in coords.support():
            if nums[key] % den:
                problems.append(f"{g} has fractional coordinate over the basis")
                break
            if key not in basis:
                problems.append(f"{g} touches {key} outside the basis")
                break
    if len(basis_sorted) != _oracle_rank(sg, basis_sorted, mstar):
        problems.append("basis is linearly dependent")
    return stages.FreenessBasis(
        basis_sorted,
        m,
        mstar,
        tuple(basis_order(closure)),
        not problems,
        tuple(problems),
    )


def _oracle_rank(sg, keys, depth):
    """Rank over the rationals of the concrete vectors behind the keys, read
    off their integer numerators."""
    rows = [sg.rewrite(sg.realize(g), depth).integer_form()[1] for g in keys]
    return gauss_jordan(rows, basis_order({k for row in rows for k in row}))[1]


def test_freeness_closure_past_the_stage_depth_asks_for_depth():
    # psi(3) = 1 keeps the basis chain index at the stage depth 3, but the
    # closure needs block 3's x generator, which lies outside the stage
    alpha = parse_ordinal("w^2+1")
    sys = LadderSystem.build(alpha, {W2: make_simple_special(W2, 8)})
    cfg = GroupConfig.all_ones(sys, TablePsi((2, 3, 1, 1, 2, 1, 1, 1)))
    sg = build_stage(cfg, alpha, 3)
    for fn in (freeness_basis, _freeness_oracle):
        with pytest.raises(ConfigError) as err:
            fn(sg, (ygen(W2, 3),))
        assert str(err.value) == SHALLOW
    # one block deeper the same closure is certified
    assert freeness_basis(build_stage(cfg, alpha, 4), (ygen(W2, 3),)).ok


def test_freeness_basis_reports_each_problem(monkeypatch):
    alpha = parse_ordinal("w^2+1")
    sys = LadderSystem.build(alpha, {W2: make_simple_special(W2, 8)})
    sg = build_stage(GroupConfig.all_ones(sys), alpha, 6)
    T = (ygen(W2, 2),)
    # the basis keys are y(w^2, 3) and the x generators of blocks 0 to 2
    far = xgen(sys.ladder(W2).entries[5])
    solve = StageGroup.hom_from_basis

    def skewed(stage, images):
        gmap = solve(stage, images)
        for n, scale in ((0, Fraction(1, 2)), (1, 1)):
            key = ygen(W2, n)
            gmap.images[key] = gmap.images[key].scale(scale) + FreeElement.single(far)
        return gmap

    with monkeypatch.context() as patch:
        patch.setattr(StageGroup, "hom_from_basis", skewed)
        fb = freeness_basis(sg, T)
    # halved, y(w^2, 0) is fractional at x[1] before it touches far
    assert fb.problems == (f"{ygen(W2, 0)} has fractional coordinate over the basis",
                           f"{ygen(W2, 1)} touches {far} outside the basis")
    assert not fb.ok
    # a basis chain element realized without its seed is not certified
    chain, seed = sg.realize(ygen(W2, 3)), ygen(W2, 0)
    seedless = dataclasses.replace(
        sg, chains={**sg.chains, ygen(W2, 3): chain - FreeElement.single(seed, chain.coeff(seed))})
    fb = freeness_basis(seedless, T)
    assert fb.problems == ("basis independence not certified by the seeds",)


def test_freeness_basis_neither_rewrites_nor_eliminates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("freeness_basis rewrote an element")

    monkeypatch.setattr(StageGroup, "rewrite", refuse)
    monkeypatch.setattr(stages, "rewrite_over_chains", refuse)
    assert not hasattr(stages, "gauss_jordan")
    sg = two_delta_stage(depth=6)
    fb = freeness_basis(sg, (ygen(W2, 2), ygen(W2_2, 4), xgen(sg.x_indices[0])))
    assert fb.ok and fb.basis_chain_index == 5


def _as_oracle(e):
    """e as a Fraction-backed oracle element, read off its coefficients."""
    return FractionElement(dict(e.items()))


def _block_oracle(cfg, delta, n, twist=None):
    betas = cfg.block_x_indices(delta, n)
    out = {xgen(b): Fraction(a) for a, b in zip(cfg.coeff(delta, n), betas)}
    if twist:
        out[WGEN] = Fraction(twist)
    return FractionElement(out)


def _chain_element_oracle(cfg, delta, n, coloring=None):
    """The closed form summed block by block in Fraction arithmetic, each
    weight a fresh product psi(i)...psi(n-1)."""
    out = FractionElement.single(ygen(delta, 0), Fraction(1, cfg.psi_product(0, n)))
    for i in range(n):
        twist = coloring.color(delta, i) if coloring is not None else None
        blk = _block_oracle(cfg, delta, i, twist)
        out = out + blk.scale(Fraction(1, cfg.psi_product(i, n)))
    return out


def _verify_hom_oracle(gmap, relations):
    """Every relation's image built in Fraction arithmetic through the
    oracle's map application."""
    omap = FractionMap({g: _as_oracle(img) for g, img in gmap.images.items()})
    failures = []
    for label, rel in relations:
        image = omap.apply(_as_oracle(rel))
        if not image.is_zero:
            failures.append((label, str(image)))
    return HomReport(not failures, tuple(failures))


def _chain_relation_oracle(cfg, delta, n, coloring=None):
    """psi(n) * y(delta, n+1) - y(delta, n) - block(n) in Fraction
    arithmetic."""
    twist = coloring.color(delta, n) if coloring is not None else None
    hi = FractionElement.single(ygen(delta, n + 1), cfg.psi(n))
    return hi - FractionElement.single(ygen(delta, n)) - _block_oracle(cfg, delta, n, twist)


def _stage_rewrite_oracle(cfg, depth, e, coloring=None):
    """Basis coordinates summed in Fraction arithmetic, term by term in
    basis order."""
    out = {}

    def bump(g, q):
        out[g] = out.get(g, Fraction(0)) + q

    for g, q in e.items():
        if g.kind == "x":
            bump(g, q)
        elif g.kind == "w":
            if coloring is None:
                raise ScopeError("twist generator outside a twisted stage")
            bump(WGEN, q)
        else:
            if g.index != 0:
                raise ScopeError(
                    f"{g} is a formal chain symbol, not an element of the group span"
                )
            delta = g.ordinal
            try:
                cfg.system.ladder(delta)
            except KeyError:
                raise ScopeError(f"{g} indexed outside the ladder system") from None
            p_i = 1  # P(0, i)
            for i in range(depth):
                coeffs = cfg.coeff(delta, i)
                for a, beta in zip(coeffs, cfg.block_x_indices(delta, i)):
                    bump(xgen(beta), -q * p_i * a)
                if coloring is not None:
                    c = coloring.color(delta, i)
                    if c:
                        bump(WGEN, -q * p_i * c)
                p_i *= cfg.psi(i)
            bump(ygen(delta, depth), q * p_i)
    return FractionElement(out)


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ScopeError, ConfigError, MapDomainError) as exc:
        return type(exc), str(exc)


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
    # the stage's table is the walked one, entry for entry
    assert sg.chains == {ygen(d, n): e for d in sg.deltas
                         for n, e in enumerate(chain_table(cfg, d, depth, coloring))}
    for g in sg.presentation_generators():
        if g.kind == "y":
            expect = chain_element(cfg, g.ordinal, g.index, coloring)
            assert _as_oracle(expect) == _chain_element_oracle(cfg, g.ordinal, g.index, coloring)
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
    exact = stages.chain_table

    def perturbed(cfg, delta, depth, coloring=None):
        table = exact(cfg, delta, depth, coloring)
        if delta == W2_2:
            table[3] = table[3] + FreeElement.single(xgen(nat(1)))
        return table

    monkeypatch.setattr(stages, "chain_table", perturbed)
    with pytest.raises(ConfigError, match=r"relation g\[w\^2\*2,2\] does not close"):
        two_delta_stage(depth=5)


def _perturbations(sg):
    """Strategies for a chain element replacing chain(delta, n): an x (or w)
    entry moved, the seed numerator moved off 1, or the element scaled, so
    that its row may lose a common factor with its denominator."""
    keys = [xgen(b) for b in sg.x_indices] + ([WGEN] if sg.coloring is not None else [])

    def seed_moved(e, j):
        seed = next(g for g in e.integer_form()[1] if g.kind == "y")
        return e + FreeElement.single(seed, Fraction(j, e.integer_form()[0]))

    return [
        st.builds(lambda g, q: lambda e: e + FreeElement.single(g, q),
                  st.sampled_from(keys), nonzero_fractions),
        st.builds(lambda j: lambda e: seed_moved(e, j),
                  st.integers(-3, 3).filter(bool)),
        st.builds(lambda q: lambda e: e.scale(q),
                  nonzero_fractions.filter(lambda q: q != 1)),
    ]


@settings(max_examples=150, deadline=None)
@given(random_stages(), st.data())
def test_relation_check_matches_the_verify_hom_oracle(stage_args, data):
    cfg, alpha, depth, coloring = stage_args
    sg = build_stage(cfg, alpha, depth, coloring=coloring)
    chains = dict(sg.chains)
    if depth and data.draw(st.booleans()):
        d = data.draw(st.sampled_from(sg.deltas))
        key = ygen(d, data.draw(st.integers(0, depth)))
        chains[key] = data.draw(st.one_of(_perturbations(sg)))(chains[key])
    stage = StageGroup(cfg, alpha, depth, coloring, sg.x_indices, chains)
    relations = stage.formal_relations()
    failures = verify_hom(stage.realization(), relations).failures
    expect = (failures[0][0], dict(relations)[failures[0][0]]) if failures else None
    assert stages._open_relation(stage) == expect


def test_relation_check_sees_every_perturbed_row_where_psi_is_one():
    # where psi(n) = 1 the rows n and n+1 share their denominator; the check
    # must still see row n doubled, negated or with its seed moved by one
    alpha = parse_ordinal("w^2+1")
    sys = LadderSystem.build(alpha, {W2: make_block_special(W2, 6)})
    cfg = GroupConfig.alternating(sys, TablePsi((1, 1, 2, 1, 3, 1)))
    sg = build_stage(cfg, alpha, 5)
    assert stages._open_relation(sg) is None
    for n in range(6):
        for change in (lambda e: e.scale(2), lambda e: e.scale(-1),
                       lambda e: e + FreeElement.single(ygen(W2, 0), 1)):
            chains = dict(sg.chains)
            chains[ygen(W2, n)] = change(chains[ygen(W2, n)])
            stage = StageGroup(cfg, alpha, 5, None, sg.x_indices, chains)
            first = sg.formal_relations()[max(n - 1, 0)]
            assert stages._open_relation(stage) == first


def _short_psi_config():
    alpha = parse_ordinal("w^2+1")
    sys = LadderSystem.build(alpha, {W2: make_simple_special(W2, 6)})
    return GroupConfig.all_ones(sys, TablePsi((1, 2))), alpha


def test_chain_table_names_the_lowest_missing_psi_entry():
    cfg, alpha = _short_psi_config()
    with pytest.raises(ConfigError, match="psi table has no entry for n = 2$"):
        chain_table(cfg, W2, 5)
    with pytest.raises(ConfigError, match="psi table has no entry for n = 2$"):
        build_stage(cfg, alpha, 5)
    with pytest.raises(ConfigError, match="psi table has no entry for n = 2$"):
        chain_element(cfg, W2, 5)
    with pytest.raises(ConfigError, match="psi table has no entry for n = 2$"):
        stage_rewrite(cfg, 5, FreeElement.single(ygen(W2, 0)))
    assert chain_table(cfg, W2, 2) == [chain_element(cfg, W2, n) for n in range(3)]


nonzero_fractions = st.builds(
    Fraction, st.integers(1, 6) | st.integers(-6, -1), st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(random_stages(), st.data())
def test_verify_hom_matches_fraction_oracle(stage_args, data):
    cfg, alpha, depth, coloring = stage_args
    sg = build_stage(cfg, alpha, depth, coloring=coloring)
    relations = sg.formal_relations()
    assert [_as_oracle(rel) for _, rel in relations] == [
        _chain_relation_oracle(cfg, d, n, coloring) for d in sg.deltas for n in range(depth)]
    realization = sg.realization()
    assert verify_hom(realization, relations) == _verify_hom_oracle(realization, relations)
    assert verify_hom(realization, relations).ok
    gens = sg.presentation_generators()
    g, h = data.draw(st.sampled_from(gens)), data.draw(st.sampled_from(gens))
    q = data.draw(nonzero_fractions)
    images = dict(realization.images)
    images[g] = images[g] + FreeElement.single(h, q)
    tampered = GeneratorMap(images)
    report = verify_hom(tampered, relations)
    assert report == _verify_hom_oracle(tampered, relations)
    del images[g]
    missing = GeneratorMap(images)
    assert _outcome(verify_hom, missing, relations) == _outcome(
        _verify_hom_oracle, missing, relations)


@settings(max_examples=60, deadline=None)
@given(random_stages(), st.data())
def test_stage_rewrite_matches_fraction_oracle(stage_args, data):
    cfg, alpha, depth, coloring = stage_args
    sg = build_stage(cfg, alpha, depth, coloring=coloring)
    spanned = [g for g in sg.presentation_generators() if g.kind != "y" or g.index == 0]
    terms = data.draw(st.lists(st.tuples(st.sampled_from(spanned), nonzero_fractions),
                               max_size=6))
    e = FreeElement()
    for g, q in terms:
        e = e + FreeElement.single(g, q)
    for d in sg.deltas:
        e = e + FreeElement.single(ygen(d, 0), data.draw(nonzero_fractions))
    for rewrite_depth in range(depth + 1):
        expect = _stage_rewrite_oracle(cfg, rewrite_depth, e, coloring)
        assert _as_oracle(stage_rewrite(cfg, rewrite_depth, e, coloring)) == expect
        # the stage reads the same coordinates from its chain table
        assert _as_oracle(sg.rewrite(e, rewrite_depth)) == expect
    # a formal chain symbol, or w outside a twisted stage, fails the same way
    chain_symbols = [ygen(d, n) for d in sg.deltas for n in range(1, depth + 1)]
    outside = chain_symbols + ([WGEN] if coloring is None else [])
    if outside:
        bad = e + FreeElement.single(data.draw(st.sampled_from(outside)),
                                     data.draw(nonzero_fractions))
        outcome = _outcome(stage_rewrite, cfg, rewrite_depth, bad, coloring)
        assert outcome == _outcome(_stage_rewrite_oracle, cfg, rewrite_depth, bad, coloring)
        assert outcome == _outcome(sg.rewrite, bad, rewrite_depth)
        assert outcome[0] is ScopeError


def test_stage_rewrite_raises_the_oracle_error_of_the_first_bad_generator():
    sg = two_delta_stage(depth=4)
    seed, far_seed = ygen(W2, 0), ygen(W2_2, 0)
    for e in (
        FreeElement({far_seed: 1, ygen(W2_2, 2): 1, ygen(W2, 3): 1, WGEN: 1}),
        FreeElement({WGEN: 2, ygen(W2_2, 1): 1, seed: 1}),
        FreeElement({WGEN: 2, seed: Fraction(1, 3)}),
        FreeElement({ygen(parse_ordinal("w^2*3"), 0): 1, ygen(W2_2, 1): 1}),
    ):
        outcome = _outcome(stage_rewrite, sg.cfg, 4, e)
        assert outcome[0] is ScopeError
        assert outcome == _outcome(_stage_rewrite_oracle, sg.cfg, 4, e)


def test_integer_kernels_match_fraction_oracles_on_a_twisted_table_psi_stage():
    alpha = parse_ordinal("w^2*2+1")
    sys = LadderSystem.build(
        alpha, {W2: make_block_special(W2, 6), W2_2: make_simple_special(W2_2, 6)})
    cfg = GroupConfig.alternating(sys, TablePsi((2, 3, 1, 4, 6, 5)))
    coloring = Coloring({W2: (1, 0, 1, 1, 0), W2_2: (0, 1, 1, 0, 1)}, 2)
    sg = build_stage(cfg, alpha, 5, coloring=coloring)
    for g in sg.presentation_generators():
        if g.kind == "y":
            assert _as_oracle(sg.realize(g)) == _chain_element_oracle(
                cfg, g.ordinal, g.index, coloring)
    mixed = FreeElement({ygen(W2, 0): Fraction(-3, 4), ygen(W2_2, 0): Fraction(5, 6),
                         xgen(sg.x_indices[2]): Fraction(1, 9), WGEN: Fraction(7, 2)})
    for depth in range(sg.depth + 1):
        for e in (FreeElement.single(ygen(W2, 0)), FreeElement.single(ygen(W2_2, 0)), mixed):
            assert _as_oracle(stage_rewrite(cfg, depth, e, coloring)) == _stage_rewrite_oracle(
                cfg, depth, e, coloring)
    relations = sg.formal_relations()
    images = dict(sg.realization().images)
    images[ygen(W2, 3)] = images[ygen(W2, 3)] + FreeElement.single(WGEN, Fraction(2, 5))
    tampered = GeneratorMap(images)
    report = verify_hom(tampered, relations)
    assert report == _verify_hom_oracle(tampered, relations)
    assert [label for label, _ in report.failures] == ["g[w^2*1,2]", "g[w^2*1,3]"]
    # two generators of one relation missing: the error names the first in order
    del images[ygen(W2_2, 1)], images[ygen(W2_2, 0)]
    missing = GeneratorMap(images)
    outcome = _outcome(verify_hom, missing, relations)
    assert outcome == _outcome(_verify_hom_oracle, missing, relations)
    assert outcome == (MapDomainError, repr("generator y[w^2*2,0] outside map domain"))


# ---------------------------------------------------------------------------
# maps given on the stage basis, and the scope of a stage


@settings(max_examples=60, deadline=None)
@given(random_stages())
def test_hom_from_basis_on_the_realized_basis_is_the_realization(stage_args):
    cfg, alpha, depth, coloring = stage_args
    sg = build_stage(cfg, alpha, depth, coloring=coloring)
    gmap = sg.hom_from_basis({k: sg.realize(k) for k in sg.stage_basis()})
    assert gmap.images == sg.realization().images


def test_hom_from_basis_names_a_missing_basis_key():
    sg = two_delta_stage(depth=3)
    images = {k: sg.realize(k) for k in sg.stage_basis() if k != ygen(W2_2, 3)}
    with pytest.raises(MapDomainError, match=r"y\[w\^2\*2,3\]"):
        sg.hom_from_basis(images)


def _projection_oracle(sg, nu):
    """The projection's images as built before maps were given on the stage
    basis: each chain zeroed from its cut and backfilled below it."""
    cfg = sg.cfg
    bound = plus_omega(nu)
    images: dict[Generator, FreeElement] = {}
    gmap = GeneratorMap(images)
    for beta in sg.x_indices:
        g = xgen(beta)
        images[g] = FreeElement.single(g) if beta < bound else FreeElement()
    cuts = []
    for d in sg.deltas:
        if d < nu:
            for n in range(sg.depth + 1):
                images[ygen(d, n)] = sg.realize(ygen(d, n))
            continue
        sl = cfg.system.ladder(d)
        cut = sg.depth
        for n in range(sg.depth):
            if not sl.head(n) < bound:
                cut = n
                break
        cuts.append((format_ordinal(d), cut))
        for n in range(cut, sg.depth + 1):
            images[ygen(d, n)] = FreeElement()
        for n in reversed(range(cut)):
            blk_img = gmap.apply(block_element(cfg, d, n))
            images[ygen(d, n)] = images[ygen(d, n + 1)].scale(cfg.psi(n)) - blk_img
    return gmap, tuple(cuts)


@settings(max_examples=60, deadline=None)
@given(random_stages(), st.data())
def test_projection_matches_the_backfill_oracle(stage_args, data):
    cfg, alpha, depth, _ = stage_args
    sg = build_stage(cfg, alpha, depth)
    levels = {ZERO, alpha}
    for beta in sg.x_indices:
        levels.update((beta, beta.limit_part, beta + nat(1)))
    levels = sorted((nu for nu in levels if nu not in cfg.system.deltas),
                    key=lambda o: o.terms)
    for nu in data.draw(st.lists(st.sampled_from(levels), min_size=1, max_size=4)):
        gmap, rep = projection(sg, nu)
        expect, cuts = _projection_oracle(sg, nu)
        assert gmap.images == expect.images, format_ordinal(nu)
        assert rep.cuts == cuts
        assert rep.ok


def _scope_stage():
    """A stage at level w^2+1 of a system that also has a ladder on w^2*2."""
    sys = LadderSystem.build(
        parse_ordinal("w^2*2+1"),
        {W2: make_simple_special(W2, 10), W2_2: make_simple_special(W2_2, 10)},
    )
    return build_stage(GroupConfig.all_ones(sys), parse_ordinal("w^2+1"), 4)


def test_stage_rewrite_and_membership_reject_generators_outside_the_stage():
    sg = _scope_stage()
    far_x = xgen(parse_ordinal("w*50+1"))
    far_seed = ygen(W2_2, 0)
    for e, named in (
        (FreeElement.single(far_seed), far_seed),
        (FreeElement.single(far_x), far_x),
        (FreeElement({far_seed: 1, far_x: 1, ygen(W2, 0): 1}), far_x),
        (FreeElement({far_seed: Fraction(1, 2), WGEN: 1}), far_seed),
    ):
        for method in (sg.rewrite, sg.membership):
            with pytest.raises(ScopeError) as err:
                method(e)
            assert str(err.value) == f"{named} outside the stage"
    with pytest.raises(ScopeError, match="outside the stage"):
        sg.realize(ygen(W2_2, 1))
    # a seed rewritten past the stage depth has no chain in the stage's table
    with pytest.raises(ScopeError, match=r"y\[w\^2\*1,5\] outside the stage"):
        sg.rewrite(FreeElement.single(ygen(W2, 0)), sg.depth + 1)
    # the stage's own generators rewrite as before
    inside = FreeElement({ygen(W2, 0): 1, xgen(sg.x_indices[-1]): 2})
    assert sg.rewrite(inside) == stage_rewrite(sg.cfg, 4, inside)
    assert sg.membership(inside).in_group


def test_stage_scope_keeps_the_chain_symbol_and_twist_errors_in_basis_order():
    sg = _scope_stage()
    far_seed = ygen(W2_2, 0)
    for e, message in (
        (FreeElement({far_seed: 1, ygen(W2, 2): 1}),
         "y[w^2*1,2] is a formal chain symbol, not an element of the group span"),
        (FreeElement({far_seed: 1, ygen(W2_2, 1): 1}), "y[w^2*2,0] outside the stage"),
        (FreeElement({ygen(W2, 0): 1, WGEN: 1}), "twist generator outside a twisted stage"),
    ):
        for method in (sg.rewrite, sg.membership):
            with pytest.raises(ScopeError) as err:
                method(e)
            assert str(err.value) == message


def test_free_rewrite_and_membership_cover_the_whole_system():
    sg = _scope_stage()
    for g in (ygen(W2_2, 0), xgen(parse_ordinal("w*50+1"))):
        assert membership(sg.cfg, sg.depth, FreeElement.single(g)).in_group
        assert not stage_rewrite(sg.cfg, sg.depth, FreeElement.single(g)).is_zero


# ---------------------------------------------------------------------------
# freeness bases against the rewrite-and-rank oracle


LADDER_OFFSETS = (None, ((1, 2),), ((1,), (1, 2)), ((1, 2, 3), (1,)))


@st.composite
def freeness_stages(draw):
    """Untwisted stages on simple and block ladders, with factorial psi or a
    psi table holding 1s, so that the basis chain index can equal the cut."""
    depth = draw(st.integers(0, 6))
    blocks = draw(st.integers(max(depth, 1), 8))
    deltas = draw(st.sampled_from([(W2,), (W2, W2_2)]))
    ladders = {}
    for d in deltas:
        offsets = draw(st.sampled_from(LADDER_OFFSETS))
        ladders[d] = (make_simple_special(d, blocks) if offsets is None
                      else make_block_special(d, blocks, offsets))
    sys = LadderSystem.build(parse_ordinal("w^2*2+1"), ladders)
    if draw(st.booleans()):
        psi = FactorialPsi()
    else:
        psi = TablePsi(tuple(draw(st.lists(st.integers(1, 3), min_size=8, max_size=8))))
    make = draw(st.sampled_from((GroupConfig.all_ones, GroupConfig.alternating)))
    alpha = parse_ordinal(draw(st.sampled_from(("w^2+1", "w^2*2+1"))))
    return build_stage(make(sys, psi), alpha, depth)


@settings(max_examples=200, deadline=None)
@given(freeness_stages(), st.data())
def test_freeness_basis_matches_the_rewrite_and_rank_oracle(sg, data):
    gens = sg.presentation_generators()
    T = tuple(data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3, unique=True)))
    assert _outcome(freeness_basis, sg, T) == _outcome(_freeness_oracle, sg, T)


@settings(max_examples=60, deadline=None)
@given(freeness_stages(), st.data())
def test_a_stage_cut_lower_is_the_stage_built_lower(sg, data):
    mstar = data.draw(st.integers(0, sg.depth))
    low = dataclasses.replace(sg, depth=mstar)
    built = build_stage(sg.cfg, sg.alpha, mstar, extra_x=sg.x_indices)
    assert low.stage_basis() == built.stage_basis()
    assert low.formal_relations() == built.formal_relations()
