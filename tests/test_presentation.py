import dataclasses
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest

from laddergroups.ladders import LadderSystem, make_block_special, make_simple_special
from laddergroups.ordinals import nat, omega_power, parse_ordinal
from laddergroups.presentation import (
    ConfigError,
    FactorialPsi,
    FreeElement,
    Generator,
    GeneratorMap,
    GroupConfig,
    MapDomainError,
    ScopeError,
    TablePsi,
    WGEN,
    block_element,
    chain_element,
    chain_relation,
    generator_level,
    membership,
    stage_rewrite,
    verify_hom,
    xgen,
    ygen,
)

W2 = omega_power(2)
ALPHA = parse_ordinal("w^2+1")


def expanded_relation(cfg, delta, n):
    """chain_relation with the concrete chain elements in place of the
    y symbols: zero exactly when the closed form satisfies the relation."""
    hi = chain_element(cfg, delta, n + 1).scale(cfg.psi(n))
    return hi - chain_element(cfg, delta, n) - block_element(cfg, delta, n)


@pytest.fixture
def simple_cfg():
    sys = LadderSystem.build(ALPHA, {W2: make_simple_special(W2, 10)})
    return GroupConfig.all_ones(sys)


@pytest.fixture
def paired_cfg():
    sys = LadderSystem.build(ALPHA, {W2: make_block_special(W2, 8)})
    return GroupConfig.alternating(sys)


def test_chain_zero_is_seed(simple_cfg):
    assert chain_element(simple_cfg, W2, 0) == FreeElement.single(ygen(W2, 0))


def test_chain_two_factorial(simple_cfg):
    # with 0! = 1! = 1 the first two steps divide by nothing
    expect = (
        FreeElement.single(ygen(W2, 0))
        + FreeElement.single(xgen(parse_ordinal("w*1+1")))
        + FreeElement.single(xgen(parse_ordinal("w*2+1")))
    )
    assert chain_element(simple_cfg, W2, 2) == expect


def test_relation_identity_everywhere(simple_cfg, paired_cfg):
    for cfg in (simple_cfg, paired_cfg):
        for n in range(7):
            assert expanded_relation(cfg, W2, n).is_zero


def test_formal_relation_shape(paired_cfg):
    rel = chain_relation(paired_cfg, W2, 1)
    eta = paired_cfg.system.ladder(W2)
    assert rel.coeff(ygen(W2, 2)) == 1  # psi(1) = 1
    assert rel.coeff(ygen(W2, 1)) == -1
    assert rel.coeff(xgen(eta.entries[2])) == -1
    assert rel.coeff(xgen(eta.entries[3])) == 1


def test_twisted_relation_carries_twist(paired_cfg):
    class OneColor:
        def color(self, delta, n):
            return 1 if n == 0 else 0

        def depth(self, delta):
            return 8

    rel = chain_relation(paired_cfg, W2, 0, coloring=OneColor())
    assert rel.coeff(WGEN) == -1
    untwisted = chain_relation(paired_cfg, W2, 0)
    assert rel + FreeElement.single(WGEN) == untwisted


def test_generator_levels():
    assert generator_level(xgen(nat(5))).is_zero
    assert generator_level(xgen(parse_ordinal("w*3+2"))) == parse_ordinal("w*3")
    assert generator_level(ygen(W2, 4)) == parse_ordinal("w^2+1")
    with pytest.raises(ScopeError):
        generator_level(WGEN)


def test_generator_level_monotone():
    betas = [nat(3), parse_ordinal("w*1+1"), parse_ordinal("w*3+2"), parse_ordinal("w^2*1+1")]
    levels = [generator_level(xgen(b)) for b in betas]
    assert levels == sorted(levels)


def test_stage_rewrite_unrolls_chain(simple_cfg):
    coords = stage_rewrite(simple_cfg, 2, chain_element(simple_cfg, W2, 0))
    eta = simple_cfg.system.ladder(W2)
    assert coords.coeff(ygen(W2, 2)) == 1
    assert coords.coeff(xgen(eta.entries[0])) == -1
    assert coords.coeff(xgen(eta.entries[1])) == -1


def test_stage_rewrite_units(simple_cfg):
    beta = parse_ordinal("w*4+1")
    assert stage_rewrite(simple_cfg, 3, FreeElement.single(xgen(beta))) == FreeElement.single(xgen(beta))
    z3 = chain_element(simple_cfg, W2, 3)
    assert stage_rewrite(simple_cfg, 3, z3) == FreeElement.single(ygen(W2, 3))


def test_stage_rewrite_round_trip(simple_cfg):
    rng = random.Random(11)
    eta = simple_cfg.system.ladder(W2)
    pool = [FreeElement.single(ygen(W2, 0))] + [
        FreeElement.single(xgen(b)) for b in eta.entries[:5]
    ]
    for _ in range(40):
        e = FreeElement()
        for v in pool:
            e = e + v.scale(Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])))
        coords = stage_rewrite(simple_cfg, 4, e)
        rebuilt = FreeElement()
        for key, q in coords.items():
            if key.kind == "y":
                rebuilt = rebuilt + chain_element(simple_cfg, key.ordinal, key.index).scale(q)
            else:
                rebuilt = rebuilt + FreeElement.single(key, q)
        assert rebuilt == e


def test_membership_examples(simple_cfg):
    z3 = chain_element(simple_cfg, W2, 3)
    res = membership(simple_cfg, 3, z3)
    assert res.in_group and res.pure_multiple == 1
    res = membership(simple_cfg, 3, z3.scale(Fraction(1, 2)))
    assert not res.in_group and res.pure_multiple == 2
    e = FreeElement.single(xgen(nat(1))) + FreeElement.single(xgen(nat(2)), Fraction(1, 3))
    res = membership(simple_cfg, 3, e)
    assert not res.in_group and res.pure_multiple == 3


def test_membership_brute_force(simple_cfg):
    # integer combinations of a few stage generators against enumeration
    depth = 3
    eta = simple_cfg.system.ladder(W2)
    gens = [
        chain_element(simple_cfg, W2, depth),
        FreeElement.single(xgen(eta.entries[0])),
        FreeElement.single(xgen(eta.entries[1])),
        FreeElement.single(xgen(eta.entries[2])),
    ]
    span = set()
    for combo in product(range(-3, 4), repeat=len(gens)):
        e = FreeElement()
        for c, g in zip(combo, gens):
            e = e + g.scale(c)
        span.add(e)
    for e in span:
        assert membership(simple_cfg, depth, e).in_group
    # elements off the integer lattice
    half = chain_element(simple_cfg, W2, depth).scale(Fraction(1, 2))
    assert half not in span and not membership(simple_cfg, depth, half).in_group


def test_rewrite_rejects_out_of_scope(simple_cfg):
    with pytest.raises(ScopeError):
        stage_rewrite(simple_cfg, 2, FreeElement.single(ygen(W2, 1)))
    with pytest.raises(ScopeError):
        stage_rewrite(simple_cfg, 2, FreeElement.single(WGEN))
    with pytest.raises(ScopeError):
        stage_rewrite(simple_cfg, 2, FreeElement.single(ygen(omega_power(2, 9), 0)))


def test_verify_hom_identity_and_break(simple_cfg):
    eta = simple_cfg.system.ladder(W2)
    relations = [
        (f"g{n}", chain_relation(simple_cfg, W2, n)) for n in range(4)
    ]
    images = {ygen(W2, n): chain_element(simple_cfg, W2, n) for n in range(5)}
    images.update({xgen(b): FreeElement.single(xgen(b)) for b in eta.entries[:6]})
    assert verify_hom(GeneratorMap(images), relations).ok
    assert verify_hom(GeneratorMap(images), []).ok
    broken = dict(images)
    target = xgen(eta.entries[2])
    broken[target] = FreeElement.single(target, 2)
    rep = verify_hom(GeneratorMap(broken), relations)
    assert [label for label, _ in rep.failures] == ["g2"]


def test_map_domain_is_strict():
    gmap = GeneratorMap({xgen(nat(1)): FreeElement.single(xgen(nat(1)))})
    with pytest.raises(MapDomainError):
        gmap.apply(FreeElement.single(xgen(nat(2))))


def test_config_rejects_bad_coefficients():
    sys = LadderSystem.build(ALPHA, {W2: make_block_special(W2, 4)})
    with pytest.raises(ConfigError, match="gcd"):
        GroupConfig.from_rule(sys, FactorialPsi(), lambda d, n, t: (2,) * t)


def test_canonical_serialization(simple_cfg):
    e = chain_element(simple_cfg, W2, 3).scale(Fraction(1, 2))
    s = str(e)
    assert s == (
        "1/4*x[w*1+1] + 1/4*x[w*2+1] + 1/4*x[w*3+1] + 1/4*y[w^2*1,0]"
    )
    assert str(FreeElement()) == "0"
    assert str(block_element(simple_cfg, W2, 0) - FreeElement.single(xgen(parse_ordinal("w*1+1")), 3)) == "-2*x[w*1+1]"


def test_config_restrict_truncates_blocks(paired_cfg):
    shallow = paired_cfg.restrict(3)
    sl = shallow.system.ladder(W2)
    assert sl.block_count == 3
    assert len(sl.entries) == 6
    assert shallow.coeff(W2, 2) == (1, -1)
    with pytest.raises(ConfigError):
        shallow.coeff(W2, 3)
    # restriction beyond the explored depth is the identity on block counts
    same = paired_cfg.restrict(99)
    assert same.system.ladder(W2).block_count == 8


def test_generator_hash_is_fixed_at_construction_and_matches_equality():
    beta = parse_ordinal("w*3+2")
    a, b = Generator("x", beta), xgen(parse_ordinal("w*3+2"))
    assert a is not b and a == b and hash(a) == hash(b)
    table = {a: 1}
    table[b] += 1
    assert table == {xgen(beta): 2}
    assert ygen(W2, 1) == Generator("y", W2, 1) and hash(ygen(W2, 1)) == hash(Generator("y", W2, 1))
    assert ygen(W2, 1) != ygen(W2, 2) and ygen(W2, 1) != xgen(W2)
    assert [f.name for f in dataclasses.fields(Generator)] == ["kind", "ordinal", "index"]
    assert (str(a), str(ygen(W2, 1)), str(WGEN)) == ("x[w*3+2]", "y[w^2*1,1]", "w")
    assert a.sort_key() == (0, beta.terms, 0)
    assert ygen(W2, 1).sort_key() == (1, W2.terms, 1) and WGEN.sort_key() == (2, (), 0)
    assert Generator("w") == WGEN and hash(Generator("w")) == hash(WGEN)
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and hash(copy) == hash(a)


def test_chain_element_names_the_highest_missing_psi_entry():
    sys = LadderSystem.build(ALPHA, {W2: make_simple_special(W2, 8)})
    cfg = GroupConfig.all_ones(sys, TablePsi((1, 1, 2)))
    with pytest.raises(ConfigError, match=r"no entry for n = 5$"):
        chain_element(cfg, W2, 6)
