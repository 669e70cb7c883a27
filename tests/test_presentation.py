import copy
import dataclasses
import pickle
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from laddergroups.ladders import (
    BlockRule,
    LadderSystem,
    OmegaRange,
    SpecialLadder,
    make_block_special,
    make_simple_special,
    omega_range,
)
from laddergroups.ordinals import Ordinal, nat, omega_power, parse_ordinal
from laddergroups.presentation import (
    ConfigError,
    FactorialPsi,
    FreeElement,
    Generator,
    GeneratorMap,
    GroupConfig,
    MapDomainError,
    Rat,
    ScopeError,
    WGEN,
    basis_order,
    block_element,
    chain_element,
    chain_relation,
    compose_maps,
    generator_level,
    membership,
    stage_rewrite,
    verify_hom,
    xgen,
    ygen,
)

W2 = omega_power(2)
ALPHA = parse_ordinal("w^2+1")


# ---------------------------------------------------------------------------
# The Fraction-backed FreeElement and GeneratorMap.apply that the integer
# representation replaced, kept as the oracle of its arithmetic.


def oracle_key(g: Generator):
    """The basis order as a sort key: x by ordinal, y by (delta, n), then w."""
    if g.kind == "x":
        return (0, g.ordinal, 0)
    if g.kind == "y":
        return (1, g.ordinal, g.index)
    return (2, (), 0)


class FractionElement:
    """Immutable finite rational combination of generators."""

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: dict[Generator, Fraction] | None = None):
        clean = {}
        if coeffs:
            for g, q in coeffs.items():
                if type(q) is not Fraction:
                    q = Fraction(q)
                if q:
                    clean[g] = q
        object.__setattr__(self, "_coeffs", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def single(cls, g: Generator, coeff: Rat = 1) -> "FractionElement":
        return cls({g: Fraction(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, g: Generator) -> Fraction:
        return self._coeffs.get(g, Fraction(0))

    def support(self) -> tuple[Generator, ...]:
        return tuple(sorted(self._coeffs, key=oracle_key))

    def items(self) -> list[tuple[Generator, Fraction]]:
        return sorted(self._coeffs.items(), key=lambda kv: oracle_key(kv[0]))

    def integer_form(self) -> tuple[int, dict[Generator, int]]:
        """(d, nums) with self = sum of nums[g] / d * g, where d is the lcm
        of the coefficient denominators (1 for the zero element)."""
        coeffs = self._coeffs
        d = lcm(*[q.denominator for q in coeffs.values()])
        return d, {g: q.numerator * (d // q.denominator) for g, q in coeffs.items()}

    @classmethod
    def from_numerators(cls, d: int, nums: dict[Generator, int]) -> "FractionElement":
        """The element sum of nums[g] / d * g, for a positive integer d."""
        out = cls.__new__(cls)
        object.__setattr__(out, "_coeffs", {g: Fraction(n, d) for g, n in nums.items() if n})
        object.__setattr__(out, "_hash", None)
        return out

    def __add__(self, other: "FractionElement") -> "FractionElement":
        out = dict(self._coeffs)
        for g, q in other._coeffs.items():
            out[g] = out.get(g, Fraction(0)) + q
        return FractionElement(out)

    def __sub__(self, other: "FractionElement") -> "FractionElement":
        out = dict(self._coeffs)
        for g, q in other._coeffs.items():
            out[g] = out.get(g, Fraction(0)) - q
        return FractionElement(out)

    def __neg__(self) -> "FractionElement":
        return FractionElement({g: -q for g, q in self._coeffs.items()})

    def scale(self, q: Rat) -> "FractionElement":
        q = Fraction(q)
        if not q:
            return FRACTION_ZERO
        return FractionElement({g: q * c for g, c in self._coeffs.items()})

    __rmul__ = scale

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionElement) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(tuple((g, q) for g, q in self.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for g, q in self.items():
            mag = q if q > 0 else -q
            coeff = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
            term = f"{coeff}*{g}"
            if not parts:
                parts.append(term if q > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if q > 0 else f"- {term}")
        return " ".join(parts)

    __repr__ = __str__


FRACTION_ZERO = FractionElement()


@dataclass(frozen=True)
class FractionMap:
    """Finite generator-to-element mapping, extended linearly.

    Application outside the declared domain is a hard error, not zero."""

    images: dict[Generator, FractionElement] = field(repr=False)

    def domain(self) -> tuple[Generator, ...]:
        return tuple(sorted(self.images, key=oracle_key))

    def image_of(self, g: Generator) -> FractionElement:
        try:
            return self.images[g]
        except KeyError:
            raise MapDomainError(f"generator {g} outside map domain") from None

    def apply(self, e: FractionElement) -> FractionElement:
        out: dict[Generator, Fraction] = {}
        for g, q in e.items():
            img = self.image_of(g)
            for h, c in img.items():
                out[h] = out.get(h, Fraction(0)) + q * c
        return FractionElement(out)


def fraction_compose(outer: FractionMap, inner: FractionMap) -> FractionMap:
    return FractionMap({g: outer.apply(img) for g, img in inner.images.items()})


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
    assert Generator._fields == ("kind", "ordinal", "index")
    assert (str(a), str(ygen(W2, 1)), str(WGEN)) == ("x[w*3+2]", "y[w^2*1,1]", "w")
    assert basis_order([WGEN, ygen(W2, 1), xgen(W2), ygen(W2, 0), a]) == [
        a, xgen(W2), ygen(W2, 0), ygen(W2, 1), WGEN]
    assert Generator("w") == WGEN and hash(Generator("w")) == hash(WGEN)


@dataclass(frozen=True)
class _Holder:
    g: Generator


def test_value_types_round_trip_through_pickle_deepcopy_and_asdict():
    sl = make_block_special(W2, 4)
    rng = omega_range(sl)
    for value in (xgen(sl.entries[1]), ygen(W2, 3), WGEN, rng, sl):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert twin == value and hash(twin) == hash(value) and type(twin) is type(value)
    held = _Holder(ygen(W2, 3))
    assert _Holder(**dataclasses.asdict(held)) == held
    assert OmegaRange(**dataclasses.asdict(rng)) == rng
    assert all(type(v) is Ordinal for v in dataclasses.asdict(rng)["blocks"])
    fields = dataclasses.asdict(sl)
    assert SpecialLadder(**{**fields, "rule": BlockRule(**fields["rule"])}) == sl


# ---------------------------------------------------------------------------
# the integer representation against the Fraction oracle

ORACLE_GENS = (
    xgen(nat(1)), xgen(nat(4)), xgen(parse_ordinal("w*2+1")), ygen(W2, 0), ygen(W2, 3), WGEN,
)
fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
coeff_dicts = st.dictionaries(st.sampled_from(ORACLE_GENS), fractions | st.integers(-5, 5),
                              max_size=5)


def assert_agree(new, old):
    """The two classes give the same element, in every reading."""
    d, nums = new.integer_form()
    assert d > 0 and gcd(d, *nums.values()) == 1
    assert (d, nums) == old.integer_form()
    assert new.items() == old.items()
    assert new.support() == old.support() and new.is_zero == old.is_zero
    assert str(new) == str(old)
    assert all(new.coeff(g) == old.coeff(g) for g in ORACLE_GENS)


def same_value(a, b):
    """Equal, and equal in hash."""
    return a == b and hash(a) == hash(b)


def outcome(fn, *args):
    try:
        return fn(*args)
    except MapDomainError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(coeff_dicts, coeff_dicts, fractions.filter(bool), st.data())
def test_free_element_matches_fraction_oracle(ca, cb, q, data):
    a, b, oa, ob = FreeElement(ca), FreeElement(cb), FractionElement(ca), FractionElement(cb)
    for new, old in ((a, oa), (b, ob), (a + b, oa + ob), (a - b, oa - ob), (-a, -oa)):
        assert_agree(new, old)
    for s in (q, 0, -3, Fraction(2, 3)):
        assert_agree(a.scale(s), oa.scale(s))
        assert_agree(s * a, s * oa)
    assert (a == b) == (oa == ob)
    # equal values reached by different routes are equal and hash alike
    assert same_value((a + b) - b, a) and same_value(a + b, b + a)
    assert same_value(a.scale(q).scale(1 / q), a) and same_value(-(-a), a)
    assert same_value(a - a, FreeElement()) and same_value(a.scale(0), b - b)
    assert same_value(a + a, a.scale(2))
    d = data.draw(st.integers(1, 36))
    nums = data.draw(st.dictionaries(st.sampled_from(ORACLE_GENS), st.integers(-40, 40)))
    assert_agree(FreeElement.from_numerators(d, nums), FractionElement.from_numerators(d, nums))
    # maps: apply, composition, and the error for a generator outside the domain
    inner = {g: data.draw(coeff_dicts) for g in ORACLE_GENS}
    outer = {g: data.draw(coeff_dicts) for g in ORACLE_GENS}
    new_in = GeneratorMap({g: FreeElement(c) for g, c in inner.items()})
    new_out = GeneratorMap({g: FreeElement(c) for g, c in outer.items()})
    old_in = FractionMap({g: FractionElement(c) for g, c in inner.items()})
    old_out = FractionMap({g: FractionElement(c) for g, c in outer.items()})
    assert_agree(new_in.apply(a), old_in.apply(oa))
    composed, old_composed = compose_maps(new_out, new_in), fraction_compose(old_out, old_in)
    for g in ORACLE_GENS:
        assert_agree(composed.image_of(g), old_composed.image_of(g))
    assert same_value(composed.apply(a), new_out.apply(new_in.apply(a)))
    kept = data.draw(st.sets(st.sampled_from(ORACLE_GENS)))
    partial = GeneratorMap({g: FreeElement(inner[g]) for g in kept})
    old_partial = FractionMap({g: FractionElement(inner[g]) for g in kept})
    new_result, old_result = outcome(partial.apply, a), outcome(old_partial.apply, oa)
    if isinstance(old_result, tuple):
        assert new_result == old_result
    else:
        assert_agree(new_result, old_result)
