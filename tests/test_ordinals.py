import pytest
from hypothesis import given, strategies as st

from laddergroups.ordinals import (
    OMEGA,
    ZERO,
    Ordinal,
    OrdinalParseError,
    format_ordinal,
    nat,
    omega_power,
    parse_ordinal,
    plus_omega,
)


@st.composite
def ordinals(draw):
    exps = draw(st.lists(st.integers(0, 5), unique=True, max_size=4))
    exps.sort(reverse=True)
    terms = tuple((e, draw(st.integers(1, 9))) for e in exps)
    return Ordinal(terms)


def test_codec_examples():
    assert format_ordinal(parse_ordinal("w^2*3+w*1+5")) == "w^2*3+w*1+5"
    assert parse_ordinal("0") == ZERO
    assert parse_ordinal("w") == OMEGA
    assert parse_ordinal("w^2") == omega_power(2)


@pytest.mark.parametrize("bad", ["w+w", "", "w^1*2", "w^0*3", "5+w", "w*0", "w+0", "1+2", " w"])
def test_codec_rejects_non_canonical(bad):
    with pytest.raises(OrdinalParseError):
        parse_ordinal(bad)


@given(ordinals())
def test_codec_round_trip(a):
    assert parse_ordinal(format_ordinal(a)) == a


def test_compare_examples():
    assert nat(100) < OMEGA
    assert omega_power(2) + nat(1) == omega_power(2) + nat(1)
    assert OMEGA + nat(1000) < omega_power(1, 2)


def test_add_examples():
    assert (OMEGA + nat(1)) + OMEGA == omega_power(1, 2)
    assert omega_power(2, 2) + (omega_power(1, 3) + nat(4)) == parse_ordinal("w^2*2+w*3+4")
    assert nat(5) + OMEGA == OMEGA


@given(ordinals(), ordinals(), ordinals())
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(ordinals())
def test_add_zero_identity(a):
    assert a + ZERO == a
    assert ZERO + a == a


@given(ordinals(), ordinals())
def test_add_monotone(a, b):
    total = a + b
    assert a <= total
    assert (a < total) == (not b.is_zero)


def test_omega_squared_divisibility():
    assert omega_power(2, 4).divisible_by_omega_squared
    assert not (omega_power(2) + OMEGA).divisible_by_omega_squared
    assert omega_power(3).divisible_by_omega_squared
    assert ZERO.divisible_by_omega_squared


def test_limit_part():
    assert (omega_power(1, 3) + nat(2)).limit_part == omega_power(1, 3)
    assert omega_power(2).limit_part == omega_power(2)
    assert nat(5).limit_part == ZERO
    assert plus_omega(OMEGA + nat(1)) == omega_power(1, 2)


@given(ordinals())
def test_ordinal_is_the_tuple_of_its_terms(a):
    assert Ordinal(iter(a.terms)) == a == Ordinal(a.terms)
    assert type(Ordinal(iter(a.terms))) is Ordinal
    assert tuple(a) == a.terms and hash(a) == hash(a.terms)
    assert bool(a) == (not a.is_zero)


def test_ordinal_rejects_bad_terms_from_an_iterator():
    with pytest.raises(ValueError):
        Ordinal(iter([(1, 1), (2, 1)]))
    with pytest.raises(ValueError):
        Ordinal(t for t in [(0, 0)])
