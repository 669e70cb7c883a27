"""Cantor normal form arithmetic for ordinals below w^w.

An ordinal is a tuple of (exponent, coefficient) pairs with strictly
decreasing natural exponents and positive coefficients; the empty tuple is 0.
Tuple comparison on the term sequence coincides with the ordinal order, so
equality, hashing and comparison are exact and cheap.

The text codec uses the grammar

    sum  := term ("+" term)*
    term := "w^" NAT ("*" NAT)? | "w" ("*" NAT)? | NAT

with terms in strictly decreasing exponent order.  ``format_ordinal`` always
writes coefficients explicitly (for example ``w^2*3+w*1+5``) and parsing
rejects non-canonical spellings: repeated or increasing exponents, zero
coefficients, ``w^0`` or ``w^1`` (write ``5`` or ``w*5``), and ``0`` inside
a sum.
"""

from __future__ import annotations

import re


class OrdinalParseError(ValueError):
    """Raised for malformed or non-canonical ordinal literals."""


class Ordinal(tuple):
    """An ordinal below w^w: the tuple of its CNF terms (exponent,
    coefficient), so equality, hashing and order are the tuple's."""

    __slots__ = ()

    def __new__(cls, terms=()) -> "Ordinal":
        # a tuple first: dataclasses.asdict rebuilds a tuple subclass from a generator
        terms = tuple(terms)
        prev = None
        for exp, coeff in terms:
            if exp < 0 or coeff < 1:
                raise ValueError(f"bad CNF term ({exp}, {coeff})")
            if prev is not None and exp >= prev:
                raise ValueError("CNF exponents must strictly decrease")
            prev = exp
        return super().__new__(cls, terms)

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """The CNF terms as a plain tuple."""
        return tuple(self)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self

    @property
    def is_limit(self) -> bool:
        return bool(self) and self[-1][0] >= 1

    @property
    def divisible_by_omega_squared(self) -> bool:
        return all(exp >= 2 for exp, _ in self)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Ordinal") -> "Ordinal":
        if not isinstance(other, Ordinal):
            return NotImplemented
        if not other:
            return self
        lead, lead_coeff = other[0]
        kept = tuple(t for t in self if t[0] > lead)
        for exp, coeff in self:
            if exp == lead:
                return Ordinal(kept + ((lead, coeff + lead_coeff),) + other[1:])
        return Ordinal(kept + other)

    @property
    def limit_part(self) -> "Ordinal":
        """Largest limit ordinal (or 0) with self = limit_part + finite."""
        if self and self[-1][0] == 0:
            return Ordinal(self[:-1])
        return self

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal({format_ordinal(self)!r})"


ZERO = Ordinal()
ONE = Ordinal(((0, 1),))
OMEGA = Ordinal(((1, 1),))
OMEGA_SQ = Ordinal(((2, 1),))


def nat(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return Ordinal(((0, n),)) if n else ZERO


def omega_power(exp: int, coeff: int = 1) -> Ordinal:
    if exp < 0 or coeff < 1:
        raise ValueError("need exp >= 0, coeff >= 1")
    return Ordinal(((exp, coeff),))


def plus_omega(a: Ordinal) -> Ordinal:
    return a + OMEGA


_W_POW = re.compile(r"w\^(\d+)(?:\*(\d+))?\Z")
_W_PLAIN = re.compile(r"w(?:\*(\d+))?\Z")
_NAT = re.compile(r"(\d+)\Z")


def parse_ordinal(text: str) -> Ordinal:
    if not text or text != text.strip() or " " in text:
        raise OrdinalParseError(f"malformed ordinal literal {text!r}")
    if text == "0":
        return ZERO
    terms: list[tuple[int, int]] = []
    for piece in text.split("+"):
        if m := _W_POW.fullmatch(piece):
            exp = int(m.group(1))
            if exp < 2:
                raise OrdinalParseError(
                    f"non-canonical term {piece!r}: write w^0*c as c and w^1*c as w*c"
                )
            coeff = int(m.group(2)) if m.group(2) else 1
        elif m := _W_PLAIN.fullmatch(piece):
            exp = 1
            coeff = int(m.group(1)) if m.group(1) else 1
        elif m := _NAT.fullmatch(piece):
            exp = 0
            coeff = int(m.group(1))
        else:
            raise OrdinalParseError(f"malformed term {piece!r} in {text!r}")
        if coeff == 0:
            raise OrdinalParseError(f"zero coefficient in term {piece!r}")
        if terms and exp >= terms[-1][0]:
            raise OrdinalParseError(
                f"non-canonical literal {text!r}: exponents must strictly decrease"
            )
        terms.append((exp, coeff))
    return Ordinal(tuple(terms))


def format_ordinal(a: Ordinal) -> str:
    if not a:
        return "0"
    parts = []
    for exp, coeff in a:
        if exp == 0:
            parts.append(str(coeff))
        elif exp == 1:
            parts.append(f"w*{coeff}")
        else:
            parts.append(f"w^{exp}*{coeff}")
    return "+".join(parts)
