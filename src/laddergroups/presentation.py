"""Exact sparse linear algebra over abstract generators, and the presented
groups built on a ladder system.

Generators come in three families: ``x`` generators indexed by ordinals,
``y`` generators indexed by (delta, n), and the single twist generator
``w``.  Group elements are finite rational combinations of generators.  The
``y(delta, 0)`` generator doubles as the seed of delta's division chain; for
n >= 1 the key ``y(delta, n)`` is used as the formal presentation symbol of
the n-th chain element, which concretely is a rational combination of the
seed and x generators (the chain satisfies psi(n) * chain(n+1) = chain(n) +
block(n), which is the group's only family of relations).
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import NamedTuple

from .ladders import LadderSystem
from .ordinals import ONE, Ordinal, format_ordinal

Rat = Fraction | int


class ScopeError(ValueError):
    """An element mentioned generators outside the current scope."""


class MapDomainError(KeyError):
    """A generator map was applied outside its declared domain."""


class ConfigError(ValueError):
    """A group configuration violated its invariants."""


# ---------------------------------------------------------------------------
# generators


class Generator(NamedTuple):
    """A generator, the tuple (kind, ordinal, index): generators key every
    coefficient dict, so their equality and hashing are the tuple's."""

    kind: str  # "x" | "y" | "w"
    ordinal: Ordinal | None = None
    index: int | None = None

    def __str__(self) -> str:
        if self.kind == "x":
            return f"x[{format_ordinal(self.ordinal)}]"
        if self.kind == "y":
            return f"y[{format_ordinal(self.ordinal)},{self.index}]"
        return "w"

    __repr__ = __str__


def xgen(beta: Ordinal) -> Generator:
    return Generator("x", beta, None)


def ygen(delta: Ordinal, n: int = 0) -> Generator:
    return Generator("y", delta, n)


WGEN = Generator("w")


def basis_order(gens) -> list[Generator]:
    """gens sorted in basis order: x generators by ordinal, then y
    generators by (delta, n), then w.  Tuple order puts the kind "w" first,
    so w moves from the front to the end."""
    out = sorted(gens)
    if out and out[0] == WGEN:
        out.append(out.pop(0))
    return out


def generator_level(g: Generator) -> Ordinal:
    """Least filtration level admitting g: x[beta] enters once beta < level
    + omega, y[delta, n] once delta < level."""
    if g.kind == "x":
        return g.ordinal.limit_part
    if g.kind == "y":
        return g.ordinal + ONE
    raise ScopeError("the twist generator has no filtration level")


# ---------------------------------------------------------------------------
# free elements


class FreeElement:
    """Immutable finite rational combination of generators, stored as integer
    numerators over one positive denominator, in lowest terms: equal
    elements have equal numerators and denominators."""

    __slots__ = ("_den", "_nums")

    def __init__(self, coeffs: dict[Generator, Rat] | None = None):
        # over the lcm of reduced denominators the numerators have gcd 1
        qs = [(g, Fraction(q)) for g, q in coeffs.items() if q] if coeffs else []
        d = lcm(*[q.denominator for _, q in qs])
        self._den = d
        self._nums = {g: q.numerator * (d // q.denominator) for g, q in qs}

    @classmethod
    def from_numerators(cls, d: int, nums: dict[Generator, int]) -> "FreeElement":
        """The element sum of nums[g] / d * g, for a positive integer d."""
        nums = {g: n for g, n in nums.items() if n}
        k = gcd(d, *nums.values())
        if k != 1:
            d //= k
            nums = {g: n // k for g, n in nums.items()}
        out = cls.__new__(cls)
        out._den, out._nums = d, nums
        return out

    @classmethod
    def single(cls, g: Generator, coeff: Rat = 1) -> "FreeElement":
        return cls({g: coeff})

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def coeff(self, g: Generator) -> Fraction:
        return Fraction(self._nums.get(g, 0), self._den)

    def support(self) -> tuple[Generator, ...]:
        return tuple(basis_order(self._nums))

    def items(self) -> list[tuple[Generator, Fraction]]:
        d = self._den
        return [(g, Fraction(self._nums[g], d)) for g in self.support()]

    def integer_form(self) -> tuple[int, dict[Generator, int]]:
        """(d, nums) with self = sum of nums[g] / d * g in lowest terms (d is
        1 for the zero element).  nums is the element's own dict: read it,
        do not modify it."""
        return self._den, self._nums

    def _combine(self, other: "FreeElement", sign: int) -> "FreeElement":
        """self + sign * other over the lcm of the two denominators."""
        a, b = self._den, other._den
        d = lcm(a, b)
        ma, mb = d // a, sign * (d // b)
        out = {g: n * ma for g, n in self._nums.items()}
        for g, n in other._nums.items():
            out[g] = out.get(g, 0) + n * mb
        return FreeElement.from_numerators(d, out)

    def __add__(self, other: "FreeElement") -> "FreeElement":
        return self._combine(other, 1)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self._combine(other, -1)

    def __neg__(self) -> "FreeElement":
        return FreeElement.from_numerators(self._den, {g: -n for g, n in self._nums.items()})

    def scale(self, q: Rat) -> "FreeElement":
        q = Fraction(q)
        a = q.numerator
        return FreeElement.from_numerators(
            self._den * q.denominator, {g: a * n for g, n in self._nums.items()})

    __rmul__ = scale

    def __eq__(self, other) -> bool:
        return (isinstance(other, FreeElement) and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._nums.items())))

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


# ---------------------------------------------------------------------------
# sparse elimination


def gauss_jordan(
    rows: list[dict[Hashable, int]], cols: Sequence[Hashable]
) -> tuple[int, int, list[dict[Hashable, int]]]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination on sparse integer
    rows.

    Each row maps a column key to its nonzero entry.  The keys in cols are
    the pivot columns, in pivot order; other keys ride along.  Each step
    with pivot p sets every other row to (p*row - f*prow) // prev, f its
    entry in the pivot column and prev the previous pivot (1 at first);
    every division is exact, as each entry stays a minor of the input.  A
    negative pivot row is negated, so every pivot is positive and each
    pivot row ends holding the last pivot p on its column: p * M^-1 is left
    in the ride-along block of [M | I].  Returns the determinant of the
    square matrix of the columns cols, in that order (0 unless there are
    exactly len(cols) rows and every column has a pivot, when p = |det|),
    the rank, and the reduced rows: the pivot rows first, in column order,
    then the rest.  The input rows are not modified.
    """
    m = list(rows)
    sign, prev, rank = 1, 1, 0
    for col in cols:
        pivot = next((r for r in range(rank, len(m)) if col in m[r]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot], sign = m[pivot], m[rank], -sign
        prow = m[rank]
        p = prow[col]
        if p < 0:
            p, sign = -p, -sign
            prow = m[rank] = {j: -v for j, v in prow.items()}
        for r, row in enumerate(m):
            if r == rank:
                continue
            f = row.get(col)
            if f:
                out = {j: p * v for j, v in row.items()}
                for j, v in prow.items():
                    out[j] = out.get(j, 0) - f * v
                m[r] = {j: v // prev for j, v in out.items() if v}
            elif p != prev:
                m[r] = {j: p * v // prev for j, v in row.items()}
        prev = p
        rank += 1
    det = sign * prev if rank == len(cols) == len(m) else 0
    return det, rank, m


# ---------------------------------------------------------------------------
# generator maps


@dataclass(frozen=True)
class GeneratorMap:
    """Finite generator-to-element mapping, extended linearly.

    Application outside the declared domain is a hard error, not zero."""

    images: dict[Generator, FreeElement] = field(repr=False)

    def domain(self) -> tuple[Generator, ...]:
        return tuple(basis_order(self.images))

    def image_of(self, g: Generator) -> FreeElement:
        try:
            return self.images[g]
        except KeyError:
            raise MapDomainError(f"generator {g} outside map domain") from None

    def apply(self, e: FreeElement) -> FreeElement:
        """The image of e, summed in integer numerators over the lcm of the
        denominators of the images it touches.  A generator outside the
        domain raises MapDomainError, naming the first in basis order."""
        d, nums = e.integer_form()
        images = self.images
        missing = [g for g in nums if g not in images]
        if missing:
            self.image_of(basis_order(missing)[0])  # raises
        forms = [(n, images[g].integer_form()) for g, n in nums.items()]
        d_img = lcm(*[d_g for _, (d_g, _) in forms])
        out: dict[Generator, int] = {}
        for n, (d_g, img) in forms:
            n *= d_img // d_g
            for h, m in img.items():
                out[h] = out.get(h, 0) + n * m
        return FreeElement.from_numerators(d * d_img, out)


def compose_maps(outer: GeneratorMap, inner: GeneratorMap) -> GeneratorMap:
    return GeneratorMap({g: outer.apply(img) for g, img in inner.images.items()})


@dataclass(frozen=True)
class HomReport:
    ok: bool
    failures: tuple[tuple[str, str], ...]


def verify_hom(
    gmap: GeneratorMap, relations: list[tuple[str, FreeElement]]
) -> HomReport:
    """A map out of the presented group must kill every relation; report the
    nonzero images."""
    failures = []
    for label, rel in relations:
        image = gmap.apply(rel)
        if not image.is_zero:
            failures.append((label, str(image)))
    return HomReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# psi and group configurations


class FactorialPsi:
    """psi(n) = n! with 0! = 1."""

    def __call__(self, n: int) -> int:
        return factorial(n)

    def describe(self) -> str:
        return "factorial"

    def __eq__(self, other) -> bool:
        return isinstance(other, FactorialPsi)


class TablePsi:
    def __init__(self, values: tuple[int, ...]):
        if any(v < 1 for v in values):
            raise ConfigError("psi values must be positive")
        self.values = tuple(values)

    def __call__(self, n: int) -> int:
        try:
            return self.values[n]
        except IndexError:
            raise ConfigError(f"psi table has no entry for n = {n}") from None

    def describe(self) -> str:
        return "table:" + ",".join(map(str, self.values))

    def __eq__(self, other) -> bool:
        return isinstance(other, TablePsi) and self.values == other.values


@dataclass(frozen=True)
class GroupConfig:
    """A ladder system together with psi and the block coefficient table.

    coeffs maps (delta, n) to the integer vector of length t_n used in block
    n of delta's relations; every vector must have gcd 1.
    """

    system: LadderSystem
    psi: FactorialPsi | TablePsi
    coeffs: dict[tuple[Ordinal, int], tuple[int, ...]] = field(repr=False)

    def __post_init__(self) -> None:
        for (delta, n), vec in self.coeffs.items():
            sl = self.system.ladder(delta)
            if n >= sl.block_count:
                raise ConfigError(
                    f"coefficients given for unexplored block {n} of {delta}"
                )
            if len(vec) != sl.t(n):
                raise ConfigError(
                    f"block {n} of {delta} has size {sl.t(n)}, got {len(vec)} coefficients"
                )
            if gcd(*vec) != 1:
                raise ConfigError(
                    f"coefficients {vec} for block {n} of {delta} do not have gcd 1"
                )

    @classmethod
    def from_rule(cls, system, psi, rule) -> "GroupConfig":
        """Build the coefficient table from rule(delta, n, t) -> vector."""
        coeffs = {}
        for delta, sl in system.items():
            for n in range(sl.block_count):
                coeffs[(delta, n)] = tuple(rule(delta, n, sl.t(n)))
        return cls(system, psi or FactorialPsi(), coeffs)

    @classmethod
    def all_ones(cls, system, psi=None) -> "GroupConfig":
        return cls.from_rule(system, psi or FactorialPsi(), lambda d, n, t: (1,) * t)

    @classmethod
    def alternating(cls, system, psi=None) -> "GroupConfig":
        """The (1, -1, 1, ...) coefficient pattern of the paired-block example."""
        return cls.from_rule(
            system, psi or FactorialPsi(), lambda d, n, t: tuple((-1) ** l for l in range(t))
        )

    def coeff(self, delta: Ordinal, n: int) -> tuple[int, ...]:
        try:
            return self.coeffs[(delta, n)]
        except KeyError:
            raise ConfigError(f"no coefficients for block {n} of {delta}") from None

    def restrict(self, blocks: int) -> "GroupConfig":
        """The same configuration over prefixes truncated to `blocks` blocks."""
        system = self.system.restrict_blocks(blocks)
        kept = {
            (delta, n): vec
            for (delta, n), vec in self.coeffs.items()
            if n < system.ladder(delta).block_count
        }
        return GroupConfig(system, self.psi, kept)

    def block_x_indices(self, delta: Ordinal, n: int) -> tuple[Ordinal, ...]:
        return self.system.ladder(delta).block_values(n)

    def has_block_shape(self, depth: int, coeffs: tuple[int, ...]) -> bool:
        """Whether the first `depth` blocks of every ladder have len(coeffs)
        entries, start at k_n = n * len(coeffs) and carry `coeffs`."""
        t = len(coeffs)
        return all(
            sl.k(n) == t * n and sl.t(n) == t and self.coeff(delta, n) == coeffs
            for delta, sl in self.system.items()
            for n in range(depth)
        )

    def psi_product(self, lo: int, hi: int) -> int:
        """Product of psi(j) for lo <= j < hi."""
        out = 1
        for j in range(lo, hi):
            v = self.psi(j)
            if v == 0:
                raise ConfigError("psi must be nonzero")
            out *= v
        return out


# ---------------------------------------------------------------------------
# chain elements and relations


def block_element(cfg: GroupConfig, delta: Ordinal, n: int) -> FreeElement:
    """The block combination sum_l a_l * x[ladder(k_n + l)]."""
    coeffs = cfg.coeff(delta, n)
    out = {xgen(b): a for a, b in zip(coeffs, cfg.block_x_indices(delta, n))}
    return FreeElement.from_numerators(1, out)


def chain_element(cfg, delta: Ordinal, n: int, coloring=None) -> FreeElement:
    """The n-th division chain element of delta, concretely in the ambient
    module: seed / P(0, n) + sum_{i<n} block(i) / P(i, n), where P(i, n) is
    the product of psi(j) for i <= j < n.  With a coloring the blocks carry
    their twist term, realizing the twisted chain."""
    *_, (p, nums) = _chain_walk(cfg, delta, n, coloring)
    return FreeElement.from_numerators(p, nums)


def chain_table(cfg, delta: Ordinal, depth: int, coloring=None) -> list[FreeElement]:
    """[chain(delta, n) for n = 0..depth], from one walk up the blocks."""
    return [FreeElement.from_numerators(p, nums)
            for p, nums in _chain_walk(cfg, delta, depth, coloring)]


def _chain_walk(cfg, delta: Ordinal, n: int, coloring):
    """Yield (P(0, i), nums) for i = 0..n, nums holding the integer
    numerators of P(0, i) * chain(delta, i): the prefix sum seed + sum_{j<i}
    P(0, j) * block(j), plus P(0, j) * c(j) * w on a twisted stage.  nums is
    one running row, updated in place at the next step.  Each block is read
    as the walk reaches it, so a config missing entries names the lowest."""
    sl = cfg.system.ladder(delta)
    if n > sl.block_count:
        raise ScopeError(f"chain index {n} beyond explored blocks of {delta}")
    nums: dict[Generator, int] = {ygen(delta, 0): 1}
    p = 1  # P(0, i)
    yield p, nums
    for i in range(n):
        psi = cfg.psi(i)
        twist = coloring.color(delta, i) if coloring is not None else None
        for a, beta in zip(cfg.coeff(delta, i), sl.block_values(i)):
            g = xgen(beta)
            nums[g] = nums.get(g, 0) + p * a
        if twist:
            nums[WGEN] = nums.get(WGEN, 0) + p * twist
        p *= psi
        yield p, nums


def chain_relation(cfg, delta: Ordinal, n: int, coloring=None) -> FreeElement:
    """The relation psi(n)*y(delta, n+1) - y(delta, n) - block(n) over the
    presentation symbols (minus its twist term when a coloring is given)."""
    twist = coloring.color(delta, n) if coloring is not None else None
    nums = {ygen(delta, n + 1): cfg.psi(n), ygen(delta, n): -1}
    for a, beta in zip(cfg.coeff(delta, n), cfg.block_x_indices(delta, n)):
        nums[xgen(beta)] = -a
    if twist:
        nums[WGEN] = -twist
    return FreeElement.from_numerators(1, nums)


def relation_label(delta: Ordinal, n: int) -> str:
    return f"g[{format_ordinal(delta)},{n}]"


# ---------------------------------------------------------------------------
# stage rewriting and membership


def stage_rewrite(cfg, depth: int, e: FreeElement, coloring=None) -> FreeElement:
    """Coordinates of e over the depth-N stage basis of the whole system,
    walking each seed's ladder (StageGroup.rewrite reads a stage's chain
    table instead, and checks its scope)."""
    def chain(delta: Ordinal) -> FreeElement:
        if delta not in cfg.system.deltas:
            raise ScopeError(f"{ygen(delta, 0)} indexed outside the ladder system")
        return chain_element(cfg, delta, depth, coloring)

    return rewrite_over_chains(e, depth, chain, coloring is not None)


def rewrite_over_chains(
    e: FreeElement, depth: int, chain, twisted: bool, scope=None
) -> FreeElement:
    """The one rewrite loop: coordinates of e over the basis {chain(delta,
    N)} plus the x generators (plus w when twisted), as a combination of the
    keys y(delta, N), x[beta] and w; chain(delta) gives chain(delta, N).

    A seed y(delta, 0) is P(0, N) * chain(delta, N) minus sum_{i<N} P(0, i)
    * block(i) (and twist terms), and chain(delta, N) in lowest terms is
    P(0, N) over that walked row, with seed numerator 1.  The coordinates
    are summed as integer numerators over e's denominator.  Generators are
    read in basis order; the first one out of scope raises ScopeError: a
    chain symbol, w when not twisted, or an x generator or seed not in the
    given scope.
    """
    d, nums = e.integer_form()
    out: dict[Generator, int] = {}
    for g in basis_order(nums):
        n = nums[g]
        if g.kind == "w":
            if not twisted:
                raise ScopeError("twist generator outside a twisted stage")
        elif g.kind == "y" and g.index != 0:
            raise ScopeError(
                f"{g} is a formal chain symbol, not an element of the group span"
            )
        elif scope is not None and g not in scope:
            raise ScopeError(f"{g} outside the stage")
        if g.kind != "y":
            out[g] = out.get(g, 0) + n
            continue
        p, row = chain(g.ordinal).integer_form()
        # row is P(0, N) * chain(delta, N) with seed term 1: subtract all of
        # it but the seed, and add P(0, N) * y(delta, N)
        for h, c in row.items():
            out[h] = out.get(h, 0) - n * c
        out[g] += n
        key = ygen(g.ordinal, depth)
        out[key] = out.get(key, 0) + n * p
    return FreeElement.from_numerators(d, out)


@dataclass(frozen=True)
class MembershipResult:
    in_group: bool
    pure_multiple: int
    coordinates: FreeElement


def membership(cfg, depth: int, e: FreeElement, coloring=None) -> MembershipResult:
    """Integer-span membership in the system's depth-N stage, walking each
    seed's ladder as stage_rewrite does (StageGroup.membership reads a
    stage's chain table), with the least positive multiple landing in it."""
    coords = stage_rewrite(cfg, depth, e, coloring)
    mult = coords.integer_form()[0]
    return MembershipResult(mult == 1, mult, coords)


def membership_at_level(
    cfg, depth: int, e: FreeElement, level: Ordinal, coloring=None
) -> bool:
    """Membership in the filtration subgroup at the given level of the
    system's depth-N stage, walking each seed's ladder as stage_rewrite
    does: integral coordinates on the keys it admits."""
    d, nums = stage_rewrite(cfg, depth, e, coloring).integer_form()
    return d == 1 and not any(
        g.kind != "w" and level < generator_level(g) for g in nums
    )
