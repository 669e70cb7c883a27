"""Special ladders, ladder systems and the omega-range function.

A ladder on a limit ordinal delta is a strictly increasing sequence of
non-limit ordinals below delta, kept here as a finite explored prefix plus
an optional closed-form rule that can produce any block.  A special ladder
additionally carries breakpoints k_0 < k_1 < ... cutting the prefix into
blocks; within a block all entries share the same "+ omega" value and the
blocks are separated (head value + omega lies below the next head).

The rule family is affine in the block index: block n of a rule-backed
ladder lives in the omega-interval above base + w^e * (n+1), and the ladder
is cofinal in delta exactly when delta = base + w^(e+1).  This covers the
classic k_n = n and k_n = 2n examples on w^2 * m as well as deltas like w^3.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, count, cycle, islice

from .ordinals import Ordinal, format_ordinal, nat, omega_power, plus_omega


class LadderShapeError(ValueError):
    """A constructor was asked for a ladder it cannot build."""


class LadderInvalidError(ValueError):
    """An operation required a ladder that validates cleanly."""


class LadderSystemError(ValueError):
    """A ladder system violated its membership constraints."""


class PrefixExhaustedError(LookupError):
    """The explored prefix ended before the requested information."""


@dataclass(frozen=True)
class BlockRule:
    """Closed form for ladder entries, affine in the block index.

    Block n consists of the successors base + w^step_exp*(n+1) + j for j in
    offsets[n mod len(offsets)]; offset tuples repeat cyclically.
    """

    base: Ordinal
    step_exp: int
    offsets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.step_exp < 1:
            raise LadderShapeError("rule step exponent must be >= 1")
        if not self.offsets:
            raise LadderShapeError("rule needs at least one offset block")
        for block in self.offsets:
            if not block or any(j < 1 for j in block) or list(block) != sorted(set(block)):
                raise LadderShapeError(
                    "offsets must be strictly increasing positive integers"
                )

    def block(self, n: int) -> tuple[Ordinal, ...]:
        """The entries of block n, over its limit base + w^step_exp*(n+1)."""
        limit = self.base + omega_power(self.step_exp, n + 1)
        return tuple(limit + nat(j) for j in self.offsets[n % len(self.offsets)])

    def breakpoints(self, k: int) -> tuple[int, ...]:
        """The first k breakpoints: the partial sums, from k_0 = 0, of the
        cyclic block sizes."""
        return tuple(islice(accumulate(cycle(map(len, self.offsets)), initial=0), k))

    def cofinal_delta(self) -> Ordinal:
        return self.base + omega_power(self.step_exp + 1)


@dataclass(frozen=True)
class SpecialLadder:
    """A ladder prefix with breakpoint data (and an optional rule)."""

    delta: Ordinal
    entries: tuple[Ordinal, ...]
    breakpoints: tuple[int, ...]
    rule: BlockRule | None = None

    @property
    def depth(self) -> int:
        return len(self.entries)

    @property
    def block_count(self) -> int:
        return len(self.breakpoints) - 1

    def k(self, n: int) -> int:
        return self.breakpoints[n]

    def t(self, n: int) -> int:
        return self.breakpoints[n + 1] - self.breakpoints[n]

    def head(self, n: int) -> Ordinal:
        return self.entries[self.breakpoints[n]]

    def block_values(self, n: int) -> tuple[Ordinal, ...]:
        return self.entries[self.breakpoints[n] : self.breakpoints[n + 1]]

    def block_of_position(self, i: int) -> int:
        """Block index containing prefix position i (i >= k_0)."""
        if i < self.breakpoints[0] or i >= self.breakpoints[-1]:
            raise PrefixExhaustedError(f"position {i} outside explored blocks")
        return bisect_right(self.breakpoints, i) - 1

    @cached_property
    def report(self) -> "LadderReport":
        """validate_special(self), run once per ladder object."""
        return validate_special(self)

    @cached_property
    def _omega_range(self) -> "OmegaRange":
        if not self.report.ok:
            raise LadderInvalidError("; ".join(self.report.errors))
        blocks = tuple(plus_omega(self.head(n)) for n in range(self.block_count))
        return OmegaRange(self.delta, blocks)


@dataclass(frozen=True)
class LadderReport:
    ok: bool
    errors: tuple[str, ...]
    warnings: tuple[str, ...]


def validate_special(sl: SpecialLadder) -> LadderReport:
    """Check every special-ladder clause on the explored prefix.

    Validation never raises; it reports each violated clause with the
    offending index.  k_0 = 0 and a missing rule (cofinality certified only
    for rule-backed ladders) are downgraded to warnings.
    """
    errors: list[str] = []
    warnings: list[str] = []
    if not sl.delta.is_limit:
        errors.append(f"delta {sl.delta} is not a limit ordinal")
    for i, e in enumerate(sl.entries):
        if e.is_limit:
            errors.append(f"entry {i} = {e} is a limit ordinal")
        if not e < sl.delta:
            errors.append(f"entry {i} = {e} is not below delta {sl.delta}")
        if i and not sl.entries[i - 1] < e:
            errors.append(f"entries not strictly increasing at {i}")
    bps = sl.breakpoints
    if len(bps) < 2:
        errors.append("need at least one explored block (two breakpoints)")
    if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)) or min(bps, default=0) < 0:
        errors.append("breakpoints must be strictly increasing naturals")
    elif bps and bps[-1] > len(sl.entries):
        errors.append(
            f"breakpoints reach {bps[-1]} but only {len(sl.entries)} entries explored"
        )
    elif not errors:
        if bps[0] == 0:
            warnings.append("k_0 = 0 (strict positivity clause relaxed)")
        for n in range(sl.block_count):
            vals = sl.block_values(n)
            first = plus_omega(vals[0])
            for j, v in enumerate(vals[1:], start=1):
                if plus_omega(v) != first:
                    errors.append(
                        f"block condition (a) fails in block {n} at offset {j}: "
                        f"{plus_omega(v)} != {first}"
                    )
        for n in range(sl.block_count - 1):
            if not plus_omega(sl.head(n)) < sl.head(n + 1):
                errors.append(
                    f"separation condition (b) fails between blocks {n} and {n + 1}: "
                    f"{plus_omega(sl.head(n))} !< {sl.head(n + 1)}"
                )
    if sl.rule is not None:
        stream = chain.from_iterable(map(sl.rule.block, count()))
        for i, (e, r) in enumerate(zip(sl.entries, stream)):
            if e != r:
                errors.append(f"rule disagrees with prefix at {i}")
                break
        if tuple(bps) != sl.rule.breakpoints(len(bps)):
            errors.append("breakpoints disagree with rule block structure")
        if sl.rule.cofinal_delta() != sl.delta:
            errors.append(
                f"rule is cofinal in {sl.rule.cofinal_delta()}, not in {sl.delta}"
            )
    else:
        warnings.append("prefix-only ladder: cofinality not certified")
    return LadderReport(not errors, tuple(errors), tuple(warnings))


@dataclass(frozen=True)
class OmegaRange:
    """Per-block "+ omega" values of a special ladder; by block condition
    (a) every index of block n has the value blocks[n]."""

    delta: Ordinal
    blocks: tuple[Ordinal, ...]


def omega_range(sl: SpecialLadder) -> OmegaRange:
    """The ladder's omega-range, computed once per ladder object; an
    invalid ladder raises LadderInvalidError."""
    return sl._omega_range


def _rule_for(delta: Ordinal, offsets: tuple[tuple[int, ...], ...]) -> BlockRule:
    if not delta.is_limit:
        raise LadderShapeError(f"{delta} is not a limit ordinal")
    if not delta.divisible_by_omega_squared:
        raise LadderShapeError(f"w^2 does not divide {delta}")
    exp, coeff = delta[-1]
    if coeff > 1:
        base = Ordinal(delta[:-1] + ((exp, coeff - 1),))
    else:
        base = Ordinal(delta[:-1])
    return BlockRule(base, exp - 1, offsets)


def _from_rule(delta: Ordinal, rule: BlockRule, blocks: int) -> SpecialLadder:
    if blocks < 1:
        raise LadderShapeError("need at least one explored block")
    entries = tuple(chain.from_iterable(map(rule.block, range(blocks))))
    return SpecialLadder(delta, entries, rule.breakpoints(blocks + 1), rule)


def make_simple_special(delta: Ordinal, depth: int) -> SpecialLadder:
    """The simplest special ladder on delta: k_n = n, one entry per block."""
    return _from_rule(delta, _rule_for(delta, ((1,),)), depth)


def make_block_special(
    delta: Ordinal, blocks: int, offsets: tuple[tuple[int, ...], ...] = ((1, 2),)
) -> SpecialLadder:
    """Rule-backed ladder with cyclic block offsets (default k_n = 2n)."""
    return _from_rule(delta, _rule_for(delta, offsets), blocks)


def prefix_special(
    delta: Ordinal,
    entries: tuple[Ordinal, ...],
    breakpoints: tuple[int, ...] | None = None,
) -> SpecialLadder:
    """Prefix-only ladder; breakpoints default to k_n = n."""
    if breakpoints is None:
        breakpoints = tuple(range(len(entries) + 1))
    return SpecialLadder(delta, tuple(entries), tuple(breakpoints), None)


def companion_same_range(
    eta: SpecialLadder, block_sizes: tuple[int, ...]
) -> SpecialLadder:
    """A ladder on the same delta with prescribed block sizes and the same
    omega-range as eta, blockwise.

    Block n of the companion consists of the first block_sizes[n] successors
    of the omega-interval carrying eta's block n, so the two ranges agree
    exactly.  Breakpoints are the partial sums starting at k_0 = 0.
    """
    if not eta.report.ok:
        raise LadderInvalidError("; ".join(eta.report.errors))
    if len(block_sizes) != eta.block_count:
        raise LadderShapeError(
            f"need one block size per explored block ({eta.block_count})"
        )
    if any(s < 1 for s in block_sizes):
        raise LadderShapeError("block sizes must be positive")
    entries: list[Ordinal] = []
    for n, size in enumerate(block_sizes):
        limit = eta.head(n).limit_part
        entries.extend(limit + Ordinal(((0, j),)) for j in range(1, size + 1))
    bps = tuple(accumulate((0,) + tuple(block_sizes)))
    rule = None
    if eta.rule is not None:
        rule = BlockRule(
            eta.rule.base, eta.rule.step_exp, tuple(tuple(range(1, s + 1)) for s in block_sizes)
        )
    return SpecialLadder(eta.delta, tuple(entries), bps, rule)


def first_block_reaching(sl: SpecialLadder, threshold: Ordinal) -> int:
    """Least block index n with head(n) >= threshold.

    Rule-backed ladders that validate read n off the threshold past the
    explored prefix; prefix-only ladders raise once exhausted, and so do
    invalid ones, whose rule need not approach delta.

    Past the prefix, the limit of block n is lead + w^e*(b+n), with lead the
    terms above w^e of the limit of block 0 and b its coefficient of w^e.  A
    threshold below delta = lead + w^(e+1) either lies below lead, and block
    0 reaches it, or is lead + w^e*c + smaller terms: block max(c - b, 0)
    reaches it unless its head falls short, and then the next one does.
    """
    if not threshold < sl.delta:
        raise LadderShapeError(f"threshold {threshold} not below delta {sl.delta}")
    for n in range(sl.block_count):
        if not sl.head(n) < threshold:
            return n
    if sl.rule is None:
        raise PrefixExhaustedError(
            f"prefix of ladder on {sl.delta} exhausted below threshold {threshold}"
        )
    if not sl.report.ok:
        raise LadderInvalidError("; ".join(sl.report.errors))
    limit = sl.rule.base + omega_power(sl.rule.step_exp)
    lead, (e, b) = limit[:-1], limit[-1]
    c = dict(threshold[len(lead):]).get(e, 0) if threshold[:len(lead)] == lead else 0
    n = max(c - b, 0)
    return n + (sl.rule.block(n)[0] < threshold)


@dataclass(frozen=True)
class LadderSystem:
    """Finitely many special ladders indexed by their deltas, all below alpha."""

    alpha: Ordinal
    _ladders: tuple[tuple[Ordinal, SpecialLadder], ...] = field(repr=False)

    @classmethod
    def build(
        cls, alpha: Ordinal, ladders: dict[Ordinal, SpecialLadder]
    ) -> "LadderSystem":
        problems: list[str] = []
        for delta, sl in ladders.items():
            tag = format_ordinal(delta)
            if not delta.is_limit:
                problems.append(f"{tag}: not a limit ordinal")
            elif not delta.divisible_by_omega_squared:
                problems.append(f"{tag}: not divisible by w^2")
            if not delta < alpha:
                problems.append(f"{tag}: not below alpha {alpha}")
            if sl.delta != delta:
                problems.append(f"{tag}: ladder is on {sl.delta}")
            problems.extend(f"{tag}: {msg}" for msg in sl.report.errors)
        if problems:
            raise LadderSystemError("; ".join(problems))
        ordered = tuple(sorted(ladders.items()))
        return cls(alpha, ordered)

    @property
    def deltas(self) -> tuple[Ordinal, ...]:
        return tuple(d for d, _ in self._ladders)

    def ladder(self, delta: Ordinal) -> SpecialLadder:
        for d, sl in self._ladders:
            if d == delta:
                return sl
        raise KeyError(format_ordinal(delta))

    def items(self) -> tuple[tuple[Ordinal, SpecialLadder], ...]:
        return self._ladders

    def deltas_below(self, bound: Ordinal) -> tuple[Ordinal, ...]:
        return tuple(d for d in self.deltas if d < bound)

    def restrict_blocks(self, blocks: int) -> "LadderSystem":
        """The same system with every prefix truncated to `blocks` blocks."""
        cut = {}
        for d, sl in self._ladders:
            b = min(blocks, sl.block_count)
            top = sl.breakpoints[b]
            cut[d] = SpecialLadder(
                sl.delta, sl.entries[:top], sl.breakpoints[: b + 1], None
            )
        return LadderSystem.build(self.alpha, cut)


@dataclass(frozen=True)
class TreeLikeReport:
    ok: bool
    witness: tuple[str, int, str, int, str] | None = None


def is_tree_like(sys: LadderSystem) -> TreeLikeReport:
    """Coincidences between ladders must happen at equal indices with full
    agreement below; returns the violating quadruple otherwise, the first
    one over the pairs of ladders in delta order and then ascending n.

    Each value is looked up in a value-to-index map of the other ladder: a
    ladder's entries strictly increase, so a value has at most one index."""
    items = sys.items()
    index = [{v: m for m, v in enumerate(sl.entries)} for _, sl in items]
    for a, (d1, l1) in enumerate(items):
        for b in range(a + 1, len(items)):
            d2, l2 = items[b]
            # the entries below n agree exactly when n <= agree
            agree = next((i for i, (u, v) in enumerate(zip(l1.entries, l2.entries)) if u != v),
                         min(l1.depth, l2.depth))
            for n, v in enumerate(l1.entries):
                m = index[b].get(v)
                if m is not None and (n != m or n > agree):
                    kind = "index-mismatch" if n != m else "prefix-disagreement"
                    return TreeLikeReport(
                        False, (format_ordinal(d1), n, format_ordinal(d2), m, kind))
    return TreeLikeReport(True)
