"""Uniformization colorings, the extension algorithm, twisted extensions and
the finite-stage parity splitting obstruction.

A coloring assigns a color sequence to each delta of a ladder system.  A
uniformization is a single global color map agreeing with every ladder's
colors from some index on; disjoint ladder tails make a greedy construction
work at desk scale.  Twisting the chain relations of a group by a 0/1
coloring produces an extension of the integers by the group; a section of
that extension forces integer offset chains whose divisibility pattern is
exactly the obstruction exploited here: two colorings first differing at
index n >= 2, fed through chains with a shared seed offset and a shared
annihilated x lift, demand n! * delta = +-1, which no integer satisfies.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from decimal import Decimal
from itertools import compress, islice
from math import gcd, isqrt, prod

from .ladders import LadderSystem, is_tree_like
from .ordinals import Ordinal, format_ordinal
from .presentation import (
    ConfigError,
    FreeElement,
    Generator,
    GeneratorMap,
    GroupConfig,
    ScopeError,
    WGEN,
    compose_maps,
    verify_hom,
)
from .stages import StageGroup, basis_matrix, build_stage, stage_deltas


class UniformizationError(ValueError):
    """A coloring could not be uniformized on the explored range."""


class ExtensionError(ValueError):
    """A claimed extension failed its defining identity."""


# ---------------------------------------------------------------------------
# colorings


@dataclass(frozen=True)
class Coloring:
    """Finite color sequences per delta; palette None means all naturals."""

    entries: dict[Ordinal, tuple[int, ...]] = field(repr=False)
    palette: int | None = 2

    def __post_init__(self) -> None:
        for delta, colors in self.entries.items():
            for n, c in enumerate(colors):
                if c < 0 or (self.palette is not None and c >= self.palette):
                    raise ConfigError(
                        f"color {c} at ({format_ordinal(delta)},{n}) outside palette"
                    )

    def color(self, delta: Ordinal, n: int) -> int:
        try:
            return self.entries[delta][n]
        except (KeyError, IndexError):
            raise ConfigError(
                f"no color at ({format_ordinal(delta)},{n})"
            ) from None

    def depth(self, delta: Ordinal) -> int:
        return len(self.entries.get(delta, ()))


def zero_coloring(sys: LadderSystem, depth: int) -> Coloring:
    return Coloring({d: (0,) * depth for d in sys.deltas}, 2)


@dataclass(frozen=True)
class UniformizationData:
    """A global color map on ladder values plus per-delta index thresholds."""

    psi: dict[Ordinal, int] = field(repr=False)
    thresholds: dict[Ordinal, int] = field(repr=False)

    def threshold(self, delta: Ordinal) -> int:
        return self.thresholds[delta]


def _tail_colors(sys: LadderSystem, c: Coloring, spans: dict[Ordinal, range]) -> dict[Ordinal, int]:
    """The color c gives each ladder value at an index of its delta's span,
    raising UniformizationError when one value needs two colors."""
    psi: dict[Ordinal, int] = {}
    owner: dict[Ordinal, tuple[str, int]] = {}
    for delta, span in spans.items():
        sl = sys.ladder(delta)
        for n in span:
            v, want = sl.entries[n], c.color(delta, n)
            if psi.setdefault(v, want) != want:
                raise UniformizationError(
                    f"value {v} needs color {want} for ({format_ordinal(delta)},{n}) "
                    f"but carries {psi[v]} for {owner[v]}"
                )
            owner[v] = (format_ordinal(delta), n)
    return psi


def greedy_uniformize(sys: LadderSystem, c: Coloring, d) -> UniformizationData:
    """Uniformize a coloring along disjoint ladder tails.

    The threshold for delta is the first index of block m_delta; expanded
    tail disjointness makes the tail assignments conflict-free, and every
    unconstrained explored ladder value receives the fixed color 0.  A
    conflict means the prefixes were too shallow for the certificate and is
    reported as an error.
    """
    thresholds: dict[Ordinal, int] = {}
    spans: dict[Ordinal, range] = {}
    for delta, sl in sys.items():
        thresholds[delta] = sl.k(d.m(delta))
        spans[delta] = range(thresholds[delta], sl.k(sl.block_count))
        if c.depth(delta) < spans[delta].stop:
            raise ConfigError(
                f"coloring on {format_ordinal(delta)} shallower than explored prefix"
            )
    psi = _tail_colors(sys, c, spans)
    for delta, sl in sys.items():
        for n in range(thresholds[delta]):
            psi.setdefault(sl.entries[n], 0)
    return UniformizationData(psi, thresholds)


# ---------------------------------------------------------------------------
# enumerated target groups


class IntegerTarget:
    """The integers with the zigzag enumeration 0, 1, -1, 2, -2, ..."""

    name = "integers"
    zero = 0

    def add(self, a: int, b: int) -> int:
        return a + b

    def sub(self, a: int, b: int) -> int:
        return a - b

    def scale(self, k: int, a: int) -> int:
        return k * a

    def encode(self, a: int) -> int:
        return 2 * a - 1 if a > 0 else -2 * a

    def decode(self, m: int) -> int:
        return (m + 1) // 2 if m % 2 else -(m // 2)


_PRIMES: list[int] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
# decode walks _PRIMES in blocks of _BLOCK; _BLOCK_PRODUCTS[b] is the product
# of _PRIMES[b * _BLOCK:(b + 1) * _BLOCK], one entry for each full block.
_BLOCK = 64
_BLOCK_PRODUCTS: list[int] = []
# The codec's reach: encode and decode use only the primes of index below
# _PRIME_COUNT, and raise ConfigError for a triple packing to a larger index
# or a code with a prime factor past them.  It covers the relation images of
# stages to depth 1,351 at palette 2 and to depth 1,331 at palette 4 (the
# largest index is 1,330 at depth 48 and palette 2); the sieve listing these
# primes stops below 14.4 million, in about 0.3 s and 100 MB.  A multiple of
# _BLOCK, so decode's block walk ends on it.
_PRIME_COUNT = 14 * 2**16
# _grow_primes checks and extends both lists under this lock, so threads
# can share them; decode and _nth_prime only read prefixes already grown
_PRIMES_LOCK = threading.Lock()


def _grow_primes(count: int = 0, reach: int = 0) -> None:
    """Extend _PRIMES until it holds more than `count` primes and its last
    prime is at least `reach`, or until it holds _PRIME_COUNT primes, and
    keep _BLOCK_PRODUCTS in step.

    Each pass sieves the odd numbers of the segment
    [last + 1, min(2 * (last + 1), last**2)) after the last listed prime.
    Below last**2 every composite has a prime factor below last, so striking
    the multiples of the listed odd primes up to the segment's square root
    leaves exactly its primes.  Doubling keeps each segment no longer than
    the list's own reach, so growing to `reach` stops below 2 * reach."""
    with _PRIMES_LOCK:
        while len(_PRIMES) < _PRIME_COUNT and (len(_PRIMES) <= count or _PRIMES[-1] < reach):
            last = _PRIMES[-1]
            lo, hi = (last + 1) | 1, min(2 * (last + 1), last * last)
            # sieve[i] stands for the odd number lo + 2 * i
            size = (hi - lo + 1) // 2
            sieve = bytearray(b"\x01") * size
            for p in islice(_PRIMES, 1, None):
                if p * p >= hi:
                    break
                j = -lo % p  # lo + j is the first multiple of p from lo
                if j % 2:  # and it is even, so take the next one
                    j += p
                sieve[j // 2::p] = bytes(len(range(j // 2, size, p)))
            _PRIMES.extend(compress(range(lo, hi, 2), sieve))
        for b in range(len(_BLOCK_PRODUCTS), len(_PRIMES) // _BLOCK):
            _BLOCK_PRODUCTS.append(prod(_PRIMES[b * _BLOCK:(b + 1) * _BLOCK]))


def _nth_prime(k: int) -> int:
    _grow_primes(count=k)
    return _PRIMES[k]


def _pair(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def _unpair(z: int) -> tuple[int, int]:
    w = (isqrt(8 * z + 1) - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b


def _pack3(n: int, m: int, j: int) -> int:
    # n, the chain index, runs to the stage depth and m, j stay below the
    # palette, so n goes outermost: the index grows like depth**2, not depth**4
    return _pair(n, _pair(m, j))


def _unpack3(z: int) -> tuple[int, int, int]:
    n, mj = _unpair(z)
    return (n, *_unpair(mj))


MarkedElement = tuple[tuple[tuple[int, int, int], int], ...]


class MarkedBasisTarget:
    """Finitely supported integer sums over a basis indexed by triples
    (n, m, j), enumerated through prime factorizations: the element with
    coefficient c on triple t contributes the prime with index pack(t)
    raised to the zigzag code of c, and the codes of all elements are offset
    by one so the zero element is 0."""

    name = "marked-basis"
    zero: MarkedElement = ()

    def basis(self, n: int, m: int, j: int) -> MarkedElement:
        return (((n, m, j), 1),)

    def relation_images(self, sg: StageGroup, c: Coloring) -> dict:
        """The images c marks on the relations of sg: basis(n, c(2n), c(2n+1))
        on relation (delta, n)."""
        return {
            (dd, n): self.basis(n, c.color(dd, 2 * n), c.color(dd, 2 * n + 1))
            for dd in sg.deltas
            for n in range(sg.depth)
        }

    def add(self, a: MarkedElement, b: MarkedElement) -> MarkedElement:
        out = dict(a)
        for t, c in b:
            out[t] = out.get(t, 0) + c
        return tuple(sorted((t, c) for t, c in out.items() if c))

    def sub(self, a: MarkedElement, b: MarkedElement) -> MarkedElement:
        return self.add(a, self.scale(-1, b))

    def scale(self, k: int, a: MarkedElement) -> MarkedElement:
        if not k:
            return ()
        return tuple((t, k * c) for t, c in a)

    @staticmethod
    def _code(c: int) -> int:
        return 2 * (c - 1) if c > 0 else -2 * c - 1

    @staticmethod
    def _uncode(e: int) -> int:
        return e // 2 + 1 if e % 2 == 0 else -(e + 1) // 2

    def encode(self, a: MarkedElement) -> int:
        out = 1
        for t, c in a:
            k = _pack3(*t)
            if k >= _PRIME_COUNT:
                raise ConfigError(f"triple {t} is not in the enumeration's range")
            out *= _nth_prime(k) ** (self._code(c) + 1)
        return out - 1

    def decode(self, m: int) -> MarkedElement:
        """The element encoded by m.  m + 1 is factored over _PRIMES in
        blocks of _BLOCK primes: a block whose product is coprime to m is
        skipped whole, and otherwise only the block's primes dividing the gcd
        are divided out.  The walk stops at the first block whose first prime
        p has p * p > m; what is left is then 1 or a prime, found in the list
        by bisection after growing the list to reach it.  A factor past the
        codec's reach, the first _PRIME_COUNT primes, raises ConfigError: the
        walk stops there, and the list is not grown past them."""
        m += 1
        coeffs = {}
        k = 0
        while m > 1:
            if k == _PRIME_COUNT:
                raise ConfigError(f"{m} is not in the enumeration's range")
            b = k // _BLOCK
            if b == len(_BLOCK_PRODUCTS):
                _grow_primes(count=k + _BLOCK - 1)
            if _PRIMES[k] ** 2 > m:
                break
            g = gcd(m, _BLOCK_PRODUCTS[b])
            i = k
            while g > 1:
                p = _PRIMES[i]
                if g % p == 0:
                    g //= p
                    e = 0
                    while m % p == 0:
                        m //= p
                        e += 1
                    coeffs[_unpack3(i)] = self._uncode(e - 1)
                i += 1
            k += _BLOCK
        if m > 1:
            _grow_primes(reach=m)
            k = bisect_left(_PRIMES, m, k)
            if k >= _PRIME_COUNT or _PRIMES[k] != m:
                raise ConfigError(f"{m} is not in the enumeration's range")
            coeffs[_unpack3(k)] = self._uncode(0)
        return tuple(sorted(coeffs.items()))

    @staticmethod
    def max_first_index(a: MarkedElement) -> int:
        return max((t[0] for t, _ in a), default=-1)

    @staticmethod
    def project_first_index(a: MarkedElement, n: int) -> MarkedElement:
        return tuple((t, c) for t, c in a if t[0] == n)


# ---------------------------------------------------------------------------
# the extension algorithm


@dataclass(frozen=True)
class ExtensionHom:
    """A homomorphism from the free presentation into an enumerated target,
    recorded on x values (absent means zero) and chain symbols."""

    target: object
    x_values: dict[Ordinal, object] = field(repr=False)
    z_values: dict[tuple[Ordinal, int], object] = field(repr=False)

    def on_x(self, beta: Ordinal):
        return self.x_values.get(beta, self.target.zero)

    def on_z(self, delta: Ordinal, n: int):
        try:
            return self.z_values[(delta, n)]
        except KeyError:
            raise ScopeError(
                f"extension not recorded on chain symbol ({format_ordinal(delta)},{n})"
            ) from None

    def apply(self, e: FreeElement):
        d, nums = e.integer_form()
        if d != 1:
            raise ScopeError("extension applies to integer combinations only")
        out = self.target.zero
        for g in e.support():
            if g.kind == "x":
                val = self.on_x(g.ordinal)
            elif g.kind == "y":
                val = self.on_z(g.ordinal, g.index)
            else:
                raise ScopeError("twist generator outside the free presentation")
            out = self.target.add(out, self.target.scale(nums[g], val))
        return out


def _require_paired_blocks(sg: StageGroup) -> None:
    if not sg.cfg.has_block_shape(sg.depth, (1, -1)):
        raise ScopeError(
            "extension algorithm needs paired blocks k_n = 2n with coefficients (1, -1)"
        )


def _check_relation_images(sg: StageGroup, hom: ExtensionHom, phi: dict) -> int:
    """Check that hom maps each relation of sg to its image in phi; returns
    the number of relations checked."""
    keys = [(dd, n) for dd in sg.deltas for n in range(sg.depth)]
    for key, (label, rel) in zip(keys, sg.formal_relations()):
        if hom.apply(rel) != phi[key]:
            raise ExtensionError(f"extension identity fails at {label}")
    return len(keys)


def induced_coloring(sg: StageGroup, phi: dict, target) -> Coloring:
    """Colors carrying the relation images: position 2n holds the code of
    phi(g_n) and position 2n+1 the code of its double."""
    entries = {}
    for dd in sg.deltas:
        colors = []
        for n in range(sg.depth):
            val = phi[(dd, n)]
            colors.append(target.encode(val))
            colors.append(target.encode(target.scale(2, val)))
        entries[dd] = tuple(colors)
    return Coloring(entries, None)


@dataclass(frozen=True)
class ExtendReport:
    thresholds: tuple[tuple[str, int], ...]
    case_counts: tuple[tuple[str, int], ...]
    relations_checked: int
    ok: bool


def extend_hom(
    sg: StageGroup, phi: dict, u: UniformizationData, target
) -> tuple[ExtensionHom, ExtendReport]:
    """Extend a homomorphism on the relation generators to the whole free
    presentation, given a uniformization of the induced coloring.

    x generators inside some ladder tail take the decoded global color and
    all others vanish; the chain symbols vanish from the first index whose
    block sits wholly beyond the threshold, and are backfilled downward so
    each relation maps exactly to its prescribed image.  The backfill
    dispatches on which of the two block positions are tail values, four
    cases in all.
    """
    _require_paired_blocks(sg)
    induced = induced_coloring(sg, phi, target)
    sys = sg.cfg.system
    x_values: dict[Ordinal, object] = {}
    for dd in sg.deltas:
        sl = sys.ladder(dd)
        for n in range(u.threshold(dd), 2 * sg.depth):
            v = sl.entries[n]
            if u.psi[v] != induced.color(dd, n):
                raise UniformizationError(
                    f"uniformization does not match the induced coloring at "
                    f"({format_ordinal(dd)},{n})"
                )
            if v not in x_values:
                x_values[v] = target.decode(u.psi[v])
    z_values: dict[tuple[Ordinal, int], object] = {}
    cases = {"both-tail": 0, "first-tail": 0, "second-tail": 0, "neither": 0}
    for dd in sg.deltas:
        sl = sys.ladder(dd)
        start = u.threshold(dd)
        n0 = (start + 1) // 2
        if n0 > sg.depth:
            raise ConfigError(
                f"stage depth {sg.depth} cannot reach the tail-zero clause for "
                f"{format_ordinal(dd)} (threshold {start}); increase depth"
            )
        for n in range(n0, sg.depth + 1):
            z_values[(dd, n)] = target.zero
        for n in reversed(range(n0)):
            lo, hi = sl.entries[2 * n], sl.entries[2 * n + 1]
            case = (
                "both-tail"
                if lo in x_values and hi in x_values
                else "first-tail"
                if lo in x_values
                else "second-tail"
                if hi in x_values
                else "neither"
            )
            cases[case] += 1
            acc = target.scale(sg.cfg.psi(n), z_values[(dd, n + 1)])
            acc = target.sub(acc, x_values.get(lo, target.zero))
            acc = target.add(acc, x_values.get(hi, target.zero))
            acc = target.sub(acc, phi[(dd, n)])
            z_values[(dd, n)] = acc
    hom = ExtensionHom(target, x_values, z_values)
    report = ExtendReport(
        tuple((format_ordinal(dd), u.threshold(dd)) for dd in sg.deltas),
        tuple(sorted(cases.items())),
        _check_relation_images(sg, hom, phi),
        True,
    )
    return hom, report


# ---------------------------------------------------------------------------
# uniformization recovery


@dataclass(frozen=True)
class RecoverReport:
    thresholds: tuple[tuple[str, int], ...]
    assignments: int
    coincidences_checked: int
    divisibility_certificates: int
    ok: bool


def recover_uniformization(
    sg: StageGroup, c: Coloring, hom: ExtensionHom
) -> tuple[UniformizationData, RecoverReport]:
    """Recover a uniformization of c from an extension of the coloring's
    induced homomorphism into the marked-basis group.

    The threshold for delta applies the support rule to the extension's
    value on the chain seed; tail assignments are then consistent, and at
    every odd coincidence position the divisibility argument is re-run on
    the recorded values as a certificate.  Failures signal that the claimed
    extension was not one.
    """
    target = hom.target
    if not isinstance(target, MarkedBasisTarget):
        raise ScopeError("recovery needs the marked-basis target")
    _require_paired_blocks(sg)
    tree = is_tree_like(sg.cfg.system)
    if not tree.ok:
        raise ScopeError(f"system is not tree-like: {tree.witness}")
    phi = target.relation_images(sg, c)
    _check_relation_images(sg, hom, phi)
    thresholds = {}
    for dd in sg.deltas:
        r = max(2, target.max_first_index(hom.on_z(dd, 0)) + 1)
        thresholds[dd] = 2 * r + 1
    spans = {dd: range(thresholds[dd], min(2 * sg.depth, c.depth(dd))) for dd in sg.deltas}
    psi = _tail_colors(sg.cfg.system, c, spans)
    coincidences = 0
    certificates = 0
    items = [(dd, sg.cfg.system.ladder(dd)) for dd in sg.deltas]
    for i in range(len(items)):
        d1, l1 = items[i]
        for j in range(i + 1, len(items)):
            d2, l2 = items[j]
            lo = max(thresholds[d1], thresholds[d2])
            for k in range(lo, min(2 * sg.depth, c.depth(d1), c.depth(d2))):
                if l1.entries[k] != l2.entries[k]:
                    continue
                coincidences += 1
                if c.color(d1, k) != c.color(d2, k):
                    raise UniformizationError(
                        f"coincident value at index {k} carries different colors"
                    )
                if k % 2 == 1:
                    _divisibility_certificate(sg, hom, phi, d1, d2, k)
                    certificates += 1
    data = UniformizationData(psi, thresholds)
    report = RecoverReport(
        tuple((format_ordinal(dd), thresholds[dd]) for dd in sg.deltas),
        sum(map(len, spans.values())),
        coincidences,
        certificates,
        True,
    )
    return data, report


def _divisibility_certificate(sg, hom, phi, d1, d2, k) -> None:
    """Re-run the factorial divisibility argument at an odd coincidence
    position: projected difference chains stay zero up to the relation
    containing the position, forcing the two relation images to be congruent
    modulo n!, which for distinct basis elements means equal."""
    target = hom.target
    n = (k - 1) // 2
    proj = lambda a: target.project_first_index(a, n)  # noqa: E731
    diff = [
        proj(target.sub(hom.on_z(d1, s), hom.on_z(d2, s))) for s in range(n + 2)
    ]
    if diff[0] != target.zero:
        raise ExtensionError(
            f"support rule violated: projected seed difference nonzero at index {k}"
        )
    for s in range(n):
        if target.scale(sg.cfg.psi(s), diff[s + 1]) != diff[s]:
            raise ExtensionError(
                f"difference chain broken at step {s} for coincidence index {k}"
            )
    e_n = proj(target.sub(phi[(d1, n)], phi[(d2, n)]))
    got = target.sub(target.scale(sg.cfg.psi(n), diff[n + 1]), diff[n])
    if got != e_n:
        raise ExtensionError(
            f"relation-difference identity fails at coincidence index {k}"
        )
    modulus = sg.cfg.psi(n)
    if modulus >= 2 and any(coeff % modulus for _, coeff in e_n):
        raise ExtensionError(
            f"divisibility certificate fails at index {k}: {modulus} does not "
            "divide the relation difference"
        )
    if modulus >= 2 and e_n != target.zero:
        raise ExtensionError(
            f"relation images differ by a nonzero multiple at index {k}"
        )


# ---------------------------------------------------------------------------
# twisted extensions


@dataclass(frozen=True)
class TwistedStage:
    """A coloring-twisted stage over the ambient with the twist generator,
    the untwisted target stage, and the collapse map between them."""

    twisted: StageGroup
    untwisted: StageGroup
    collapse: GeneratorMap


@dataclass(frozen=True)
class ExactnessReport:
    relations_killed: bool
    kernel_is_twist_line: bool
    kernel_pure: bool
    surjective: bool

    @property
    def ok(self) -> bool:
        return (
            self.relations_killed
            and self.kernel_is_twist_line
            and self.kernel_pure
            and self.surjective
        )


def build_twisted(
    cfg: GroupConfig, coloring: Coloring, alpha: Ordinal, depth: int
) -> tuple[TwistedStage, ExactnessReport]:
    twisted = build_stage(cfg, alpha, depth, coloring=coloring)
    untwisted = build_stage(cfg, alpha, depth)
    # the collapse: the untwisted realization, and w to 0
    collapse = GeneratorMap({**untwisted.realization().images, WGEN: FreeElement()})
    hom = verify_hom(collapse, twisted.formal_relations())
    # The collapse is the identity matrix on the non-twist basis keys and
    # kills the twist generator, so once that diagonal shape is confirmed
    # the kernel is exactly the twist line and every target key is hit.
    src_keys, dst_keys, den, matrix = basis_matrix(collapse, twisted, untwisted)
    diagonal = den == 1 and all(
        {dst_keys[j]: q for j, q in row.items()} == ({} if key.kind == "w" else {key: 1})
        for key, row in zip(src_keys, matrix)
    )
    surjective = diagonal and set(dst_keys) == {k for k in src_keys if k.kind != "w"}
    pure = twisted.membership(FreeElement.single(WGEN)).pure_multiple == 1
    report = ExactnessReport(hom.ok, diagonal, pure, surjective)
    return TwistedStage(twisted, untwisted, collapse), report


# ---------------------------------------------------------------------------
# annihilators, sections, obstruction


def choose_annihilator(b: tuple[int, ...]) -> tuple[int, ...]:
    """A gcd-1 integer vector orthogonal to b.

    For length one this exists only for b = 0; otherwise two nonzero entries
    cancel against each other, a single nonzero entry is dodged by a unit
    vector elsewhere, and the zero vector takes the first unit vector.
    """
    t = len(b)
    if t == 0:
        raise ConfigError("empty block")
    nonzero = [i for i, v in enumerate(b) if v]
    if t == 1:
        if nonzero:
            raise ConfigError("no unimodular annihilator for a single nonzero entry")
        return (1,)
    if not nonzero:
        return (1,) + (0,) * (t - 1)
    if len(nonzero) == 1:
        i = nonzero[0]
        j = 0 if i != 0 else 1
        out = [0] * t
        out[j] = 1
        return tuple(out)
    i, j = nonzero[0], nonzero[1]
    g = gcd(b[i], b[j])
    out = [0] * t
    out[i] = b[j] // g
    out[j] = -b[i] // g
    return tuple(out)


@dataclass(frozen=True)
class SearchResult:
    found: bool
    bound: int
    seed_offsets: tuple[tuple[str, int], ...]
    section: GeneratorMap | None
    failing_delta: str | None
    candidates_tried: int


def _nearest_member(residue: int, modulus: int, lo: int, hi: int) -> int | None:
    """The member of residue mod modulus in [lo, hi] nearest 0, positive first, or None."""
    up = max(lo, 0) + (residue - max(lo, 0)) % modulus
    down = min(hi, -1) - (min(hi, -1) - residue) % modulus
    if up <= hi and (down < lo or up <= -down):
        return up
    return down if down >= lo else None


def _section_walks(cfg: GroupConfig, deltas, depth: int, colorings, lift):
    """Walk each delta's section chain psi(n)*d(n+1) = d(n) + shift(n) -
    color(n), shift(n) being the block coefficients against the x lift, under
    every coloring: P(n)*d(n) = d(0) + S(n) with P(n) = psi(0)...psi(n-1) and
    S(n) = sum_{i<n} P(i)*(shift(i) - color(i)).  Yields, delta by delta, the
    delta, P(0..depth) and each coloring's S(0..depth)."""
    for dd in deltas:
        prods, sums = [1], [[0] for _ in colorings]
        for n in range(depth):
            blocks = zip(cfg.coeff(dd, n), cfg.block_x_indices(dd, n))
            shift = sum(a * lift.get(beta, 0) for a, beta in blocks)
            for c, s in zip(colorings, sums):
                s.append(s[n] + prods[n] * (shift - c.color(dd, n)))
            prods.append(prods[n] * cfg.psi(n))
        yield dd, prods, sums


def _seed_search(walks, bound: int):
    """Solve each walked delta's section chain (_section_walks) for its seed.
    The seeds keeping every step integral form the class -S(depth) mod
    P(depth) (P(n) divides every later P(i)) and |d(n)| <= bound cuts it to
    an interval.  The seed taken under all colorings is the member nearest
    0, positive first, which a scan 0, 1, -1, 2, ... meets first;
    candidates_tried counts that scan's positions, 2*bound+1 for a delta
    without a seed, where the search stops.  Returns the result without a
    section and, per solved delta, the first coloring's chain.
    """
    offsets: dict[Ordinal, list[int]] = {}
    tried = 0
    for dd, prods, sums in walks:
        lo = max(-bound * p - s[n] for s in sums for n, p in enumerate(prods))
        hi = min(bound * p - s[n] for s in sums for n, p in enumerate(prods))
        residues = {-s[-1] % prods[-1] for s in sums}
        d0 = _nearest_member(residues.pop(), prods[-1], lo, hi) if len(residues) == 1 else None
        tried += 2 * bound + 1 if d0 is None else 2 * abs(d0) + (d0 <= 0)
        if d0 is None:
            return SearchResult(False, bound, (), None, format_ordinal(dd), tried), offsets
        offsets[dd] = [(d0 + s) // p for p, s in zip(prods, sums[0])]
    seeds = tuple((format_ordinal(dd), chain[0]) for dd, chain in offsets.items())
    return SearchResult(True, bound, seeds, None, None, tried), offsets


def _section_from_offsets(ts: TwistedStage, offsets, lift) -> GeneratorMap:
    """Each untwisted presentation generator to its twisted realization plus
    its offset times w: the x lift for x[beta], the chain offset for y."""
    images: dict[Generator, FreeElement] = {}
    for g in ts.untwisted.presentation_generators():
        offset = lift.get(g.ordinal, 0) if g.kind == "x" else offsets[g.ordinal][g.index]
        images[g] = ts.twisted.realize(g) + FreeElement.single(WGEN, offset)
    return GeneratorMap(images)


def splitting_search(
    ts: TwistedStage, bound: int, x_lift: dict[Ordinal, int] | None = None
) -> SearchResult:
    """Search for a section of the twisted stage with all twist offsets in
    [-bound, bound], the x lift being held fixed.

    Chains decouple per delta, so the seed offset of each chain is solved
    independently; a feasible assignment yields a verified section and an
    empty seed set is an exhaustion certificate for this bound.
    """
    lift = x_lift or {}
    tw = ts.twisted
    walks = _section_walks(tw.cfg, tw.deltas, tw.depth, [tw.coloring], lift)
    result, offsets = _seed_search(walks, bound)
    if not result.found:
        return result
    section = _section_from_offsets(ts, offsets, lift)
    hom = verify_hom(section, ts.untwisted.formal_relations())
    if not hom.ok:
        raise ExtensionError("section candidate failed relation check")
    if compose_maps(ts.collapse, section) != ts.untwisted.realization():
        raise ExtensionError("section candidate is not a right inverse")
    return replace(result, section=section)


def splitting_search_pair(
    cfg: GroupConfig, c1: Coloring, c2: Coloring, alpha: Ordinal, depth: int, bound: int,
    x_lift: dict[Ordinal, int] | None = None,
) -> SearchResult:
    """Joint section search for the stages of the group at level alpha and
    chain depth `depth` twisted by c1 and by c2, with a shared x lift and
    shared seed offsets, the finitary reading of the two-filter argument.
    Both colorings must fit the stage (stage_deltas); no stage is built."""
    deltas = stage_deltas(cfg, alpha, depth, c1)
    stage_deltas(cfg, alpha, depth, c2)
    return _seed_search(_section_walks(cfg, deltas, depth, [c1, c2], x_lift or {}), bound)[0]


def _fraction_str(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den >= 1, each integer part rendered by
    str(Decimal(k)): the same bytes, past str(int)'s 4300-digit limit too."""
    g = gcd(num, den)
    parts = (num // g,) if g == den else (num // g, den // g)
    return "/".join(str(Decimal(k)) for k in parts)


@dataclass(frozen=True)
class ObstructionVerdict:
    status: str  # OBSTRUCTED | NOT_OBSTRUCTED | INCONCLUSIVE
    nstar: int | None
    witness: str | None
    traces: tuple[tuple[str, tuple[tuple[int, int, str], ...]], ...]
    searches: tuple[tuple[int, str, int | None], ...]
    notes: tuple[str, ...]


def parity_obstruction(
    cfg: GroupConfig,
    c1: Coloring,
    c2: Coloring,
    b_data: dict[tuple[Ordinal, int], tuple[int, ...]],
    alpha: Ordinal,
    depth: int,
    bounds: tuple[int, ...] = (1, 5, 25),
) -> ObstructionVerdict:
    """Finite-stage splitting obstruction for a pair of colorings.

    With the x lift annihilated blockwise, the section offset chains of the
    two twisted stages subtract to a single difference chain with seed zero;
    each step divides by psi(n), and the first color difference at an index
    with psi >= 2 demands a fractional offset, which certifies that no pair
    of sections with shared seed and lift exists at any bound.  Bounded
    joint searches cross-validate the verdict.  The trace, the verdict and
    every bound's search read one walk of both chains (_section_walks).  No
    stage is built: the stage's deltas and the fit of both colorings come
    from stage_deltas.
    """
    # Checked first: a depth past the explored blocks of a stage ladder is
    # rejected before the lift below reads their sizes.
    deltas = stage_deltas(cfg, alpha, depth, c1)
    stage_deltas(cfg, alpha, depth, c2)
    lift: dict[Ordinal, int] = {}
    for dd in deltas:
        sl = cfg.system.ladder(dd)
        for n in range(depth):
            vec = b_data.get((dd, n), (0,) * sl.t(n))
            if len(vec) != sl.t(n):
                raise ConfigError(f"x lift for block ({format_ordinal(dd)},{n}) has wrong length")
            if sum(a * b for a, b in zip(cfg.coeff(dd, n), vec)):
                raise ConfigError(
                    f"x lift at ({format_ordinal(dd)},{n}) is not annihilated by "
                    "the block coefficients; use choose_annihilator"
                )
            for beta, b in zip(sl.block_values(n), vec):
                lift[beta] = b
    nstar = min(
        (n for dd in deltas for n in range(depth)
         if c1.color(dd, n) != c2.color(dd, n)),
        default=None,
    )
    walks = list(_section_walks(cfg, deltas, depth, [c1, c2], lift))
    traces = []
    witness = obstructed_at = None
    for dd, prods, (s1, s2) in walks:
        trace = []
        for n in range(depth):
            # Delta(n+1) = (S_c1(n+1) - S_c2(n+1)) / P(n+1): the lift's shift cancels
            diff, psi = s1[n + 1] - s2[n + 1], cfg.psi(n)
            trace.append((n, psi, _fraction_str(diff, prods[n + 1])))
            if diff % prods[n + 1] and obstructed_at is None:
                obstructed_at = n
                witness = (
                    f"{psi}*Delta = {_fraction_str(diff, prods[n])} has no integer solution "
                    f"(step {n} on {format_ordinal(dd)})"
                )
        traces.append((format_ordinal(dd), tuple(trace)))
    notes = []
    if nstar is None:
        status = "NOT_OBSTRUCTED"
    elif cfg.psi(nstar) == 1:
        status = "INCONCLUSIVE"
        notes.append(
            f"first color difference at index {nstar} where psi = 1 divides "
            "everything; one-step argument underivable"
        )
        if obstructed_at is not None:
            notes.append(f"chain propagation still breaks at step {obstructed_at}")
    elif obstructed_at is not None:
        status = "OBSTRUCTED"
    else:
        status = "INCONCLUSIVE"
        notes.append("color differences absorbed by the psi chain")
    searches = []
    for bound in bounds:
        result = _seed_search(walks, bound)[0]
        searches.append(
            (bound, "found" if result.found else "exhausted",
             result.seed_offsets[0][1] if result.found and result.seed_offsets else None)
        )
        if status == "OBSTRUCTED" and result.found:
            raise ExtensionError(
                "algebraic obstruction contradicted by a bounded section pair"
            )
    return ObstructionVerdict(
        status, nstar, witness, tuple(traces), tuple(searches), tuple(notes)
    )
