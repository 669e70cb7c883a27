"""Disjointification of ladder tails, overlap rigidity, and level-preserving
stage isomorphisms between groups built on range-matched ladder systems.

Two systems with the same omega-range yield stages that are isomorphic by a
map respecting every filtration level.  The map fixes most x generators,
sends each tail ladder value of the simple source to the matching block
combination of the destination, swaps the destination block heads back, and
matches the top chain elements.  Like the inverse, it is given on the stage
basis and extended to the chain symbols by solving the stage relations.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .ladders import (
    LadderInvalidError,
    LadderSystem,
    first_block_reaching,
    omega_range,
)
from .ordinals import Ordinal, format_ordinal
from .presentation import (
    FreeElement,
    Generator,
    GeneratorMap,
    GroupConfig,
    ScopeError,
    block_element,
    gauss_jordan,
    generator_level,
    verify_hom,
    xgen,
)
from .stages import StageGroup, basis_matrix, build_stage


@dataclass(frozen=True)
class Disjointification:
    """Block thresholds m_delta making the ladder tails pairwise disjoint."""

    thresholds: dict[Ordinal, int]
    certified: bool
    minimality_notes: tuple[str, ...]

    def m(self, delta: Ordinal) -> int:
        return self.thresholds[delta]


def _tail(sl, m: int) -> list[tuple[int, Ordinal]]:
    """(n, value) for each ladder value of the blocks n >= m."""
    return [(n, v) for n in range(m, sl.block_count) for v in sl.block_values(n)]


def _tails_disjoint(sys: LadderSystem, thresholds: dict[Ordinal, int]) -> bool:
    blocks: list[set] = []
    expanded: list[set] = []
    for d, sl in sys.items():
        m = thresholds[d]
        blocks.append(set(omega_range(sl).blocks[m:]))
        expanded.append({v for _, v in _tail(sl, m)})
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if blocks[i] & blocks[j] or expanded[i] & expanded[j]:
                return False
    return True


def disjointify(sys: LadderSystem) -> Disjointification:
    """Thresholds from the ordering argument: the tail of each ladder must
    clear every smaller delta.  The resulting tails, both the block head "+
    omega" values and the expanded per-index values, are certified pairwise
    disjoint by a direct scan."""
    thresholds: dict[Ordinal, int] = {}
    for d, sl in sys.items():
        m = 0
        for smaller in sys.deltas_below(d):
            m = max(m, first_block_reaching(sl, smaller))
        thresholds[d] = m
    certified = _tails_disjoint(sys, thresholds)
    notes = []
    deltas = sys.deltas
    if deltas and thresholds[deltas[-1]] > 0:
        top = deltas[-1]
        trial = dict(thresholds)
        trial[top] -= 1
        still = _tails_disjoint(sys, trial)
        notes.append(
            f"decrementing m[{format_ordinal(top)}] "
            + ("keeps tails disjoint" if still else "breaks disjointness")
        )
    return Disjointification(thresholds, certified, tuple(notes))


@dataclass(frozen=True)
class OverlapReport:
    coincidences: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def overlap_check(
    sys_a: LadderSystem, sys_b: LadderSystem, d: Disjointification
) -> OverlapReport:
    """Scan all tail value coincidences between the two systems; each must
    identify the delta and the block index.  Requires equal omega-ranges."""
    ranges_a = {dd: omega_range(sl) for dd, sl in sys_a.items()}
    ranges_b = {dd: omega_range(sl) for dd, sl in sys_b.items()}
    if set(ranges_a) != set(ranges_b) or any(
        ranges_a[dd].blocks != ranges_b[dd].blocks for dd in ranges_a
    ):
        raise LadderInvalidError("omega-ranges of the two systems differ")
    count = 0
    violations = []
    tails_b = {d2: {v: m for m, v in _tail(l2, d.m(d2))} for d2, l2 in sys_b.items()}
    for d1, l1 in sys_a.items():
        tail = _tail(l1, d.m(d1))
        for d2, vals2 in tails_b.items():
            for n, v in tail:
                if v in vals2:
                    count += 1
                    m = vals2[v]
                    if d1 != d2 or m != n:
                        violations.append(
                            f"value {v} shared by ({format_ordinal(d1)},{n}) "
                            f"and ({format_ordinal(d2)},{m})"
                        )
    return OverlapReport(count, tuple(violations))


# ---------------------------------------------------------------------------
# level-preserving isomorphisms


def build_matched_stages(
    cfg_src: GroupConfig, cfg_dst: GroupConfig, alpha: Ordinal, depth: int
) -> tuple[StageGroup, StageGroup]:
    """Build the two stages over a shared x universe so their bases are
    directly comparable."""
    shared: set[Ordinal] = set()
    for cfg in (cfg_src, cfg_dst):
        for dd in cfg.system.deltas_below(alpha):
            sl = cfg.system.ladder(dd)
            shared.update(sl.entries[: sl.k(depth)])
    extra = tuple(sorted(shared))
    return (
        build_stage(cfg_src, alpha, depth, extra_x=extra),
        build_stage(cfg_dst, alpha, depth, extra_x=extra),
    )


def level_iso_build(
    src: StageGroup, dst: StageGroup, d: Disjointification
) -> GeneratorMap:
    """The level-preserving stage isomorphism between a simple source and a
    range-matched destination.

    Tail clauses (block image, head swap) follow the disjointification
    thresholds, the other x generators are fixed, and chain(delta, N) goes
    to its destination counterpart; the chain symbols below N follow from
    the source relations, so from the threshold up they match the
    destination chain.  Destination blocks must lead with coefficient 1,
    which keeps the head swap unimodular.
    """
    if src.alpha != dst.alpha or src.depth != dst.depth:
        raise ScopeError("stages must share level and depth")
    if src.cfg.psi != dst.cfg.psi:
        raise ScopeError("stages must share psi")
    if src.x_indices != dst.x_indices:
        raise ScopeError("stages must share their x universe; use build_matched_stages")
    if not src.cfg.has_block_shape(src.depth, (1,)):
        raise ScopeError(
            "source stage must be of the simplest form "
            "(k_n = n, singleton blocks, unit coefficients)"
        )
    depth = src.depth
    if set(src.deltas) != set(dst.deltas):
        raise ScopeError("stages must live on the same deltas")
    for dd in src.deltas:
        eta = src.cfg.system.ladder(dd)
        nu = dst.cfg.system.ladder(dd)
        if omega_range(eta).blocks[:depth] != omega_range(nu).blocks[:depth]:
            raise LadderInvalidError(f"omega-ranges differ on {format_ordinal(dd)}")
        for n in range(depth):
            if dst.cfg.coeff(dd, n)[0] != 1:
                raise ScopeError(
                    f"destination block ({format_ordinal(dd)},{n}) does not lead "
                    "with coefficient 1 (normalization not applied)"
                )
        if d.m(dd) > depth:
            raise ScopeError(f"threshold for {format_ordinal(dd)} exceeds stage depth")

    images: dict[Generator, FreeElement] = {}

    def put(key: Generator, value: FreeElement) -> None:
        if key in images and images[key] != value:
            raise ScopeError(f"conflicting images for {key}")
        images[key] = value

    for dd in src.deltas:
        eta = src.cfg.system.ladder(dd)
        nu = dst.cfg.system.ladder(dd)
        for n in range(d.m(dd), depth):
            src_val = eta.entries[n]
            put(xgen(src_val), block_element(dst.cfg, dd, n))
            head = nu.head(n)
            if head != src_val:
                put(xgen(head), FreeElement.single(xgen(src_val)))
    # the other x generators are fixed, and chain(delta, N) goes to its match
    for key in src.stage_basis():
        images.setdefault(key, dst.realize(key))
    return src.hom_from_basis(images)


@dataclass(frozen=True)
class LevelIsoReport:
    relations_ok: bool
    images_in_group: bool
    determinant: str
    inverse_integral: bool
    level_checks: tuple[tuple[str, bool], ...]
    src_basis: tuple[str, ...]
    dst_basis: tuple[str, ...]
    matrix: tuple[tuple[str, ...], ...]
    ok: bool


def level_iso_verify(
    gmap: GeneratorMap, src: StageGroup, dst: StageGroup
) -> LevelIsoReport:
    """Three checks: source relations die in the destination, the basis
    matrix is integrally invertible, and every filtration level maps onto
    the matching destination level.  The integer basis matrix itself is
    part of the certificate.

    A homomorphism defined on the whole source presentation sends each
    y(delta, n) with n < N to psi(n) times the image of y(delta, n+1) minus
    the image of block(n), an integer combination of basis-key images, so
    its images lie in the destination exactly when the basis matrix is
    integral.  Other maps are checked image by image.

    An image that leaves the destination stage leaves no basis matrix: the
    report then has images_in_group and inverse_integral false, determinant
    "0", no level checks and an empty matrix, and ok false."""
    hom = verify_hom(gmap, src.formal_relations())
    whole = hom.ok and set(gmap.images) == set(src.presentation_generators())
    try:
        src_keys, dst_keys, den, matrix = basis_matrix(gmap, src, dst)
        integral = den == 1
        in_group = integral if whole else all(
            dst.membership(gmap.image_of(g)).in_group for g in gmap.domain()
        )
    except ScopeError:
        bases = (tuple(map(str, sg.stage_basis())) for sg in (src, dst))
        return LevelIsoReport(hom.ok, False, "0", False, (), *bases, (), False)
    n = len(dst_keys)
    det = gauss_jordan(matrix, range(n))[0]
    inverse_ok = integral and abs(det) == 1
    level_checks = _level_checks(src, dst, src_keys, dst_keys, den, matrix)
    ok = hom.ok and in_group and inverse_ok and all(passed for _, passed in level_checks)
    return LevelIsoReport(
        hom.ok,
        in_group,
        str(Fraction(det, den**n)),
        inverse_ok,
        level_checks,
        tuple(str(k) for k in src_keys),
        tuple(str(k) for k in dst_keys),
        tuple(_row_strings(row, den, n) for row in matrix),
        ok,
    )


def _row_strings(row: dict[int, int], den: int, n: int) -> tuple[str, ...]:
    """The n entries of a sparse integer row over den, as report strings."""
    out = ["0"] * n
    for j, v in row.items():
        out[j] = str(Fraction(v, den))
    return tuple(out)


def _level_checks(
    src: StageGroup,
    dst: StageGroup,
    src_keys: tuple[Generator, ...],
    dst_keys: tuple[Generator, ...],
    den: int,
    matrix: list[dict[int, int]],
) -> tuple[tuple[str, bool], ...]:
    """The verdict at every filtration level mu, ascending: the rows of the
    source keys admitted at mu must lie in the destination columns admitted
    at mu and form a block of determinant +-1 there, that is of |det| equal
    to den ** len(rows) over the integer rows.

    Levels are walked once over the rows and columns ordered by admission
    level.  When the previous level's block M' was contained and square,
    the new rows vanish outside the columns admitted up to now and the old
    rows vanish on the new columns, so M = [[M', 0], [C, D]] and only the
    new diagonal block D is eliminated: |det M| = |det M'| * |det D|.  A
    block's rows go to the kernel whole; entries off its columns ride along.
    """
    row_level = [generator_level(k) for k in src_keys]
    levels = sorted({*row_level, src.alpha})
    top = bisect_right(levels, dst.alpha)
    if top < len(levels):
        raise ScopeError(f"level {levels[top]} above stage level {dst.alpha}")
    step = {mu: s for s, mu in enumerate(levels)}
    new_rows: list[list[int]] = [[] for _ in levels]
    for i, mu in enumerate(row_level):
        new_rows[step[mu]].append(i)
    new_cols: list[list[int]] = [[] for _ in levels]
    col_step = [
        0 if k.kind == "w" else bisect_left(levels, generator_level(k))
        for k in dst_keys
    ]
    for j, s in enumerate(col_step):
        if s < len(levels):
            new_cols[s].append(j)
    checks = []
    rows: list[int] = []
    cols: list[int] = []
    reach = 0  # the step by which every admitted row's support is admitted
    det = None  # |det| of the previous level's block if contained and square
    for s, mu in enumerate(levels):
        rows += new_rows[s]
        cols += new_cols[s]
        reach = max([reach, *(col_step[j] for i in new_rows[s] for j in matrix[i])])
        if reach > s or len(rows) != len(cols):
            det = None
        elif det is None:
            det = abs(gauss_jordan([matrix[i] for i in rows], cols)[0])
        else:
            det *= abs(gauss_jordan([matrix[i] for i in new_rows[s]], new_cols[s])[0])
        checks.append((format_ordinal(mu), det == den ** len(rows)))
    return tuple(checks)


def invert_level_iso(
    gmap: GeneratorMap, src: StageGroup, dst: StageGroup
) -> GeneratorMap:
    """Inverse of a verified stage isomorphism, as a map on the destination
    presentation.

    The basis matrix of gmap must be square and nonsingular; otherwise
    ScopeError is raised.  Row j of its inverse gives the source basis
    coordinates of destination basis key j, whose realization in the source
    is that key's image; the destination chain symbols below N follow from
    the destination relations.
    """
    src_keys, dst_keys, den, matrix = basis_matrix(gmap, src, dst)
    n = len(dst_keys)
    det, _, reduced = gauss_jordan(
        [{**row, n + i: 1} for i, row in enumerate(matrix)], range(n)
    )
    if not det:
        raise ScopeError("basis matrix is singular or not square")
    realize = GeneratorMap({key: src.realize(key) for key in src_keys})
    return dst.hom_from_basis({
        key: realize.apply(FreeElement.from_numerators(
            abs(det), {src_keys[j - n]: den * v for j, v in row.items() if j >= n}))
        for key, row in zip(dst_keys, reduced)
    })
