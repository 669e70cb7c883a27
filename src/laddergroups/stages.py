"""Stage groups: truncated presentations with their filtration, separability
projections and freeness bases.

A stage fixes a level alpha and a chain depth N.  Its basis is the chain
elements chain(delta, N) for delta below alpha together with the explored x
generators (twisted stages also carry the twist generator w); every stage
element rewrites uniquely over that basis, which is what makes membership,
projections and freeness certificates finite computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from math import lcm

from .ordinals import Ordinal, format_ordinal, plus_omega
from .presentation import (
    ConfigError,
    FreeElement,
    Generator,
    GeneratorMap,
    GroupConfig,
    MembershipResult,
    ScopeError,
    WGEN,
    basis_order,
    block_element,
    chain_relation,
    chain_table,
    generator_level,
    relation_label,
    rewrite_over_chains,
    verify_hom,
    xgen,
    ygen,
)


@dataclass(frozen=True)
class StageGroup:
    """A stage as built by build_stage; chains maps each chain symbol
    y(delta, n) with n <= depth to its concrete chain element, the table
    that realize, rewrite and membership read."""

    cfg: GroupConfig
    alpha: Ordinal
    depth: int
    coloring: object = None
    x_indices: tuple[Ordinal, ...] = field(default=(), repr=False)
    chains: dict[Generator, FreeElement] = field(default_factory=dict, repr=False, compare=False)

    @property
    def deltas(self) -> tuple[Ordinal, ...]:
        return self.cfg.system.deltas_below(self.alpha)

    def stage_basis(self) -> tuple[Generator, ...]:
        keys = [ygen(d, self.depth) for d in self.deltas]
        keys.extend(xgen(b) for b in self.x_indices)
        if self.coloring is not None:
            keys.append(WGEN)
        return tuple(keys)

    def presentation_generators(self) -> tuple[Generator, ...]:
        keys = [ygen(d, n) for d in self.deltas for n in range(self.depth + 1)]
        keys.extend(xgen(b) for b in self.x_indices)
        if self.coloring is not None:
            keys.append(WGEN)
        return tuple(keys)

    def formal_relations(self) -> list[tuple[str, FreeElement]]:
        """The labelled relations (delta, n) for each delta and n < depth,
        built on the first call and shared by later ones; read-only."""
        return self._formal_relations

    @cached_property
    def _formal_relations(self) -> list[tuple[str, FreeElement]]:
        return [
            (relation_label(d, n), chain_relation(self.cfg, d, n, self.coloring))
            for d in self.deltas
            for n in range(self.depth)
        ]

    def realize(self, key: Generator) -> FreeElement:
        if key.kind != "y":
            return FreeElement.single(key)
        try:
            return self.chains[key]
        except KeyError:
            raise ScopeError(f"{key} outside the stage") from None

    def realization(self) -> GeneratorMap:
        """Each presentation generator to its concrete element."""
        return GeneratorMap({g: self.realize(g) for g in self.presentation_generators()})

    def hom_from_basis(self, images: dict[Generator, FreeElement]) -> GeneratorMap:
        """The homomorphism out of the stage presentation with the given
        images of the stage basis keys (a missing key raises MapDomainError,
        other keys are not read).  The presentation is free on its basis:
        each y(delta, n) with n < depth is solved from its relation,
        psi(n) * y(delta, n+1) - block(n) (- its twist term), from
        n = depth - 1 down."""
        given = GeneratorMap(images)
        gmap = GeneratorMap({k: given.image_of(k) for k in self.stage_basis()})
        keys = [ygen(d, n) for d in self.deltas for n in range(self.depth)]
        for key, (_, rel) in zip(reversed(keys), reversed(self.formal_relations())):
            gmap.images[key] = gmap.apply(rel + FreeElement.single(key))
        return gmap

    def rewrite(self, e: FreeElement, depth: int | None = None) -> FreeElement:
        """Coordinates of e over the stage basis, or over the basis with
        chain index `depth` (at most the stage's), read from the stage's
        chain table.  The first generator of e in basis order that is not
        in the stage raises ScopeError: an x generator or seed not the
        stage's, a chain symbol, w on an untwisted stage, or a seed past the
        stage depth."""
        depth = self.depth if depth is None else depth
        return rewrite_over_chains(e, depth, lambda d: self.realize(ygen(d, depth)),
                                   self.coloring is not None, self._scope)

    def membership(self, e: FreeElement) -> MembershipResult:
        """Integer-span membership in the stage, with the least positive
        multiple landing in it."""
        coords = self.rewrite(e)
        mult = coords.integer_form()[0]
        return MembershipResult(mult == 1, mult, coords)

    @cached_property
    def _scope(self) -> frozenset[Generator]:
        return frozenset(self.presentation_generators())


def stage_deltas(cfg: GroupConfig, alpha: Ordinal, depth: int,
                 coloring=None) -> tuple[Ordinal, ...]:
    """The deltas below alpha, once a stage of this depth is known to fit:
    the depth is not negative, each of their ladders is explored through
    `depth` blocks, and the coloring, if given, reaches `depth` on each of
    them.  The first failed check raises ConfigError."""
    if depth < 0:
        raise ConfigError(f"stage depth must be non-negative, got {depth}")
    deltas = cfg.system.deltas_below(alpha)
    for d in deltas:
        if (explored := cfg.system.ladder(d).block_count) < depth:
            raise ConfigError(f"ladder on {format_ordinal(d)} explored to {explored} blocks, "
                              f"need {depth}; increase depth")
        if coloring is not None and coloring.depth(d) < depth:
            raise ConfigError(f"coloring on {format_ordinal(d)} shallower than stage depth")
    return deltas


def build_stage(
    cfg: GroupConfig,
    alpha: Ordinal,
    depth: int,
    coloring=None,
    extra_x: tuple[Ordinal, ...] = (),
) -> StageGroup:
    """Assemble and verify a stage: it must fit the group and the coloring
    (stage_deltas), and the realization through the closed-form chain
    elements, one chain_table walk per ladder, must kill every relation
    before the stage is accepted (read on the chain rows by _open_relation;
    the message renders the residue through verify_hom)."""
    deltas = stage_deltas(cfg, alpha, depth, coloring)
    xs = set(extra_x)
    for d in deltas:
        sl = cfg.system.ladder(d)
        xs.update(sl.entries[: sl.k(depth)])
    chains = {ygen(d, n): e for d in deltas
              for n, e in enumerate(chain_table(cfg, d, depth, coloring))}
    stage = StageGroup(cfg, alpha, depth, coloring,
                       tuple(sorted(xs)), chains)
    if (failed := _open_relation(stage)) is not None:
        label, residue = verify_hom(stage.realization(), [failed]).failures[0]
        raise ConfigError(f"relation {label} does not close: {residue}")
    return stage


def _open_relation(stage: StageGroup) -> tuple[str, FreeElement] | None:
    """The first formal relation that the stage's realization does not kill,
    or None, read where its terms live.

    Relation (delta, n) is c1*y(delta, n+1) + c0*y(delta, n) + t, with t its
    x and w terms.  With chain(i) = r(i) / d(i) in lowest terms it dies
    exactly when c1*d(n)*r(n+1) + c0*d(n+1)*r(n) + d(n)*d(n+1)*t vanishes.
    When c0 = -1 and d(n+1) = c1*d(n), as for every chain_table row, whose
    seed numerator is 1, that is r(n+1) - r(n) = -d(n)*t: the two rows agree
    off t, where the table shares its ints, so only t's terms are computed."""
    for relation in stage.formal_relations():
        t = dict(relation[1].integer_form()[1])
        lo, hi = sorted(g for g in t if g.kind == "y")
        c0, c1 = t.pop(lo), t.pop(hi)
        (d0, r0), (d1, r1) = stage.chains[lo].integer_form(), stage.chains[hi].integer_form()
        if c0 == -1 and d1 == c1 * d0:
            # r(n) moved by -d(n)*t, compared key by key with r(n+1)
            want = {**r0, **{g: r0.get(g, 0) - d0 * c for g, c in t.items()}}
            closes = r1 == {g: v for g, v in want.items() if v}
        else:
            closes = not any(c1 * d0 * r1.get(g, 0) + c0 * d1 * r0.get(g, 0)
                             + d0 * d1 * t.get(g, 0) for g in {*r0, *r1, *t})
        if not closes:
            return relation
    return None


def filtration_subgroup(sg: StageGroup, mu: Ordinal) -> tuple[Generator, ...]:
    """Stage basis of the filtration subgroup at level mu: the basis keys
    whose admission level is at most mu (w is carried at every level)."""
    if sg.alpha < mu:
        raise ScopeError(f"level {mu} above stage level {sg.alpha}")
    keys = []
    for key in sg.stage_basis():
        if key.kind == "w" or not mu < generator_level(key):
            keys.append(key)
    return tuple(keys)


def basis_matrix(
    gmap: GeneratorMap, src: StageGroup, dst: StageGroup
) -> tuple[tuple[Generator, ...], tuple[Generator, ...], int, list[dict[int, int]]]:
    """The source and destination stage bases and the sparse basis matrix of
    a map from src to dst, as integer rows over one denominator den, the
    lcm of the coordinates' own: row i maps column indices to den times the
    nonzero destination coordinates of the image of source basis key i."""
    src_keys = src.stage_basis()
    dst_keys = dst.stage_basis()
    index = {k: i for i, k in enumerate(dst_keys)}
    forms = [dst.rewrite(gmap.image_of(key)).integer_form() for key in src_keys]
    den = lcm(*(d for d, _ in forms))
    rows = [{index[k]: n * (den // d) for k, n in nums.items()} for d, nums in forms]
    return src_keys, dst_keys, den, rows


# ---------------------------------------------------------------------------
# separability projections


@dataclass(frozen=True)
class ProjectionReport:
    nu: str
    cuts: tuple[tuple[str, int], ...]
    relations_killed: int
    identity_on_level: int
    images_in_level: int
    idempotent: int
    closed_form_notes: tuple[str, ...]
    ok: bool


def projection(sg: StageGroup, nu: Ordinal) -> tuple[GeneratorMap, ProjectionReport]:
    """Projection of the stage onto its filtration subgroup at level nu.

    On the stage basis, x generators at or above nu + omega are killed,
    those below are fixed, and chain(delta, N) is fixed for delta below nu
    and killed above it; the chain symbols below N follow from the
    relations.  For each delta above nu the chain then vanishes from the
    first block whose head reaches nu + omega, the cut reported: a block
    below the cut sits entirely inside the level subgroup, so its block
    element must survive the projection intact.
    """
    if sg.coloring is not None:
        raise ScopeError("projections are defined on untwisted stages")
    if nu in sg.cfg.system.deltas:
        raise ScopeError(f"{nu} carries a ladder; projections need nu outside the set")
    if sg.alpha < nu:
        raise ScopeError(f"nu {nu} above stage level {sg.alpha}")
    cfg = sg.cfg
    bound = plus_omega(nu)
    images = {xgen(b): FreeElement.single(xgen(b)) if b < bound else FreeElement()
              for b in sg.x_indices}
    for d in sg.deltas:
        key = ygen(d, sg.depth)
        images[key] = sg.realize(key) if d < nu else FreeElement()
    gmap = sg.hom_from_basis(images)
    cuts = []
    notes = []
    for d in sg.deltas:
        if nu < d:
            sl = cfg.system.ladder(d)
            cut = next((n for n in range(sg.depth) if not sl.head(n) < bound), sg.depth)
            cuts.append((format_ordinal(d), cut))
            notes.extend(_closed_form_notes(cfg, d, cut, gmap))

    relations = sg.formal_relations()
    hom = verify_hom(gmap, relations)
    sub = filtration_subgroup(sg, nu)
    identity = sum(1 for key in sub if gmap.image_of(key) == sg.realize(key))
    # in the level subgroup: integral coordinates on the keys it admits
    admitted = set(sub)
    in_level = 0
    for g in gmap.domain():
        d, nums = sg.rewrite(gmap.image_of(g)).integer_form()
        if d == 1 and admitted.issuperset(nums):
            in_level += 1
    idem = sum(
        1 for g in gmap.domain() if gmap.apply(gmap.image_of(g)) == gmap.image_of(g)
    )
    total = len(gmap.domain())
    ok = hom.ok and identity == len(sub) and in_level == total and idem == total
    report = ProjectionReport(
        format_ordinal(nu),
        tuple(cuts),
        len(relations) - len(hom.failures),
        identity,
        in_level,
        idem,
        tuple(notes),
        ok,
    )
    return gmap, report


def _closed_form_notes(cfg, d, cut, gmap: GeneratorMap) -> list[str]:
    """Compare the recursion against the two closed-form weightings.

    The unshifted product of psi values reproduces the recursion; the
    shifted weighting psi(j+1) found in closed-form write-ups disagrees
    whenever psi is not constant on the range, and gets a note."""
    notes = []
    blocks = [gmap.apply(block_element(cfg, d, i)) for i in range(cut)]
    for n in range(cut):
        recursion = gmap.image_of(ygen(d, n))
        plain = FreeElement()
        shifted = FreeElement()
        for i in range(n, cut):
            plain = plain + blocks[i].scale(-cfg.psi_product(n, i))
            shifted = shifted + blocks[i].scale(-cfg.psi_product(n + 1, i + 1))
        if plain != recursion:
            notes.append(f"plain closed form diverges at ({format_ordinal(d)},{n})")
        if shifted != recursion:
            notes.append(
                f"shifted psi(j+1) closed form diverges from recursion at "
                f"({format_ordinal(d)},{n})"
            )
    return notes


# ---------------------------------------------------------------------------
# freeness bases


@dataclass(frozen=True)
class FreenessBasis:
    basis: tuple[Generator, ...]
    chain_cut: int
    basis_chain_index: int
    closure: tuple[Generator, ...]
    ok: bool
    problems: tuple[str, ...]


def freeness_basis(sg: StageGroup, T: tuple[Generator, ...]) -> FreenessBasis:
    """Explicit free basis of the pure closure of T in the stage.

    T is enlarged as in the freeness argument: a uniform chain cut m over
    the touched deltas, all chain symbols up to m, and the ladder x
    generators below breakpoint m+1.  The basis keeps chain index m when
    psi(m) = 1; otherwise the pure closure picks up one more division and
    the chain index m+1 is required (the gcd-1 block coefficients make that
    element primitive).  Every closure element is certified to have integral
    coordinates over the basis, solved by hom_from_basis from the stage's
    relations below the basis chain index, and the basis is independent
    because each chain key's realization alone carries its seed.
    """
    if sg.coloring is not None:
        raise ScopeError("freeness bases are defined on untwisted stages")
    cfg = sg.cfg
    for g in T:
        if g not in sg._scope:
            raise ScopeError(f"{g} outside stage scope")
    touched = sorted({g.ordinal for g in T if g.kind == "y"})
    if not touched:
        basis = tuple(basis_order(set(T)))
        return FreenessBasis(basis, 0, 0, basis, True, ())
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
    shallow = ConfigError("stage too shallow for the requested closure; increase depth")
    if m + 1 > min(cfg.system.ladder(d).block_count for d in touched):
        raise shallow
    closure: set[Generator] = set(T)
    basis: set[Generator] = {g for g in T if g.kind == "x"}
    for d in touched:
        sl = cfg.system.ladder(d)
        xs = [xgen(b) for b in sl.entries[: sl.k(m + 1)]]
        closure.update((ygen(d, n) for n in range(mstar + 1)), xs)
        basis.update([ygen(d, mstar)], xs)
    if not closure <= sg._scope:
        raise shallow
    # the stage cut at mstar: the same chain table, the relations below mstar
    low = replace(sg, depth=mstar)
    coords = low.hom_from_basis({k: FreeElement.single(k) for k in low.stage_basis()})
    problems = []
    basis_sorted = tuple(basis_order(basis))
    for g in basis_order(closure):
        den, nums = coords.image_of(g).integer_form()
        # the first offending coordinate in basis order, if any; an integral
        # element (den 1, in lowest terms) has no fractional coordinate
        fractional = {k for k in nums if nums[k] % den} if den > 1 else set()
        offenders = basis_order(fractional | (nums.keys() - basis))
        if offenders and offenders[0] in fractional:
            problems.append(f"{g} has fractional coordinate over the basis")
        elif offenders:
            problems.append(f"{g} touches {offenders[0]} outside the basis")
    # independent: each chain key's realization carries its own seed
    # y(delta, 0) and no other, and the x keys are distinct generators
    seeds = [{g for g in low.realize(k).support() if g.kind == "y"} for k in basis_sorted]
    if seeds != [{ygen(k.ordinal, 0)} if k.kind == "y" else set() for k in basis_sorted]:
        problems.append("basis independence not certified by the seeds")
    return FreenessBasis(
        basis_sorted,
        m,
        mstar,
        tuple(basis_order(closure)),
        not problems,
        tuple(problems),
    )
