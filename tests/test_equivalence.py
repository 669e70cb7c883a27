import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from laddergroups import equivalence
from laddergroups.equivalence import (
    Disjointification,
    LevelIsoReport,
    build_matched_stages,
    disjointify,
    invert_level_iso,
    level_iso_build,
    level_iso_verify,
    overlap_check,
)
from laddergroups.ladders import (
    LadderInvalidError,
    LadderSystem,
    companion_same_range,
    make_simple_special,
    prefix_special,
)
from laddergroups.ordinals import Ordinal, format_ordinal, nat, omega_power, parse_ordinal
from laddergroups.presentation import (
    FreeElement,
    GeneratorMap,
    GroupConfig,
    ScopeError,
    compose_maps,
    gauss_jordan,
    generator_level,
    verify_hom,
    xgen,
    ygen,
)
from laddergroups.stages import build_stage, filtration_subgroup

W2 = omega_power(2)
W2_2 = omega_power(2, 2)
ALPHA = parse_ordinal("w^2*2+1")


def simple_system(blocks=8):
    return LadderSystem.build(
        ALPHA,
        {W2: make_simple_special(W2, blocks), W2_2: make_simple_special(W2_2, blocks)},
    )


def companion_system(src: LadderSystem, sizes: dict) -> LadderSystem:
    ladders = {
        d: companion_same_range(src.ladder(d), tuple(sizes[d]))
        for d in src.deltas
    }
    return LadderSystem.build(src.alpha, ladders)


def companion_config(sys2: LadderSystem, rng: random.Random) -> GroupConfig:
    def rule(delta, n, t):
        return (1,) + tuple(rng.randint(-3, 3) for _ in range(t - 1))

    return GroupConfig.from_rule(sys2, None, rule)


def test_disjointify_separated_blocks():
    d = disjointify(simple_system())
    assert d.certified
    assert d.thresholds == {W2: 0, W2_2: 0}


def test_disjointify_dipping_ladder():
    low = make_simple_special(W2, 8)
    dipped = prefix_special(
        W2_2,
        tuple(parse_ordinal(f"w*{n + 1}+3") for n in range(3))
        + tuple(parse_ordinal(f"w^2*1+w*{n + 1}+1") for n in range(3, 8)),
    )
    sys = LadderSystem.build(ALPHA, {W2: low, W2_2: dipped})
    d = disjointify(sys)
    assert d.certified
    assert d.thresholds[W2] == 0
    assert d.thresholds[W2_2] == 3
    assert any("breaks disjointness" in n for n in d.minimality_notes)


def test_disjointify_singleton():
    sys = LadderSystem.build(parse_ordinal("w^2+1"), {W2: make_simple_special(W2, 6)})
    d = disjointify(sys)
    assert d.thresholds == {W2: 0} and d.certified


def test_overlap_companion_has_no_violations():
    src = simple_system()
    dst = companion_system(src, {W2: [2] * 8, W2_2: [1, 2, 3, 1, 2, 3, 1, 2]})
    d = disjointify(src)
    rep = overlap_check(src, dst, d)
    assert rep.ok
    assert rep.coincidences > 0


def test_overlap_self_coincidences_are_diagonal():
    src = simple_system()
    rep = overlap_check(src, src, disjointify(src))
    assert rep.ok
    assert rep.coincidences == sum(
        src.ladder(d).block_count for d in src.deltas
    ) * 1


def test_overlap_names_tail_values_shared_across_deltas():
    # the second system's w^2*2 ladder opens on the w^2 ladder's values, in
    # the same omega intervals, so the omega-ranges agree; below the
    # certified threshold 3 those shared values sit at different deltas
    def dipped(succ):
        return prefix_special(
            W2_2,
            tuple(parse_ordinal(f"w*{n + 1}+{succ}") for n in range(3))
            + tuple(parse_ordinal(f"w^2*1+w*{n + 1}+1") for n in range(3, 8)),
        )

    low = make_simple_special(W2, 8)
    sys_a = LadderSystem.build(ALPHA, {W2: low, W2_2: dipped(3)})
    sys_b = LadderSystem.build(ALPHA, {W2: low, W2_2: dipped(1)})
    rep = overlap_check(sys_a, sys_b, Disjointification({W2: 0, W2_2: 0}, False, ()))
    assert not rep.ok
    assert rep.coincidences == 16
    assert rep.violations == tuple(
        f"value w*{n + 1}+1 shared by (w^2*1,{n}) and (w^2*2,{n})" for n in range(3)
    )
    certified = overlap_check(sys_a, sys_b, disjointify(sys_a))
    assert certified.ok and certified.coincidences == 13


def test_overlap_rejects_range_mismatch():
    src = simple_system(8)
    # a ladder climbing twice as fast occupies different omega intervals
    skipping = prefix_special(
        W2, tuple(parse_ordinal(f"w*{2 * n + 1}+1") for n in range(8))
    )
    other = LadderSystem.build(
        ALPHA, {W2: skipping, W2_2: make_simple_special(W2_2, 8)}
    )
    with pytest.raises(LadderInvalidError):
        overlap_check(src, other, disjointify(src))


def test_level_iso_identity_shaped_companion():
    src_sys = simple_system()
    dst_sys = companion_system(src_sys, {W2: [1] * 8, W2_2: [1] * 8})
    cfg_src = GroupConfig.all_ones(src_sys)
    cfg_dst = GroupConfig.all_ones(dst_sys)
    src, dst = build_matched_stages(cfg_src, cfg_dst, ALPHA, 5)
    gmap = level_iso_build(src, dst, disjointify(src_sys))
    for key in src.stage_basis():
        assert gmap.apply(FreeElement.single(key)) == src.realize(key)
    assert level_iso_verify(gmap, src, dst).ok


def test_level_iso_paired_blocks():
    src_sys = LadderSystem.build(parse_ordinal("w^2+1"), {W2: make_simple_special(W2, 8)})
    dst_sys = LadderSystem.build(
        parse_ordinal("w^2+1"), {W2: companion_same_range(src_sys.ladder(W2), (2,) * 8)}
    )
    cfg_src = GroupConfig.all_ones(src_sys)
    cfg_dst = GroupConfig.alternating(dst_sys)
    src, dst = build_matched_stages(cfg_src, cfg_dst, parse_ordinal("w^2+1"), 5)
    d = disjointify(src_sys)
    gmap = level_iso_build(src, dst, d)
    eta = src_sys.ladder(W2)
    nu = dst_sys.ladder(W2)
    for n in range(5):
        img = gmap.image_of(xgen(eta.entries[n]))
        expect = FreeElement.single(xgen(nu.entries[2 * n])) - FreeElement.single(
            xgen(nu.entries[2 * n + 1])
        )
        assert img == expect
        assert gmap.image_of(ygen(W2, n)) == dst.realize(ygen(W2, n))
    assert level_iso_verify(gmap, src, dst).ok


def test_level_iso_backfill_with_positive_threshold():
    src_sys = LadderSystem.build(parse_ordinal("w^2+1"), {W2: make_simple_special(W2, 8)})
    dst_sys = LadderSystem.build(
        parse_ordinal("w^2+1"), {W2: companion_same_range(src_sys.ladder(W2), (2,) * 8)}
    )
    cfg_src = GroupConfig.all_ones(src_sys)
    cfg_dst = GroupConfig.alternating(dst_sys)
    src, dst = build_matched_stages(cfg_src, cfg_dst, parse_ordinal("w^2+1"), 5)
    from laddergroups.equivalence import Disjointification

    d = Disjointification({W2: 2}, True, ())
    gmap = level_iso_build(src, dst, d)
    rep = level_iso_verify(gmap, src, dst)
    assert rep.ok, rep


def test_level_iso_rejects_nonunit_leading_coefficient():
    src_sys = LadderSystem.build(parse_ordinal("w^2+1"), {W2: make_simple_special(W2, 6)})
    dst_sys = LadderSystem.build(
        parse_ordinal("w^2+1"), {W2: companion_same_range(src_sys.ladder(W2), (2,) * 6)}
    )
    cfg_src = GroupConfig.all_ones(src_sys)
    cfg_dst = GroupConfig.from_rule(dst_sys, None, lambda d, n, t: (3, 1))
    src, dst = build_matched_stages(cfg_src, cfg_dst, parse_ordinal("w^2+1"), 4)
    with pytest.raises(ScopeError, match="coefficient 1"):
        level_iso_build(src, dst, disjointify(src_sys))


def test_level_iso_detects_level_crossing():
    src_sys = simple_system()
    dst_sys = companion_system(src_sys, {W2: [1] * 8, W2_2: [1] * 8})
    cfg_src = GroupConfig.all_ones(src_sys)
    cfg_dst = GroupConfig.all_ones(dst_sys)
    src, dst = build_matched_stages(cfg_src, cfg_dst, ALPHA, 4)
    gmap = level_iso_build(src, dst, disjointify(src_sys))
    # swap two x generators across a level boundary
    low = xgen(src_sys.ladder(W2).entries[0])
    high = xgen(src_sys.ladder(W2_2).entries[3])
    images = dict(gmap.images)
    images[low], images[high] = (
        FreeElement.single(high),
        FreeElement.single(low),
    )
    rep = level_iso_verify(GeneratorMap(images), src, dst)
    assert not rep.ok
    assert any(not ok for _, ok in rep.level_checks)


def test_random_companions_verify(subtests=None):
    rng = random.Random(20)
    for trial in range(6):
        sizes = {
            W2: [rng.randint(1, 3) for _ in range(8)],
            W2_2: [rng.randint(1, 3) for _ in range(8)],
        }
        src_sys = simple_system()
        dst_sys = companion_system(src_sys, sizes)
        cfg_src = GroupConfig.all_ones(src_sys)
        cfg_dst = companion_config(dst_sys, rng)
        src, dst = build_matched_stages(cfg_src, cfg_dst, ALPHA, 5)
        d = disjointify(src_sys)
        assert overlap_check(src_sys, dst_sys, d).ok
        gmap = level_iso_build(src, dst, d)
        rep = level_iso_verify(gmap, src, dst)
        assert rep.ok, (trial, rep)


def test_transitivity_through_inverse():
    rng = random.Random(7)
    src_sys = simple_system()
    sys_b = companion_system(src_sys, {W2: [2] * 8, W2_2: [2] * 8})
    sys_c = companion_system(src_sys, {W2: [1, 2] * 4, W2_2: [3, 1] * 4})
    cfg_a = GroupConfig.all_ones(src_sys)
    cfg_b = companion_config(sys_b, rng)
    cfg_c = companion_config(sys_c, rng)
    # shared x universe across all three stages
    shared = set()
    for cfg in (cfg_a, cfg_b, cfg_c):
        for d in cfg.system.deltas:
            sl = cfg.system.ladder(d)
            shared.update(sl.entries[: sl.k(4)])
    extra = tuple(sorted(shared, key=lambda o: o.terms))
    stage_a = build_stage(cfg_a, ALPHA, 4, extra_x=extra)
    stage_b = build_stage(cfg_b, ALPHA, 4, extra_x=extra)
    stage_c = build_stage(cfg_c, ALPHA, 4, extra_x=extra)
    d = disjointify(src_sys)
    ab = level_iso_build(stage_a, stage_b, d)
    ac = level_iso_build(stage_a, stage_c, d)
    ba = invert_level_iso(ab, stage_a, stage_b)
    assert level_iso_verify(ba, stage_b, stage_a).ok
    bc = compose_maps(ac, ba)
    rep = level_iso_verify(bc, stage_b, stage_c)
    assert rep.ok, rep


# ---------------------------------------------------------------------------
# the dense inverse, kept as the oracle for the sparse one


def _dense_inverse(matrix):
    n = len(matrix)
    m = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise ScopeError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [row[n:] for row in m]


def dense_invert_level_iso(gmap, src, dst):
    """The inverse through dense Fraction vectors: every (generator, source
    key) coefficient is a full sum over the destination basis."""
    src_keys = src.stage_basis()
    dst_keys = dst.stage_basis()
    index = {k: i for i, k in enumerate(dst_keys)}
    matrix = []
    for key in src_keys:
        coords = dst.rewrite(gmap.apply(FreeElement.single(key)))
        row = [Fraction(0)] * len(dst_keys)
        for k, q in coords.items():
            row[index[k]] = q
        matrix.append(row)
    inv = _dense_inverse(matrix)
    images = {}
    for g in dst.presentation_generators():
        coords = dst.rewrite(dst.realize(g))
        vec = [Fraction(0)] * len(dst_keys)
        for k, q in coords.items():
            vec[index[k]] = q
        out = FreeElement()
        for j, key in enumerate(src_keys):
            c = sum((vec[i] * inv[i][j] for i in range(len(dst_keys))), Fraction(0))
            if c:
                out = out + src.realize(key).scale(c)
        images[g] = out
    return GeneratorMap(images)


def seeded_iso(seed, depth):
    rng = random.Random(seed)
    src_sys = simple_system()
    dst_sys = companion_system(
        src_sys, {d: [rng.randint(1, 3) for _ in range(8)] for d in src_sys.deltas}
    )
    src, dst = build_matched_stages(
        GroupConfig.all_ones(src_sys), companion_config(dst_sys, rng), ALPHA, depth
    )
    return level_iso_build(src, dst, disjointify(src_sys)), src, dst


def level_iso_chain_oracle(gmap, src, dst, d):
    """The chain images as built before maps were given on the stage basis:
    matched from the threshold up, backfilled through the source relations
    below it, from gmap's x images."""
    images = {g: img for g, img in gmap.images.items() if g.kind == "x"}
    depth = src.depth
    for dd in src.deltas:
        eta = src.cfg.system.ladder(dd)
        m = d.m(dd)
        for n in range(m, depth + 1):
            images[ygen(dd, n)] = dst.realize(ygen(dd, n))
        for n in reversed(range(m)):
            x_img = images[xgen(eta.entries[n])]
            images[ygen(dd, n)] = (
                images[ygen(dd, n + 1)].scale(src.cfg.psi(n)) - x_img
            )
    return images


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), st.integers(3, 5), st.data())
def test_level_iso_build_matches_the_backfill_oracle(seed, depth, data):
    _, src, dst = seeded_iso(seed, depth)
    thresholds = {dd: data.draw(st.integers(0, depth)) for dd in src.deltas}
    d = Disjointification(thresholds, True, ())
    gmap = level_iso_build(src, dst, d)
    assert set(gmap.images) == set(src.presentation_generators())
    assert gmap.images == level_iso_chain_oracle(gmap, src, dst, d)
    assert level_iso_verify(gmap, src, dst).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), st.integers(3, 5),
       st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(2, 3)]))
def test_sparse_inverse_matches_dense_oracle(seed, depth, factor):
    # a factor other than 1 scales every image, as the "half" tamper does: the
    # basis matrix has denominator 2 or 3, or a determinant other than +-1
    gmap, src, dst = seeded_iso(seed, depth)
    gmap = GeneratorMap({g: e.scale(factor) for g, e in gmap.images.items()})
    fast = invert_level_iso(gmap, src, dst)
    slow = dense_invert_level_iso(gmap, src, dst)
    assert set(fast.images) == set(slow.images) == set(dst.presentation_generators())
    for g in dst.presentation_generators():
        assert fast.image_of(g) == slow.image_of(g), g


def test_invert_rejects_singular_basis_matrix():
    gmap, src, dst = seeded_iso(3, 4)
    images = dict(gmap.images)
    a, b = (xgen(beta) for beta in src.x_indices[:2])
    images[b] = images[a]
    with pytest.raises(ScopeError, match="singular"):
        invert_level_iso(GeneratorMap(images), src, dst)


def test_invert_rejects_non_square_basis_matrix():
    cfg = GroupConfig.all_ones(simple_system())
    dst = build_stage(cfg, ALPHA, 4)
    src = build_stage(cfg, ALPHA, 4, extra_x=(parse_ordinal("w*40+1"),))
    images = {g: src.realize(g) for g in src.presentation_generators()}
    images[xgen(parse_ordinal("w*40+1"))] = FreeElement()
    with pytest.raises(ScopeError, match="not square"):
        invert_level_iso(GeneratorMap(images), src, dst)


def test_verify_reports_non_square_basis_matrix_as_not_invertible():
    cfg = GroupConfig.all_ones(simple_system())
    src = build_stage(cfg, ALPHA, 4)
    dst = build_stage(cfg, ALPHA, 4, extra_x=(parse_ordinal("w^2*2+w*50+1"),))
    gmap = GeneratorMap({g: src.realize(g) for g in src.presentation_generators()})
    rep = level_iso_verify(gmap, src, dst)
    assert (len(rep.src_basis), len(rep.dst_basis)) == (10, 11)
    assert rep.determinant == "0"
    assert not rep.inverse_integral
    assert not rep.ok


# ---------------------------------------------------------------------------
# the dense determinant, the pivot-list rank and the dense level loop, kept
# as oracles for the sparse Gauss-Jordan routine


def dense_determinant(matrix):
    """Determinant of the leading square block, the rows counting its size."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    m = [row[:] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def pivot_list_rank(rows):
    """Rank of sparse rows, each reduced against the pivot rows kept so far."""
    pivots = []
    for row in rows:
        row = dict(row)
        for pc, prow in pivots:
            if row.get(pc):
                factor = row[pc] / prow[pc]
                for k, v in prow.items():
                    row[k] = row.get(k, Fraction(0)) - factor * v
        row = {k: v for k, v in row.items() if v}
        if row:
            pc = min(row)
            pivots.append((pc, row))
    return len(pivots)


def dense_level_iso_verify(gmap, src, dst):
    """level_iso_verify over a dense basis matrix, with a fresh dense
    determinant for the whole matrix and for every filtration level."""
    hom = verify_hom(gmap, src.formal_relations())
    in_group = all(dst.membership(gmap.image_of(g)).in_group for g in gmap.domain())
    src_keys = src.stage_basis()
    dst_keys = dst.stage_basis()
    index = {k: i for i, k in enumerate(dst_keys)}
    matrix = []
    for key in src_keys:
        coords = dst.rewrite(gmap.apply(FreeElement.single(key)))
        row = [Fraction(0)] * len(dst_keys)
        for k, q in coords.items():
            row[index[k]] = q
        matrix.append(row)
    integral = all(q.denominator == 1 for row in matrix for q in row)
    det = dense_determinant(matrix)
    inverse_ok = integral and abs(det) == 1
    levels = sorted({generator_level(k).terms for k in src_keys} | {src.alpha.terms})
    level_checks = []
    for terms in levels:
        mu = Ordinal(terms)
        rows = [i for i, k in enumerate(src_keys) if not mu < generator_level(k)]
        cols = [index[k] for k in filtration_subgroup(dst, mu)]
        outside = [j for j in range(len(dst_keys)) if j not in cols]
        contained = all(matrix[i][j] == 0 for i in rows for j in outside)
        sub = [[matrix[i][j] for j in cols] for i in rows]
        onto = len(rows) == len(cols) and abs(dense_determinant(sub)) == 1
        level_checks.append((format_ordinal(mu), contained and onto))
    ok = hom.ok and in_group and inverse_ok and all(ok for _, ok in level_checks)
    return LevelIsoReport(
        hom.ok,
        in_group,
        str(det),
        inverse_ok,
        tuple(level_checks),
        tuple(str(k) for k in src_keys),
        tuple(str(k) for k in dst_keys),
        tuple(tuple(str(q) for q in row) for row in matrix),
        ok,
    )


@st.composite
def small_matrices(draw):
    """An integer matrix, its column count n, and an order of its columns."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.integers(-50, 50))
    matrix = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    return matrix, cols, tuple(draw(st.permutations(range(cols))))


@settings(max_examples=300, deadline=None)
@given(small_matrices())
@example(([], 0, ()))
@example(([], 3, (0, 1, 2)))
@example(([[], []], 0, ()))
@example(([[1, 2], [2, 4]], 2, (0, 1)))
@example(([[0, 1], [1, 0]], 2, (0, 1)))
@example(([[1, 0, 2], [0, 1, 3]], 3, (0, 1, 2)))
@example(([[1, 2], [3, 4], [5, 6]], 2, (0, 1)))
@example(([[2, 3], [4, 5]], 2, (0, 1)))
@example(([[-3, 1], [2, 5]], 2, (1, 0)))
@example(([[6, 4, 2], [3, 5, 7], [2, 9, 4]], 3, (0, 1, 2)))
@example(([[6, 4, 2], [3, 5, 7], [2, 9, 4]], 3, (2, 0, 1)))
@example(([[12, -30, 0, 7], [0, 18, 45, -2], [4, 0, -9, 21], [8, 10, 3, 0]], 4, (3, 1, 0, 2)))
def test_gauss_jordan_matches_dense_oracles(case):
    matrix, n, order = case
    dense = [[Fraction(v) for v in row] for row in matrix]
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    before = [dict(row) for row in rows]
    det, rank, reduced = gauss_jordan(rows, order)
    assert rows == before
    # pivot rows first, in the given column order, each holding one p > 0
    pivots = [next(j for j in order if j in row) for row in reduced[:rank]]
    assert pivots == sorted(pivots, key=order.index)
    assert len({row[j] for row, j in zip(reduced, pivots)}) <= 1
    p = reduced[0][pivots[0]] if rank else 1
    assert p > 0 and (not det or p == abs(det))
    assert not any(j in row for row, pc in zip(reduced, pivots) for j in pivots if j != pc)
    assert not any(j in row for row in reduced[rank:] for j in order)
    # reduced / p spans the rows' space, and det and rank match the oracles
    over_p = [{j: Fraction(v, p) for j, v in row.items()} for row in reduced]
    fractions = [{j: Fraction(v) for j, v in row.items()} for row in rows]
    assert rank == pivot_list_rank(fractions) == pivot_list_rank(fractions + over_p)
    permuted = [[row[c] for c in order] for row in dense]
    assert det == (dense_determinant(permuted) if len(matrix) == n else 0)
    if det:
        # ride-along keys that are not column indices: p * M^-1 beside the pivots
        augmented = [{**row, ("id", i): 1} for i, row in enumerate(rows)]
        det2, _, reduced2 = gauss_jordan(augmented, order)
        by_pivot = {next(j for j in order if j in row): row for row in reduced2}
        inverse = [[Fraction(by_pivot[c].get(("id", i), 0), p) for i in range(n)]
                   for c in range(n)]
        assert det2 == det and inverse == _dense_inverse(dense)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), st.integers(3, 5),
       st.sampled_from(["none", "cross", "singular", "relation", "extra", "half"]))
@example(0, 3, "cross")
@example(0, 3, "half")
@example(0, 4, "relation")
@example(0, 5, "extra")
def test_level_iso_verify_matches_dense_oracle(seed, depth, tamper):
    gmap, src, dst = seeded_iso(seed, depth)
    images = dict(gmap.images)
    system = src.cfg.system
    low = xgen(system.ladder(W2).entries[0])
    high = xgen(system.ladder(W2_2).entries[1])
    if tamper == "cross":
        images[low], images[high] = FreeElement.single(high), FreeElement.single(low)
    elif tamper == "singular":
        images[high] = images[low]
    elif tamper == "relation":
        # a chain symbol below the stage depth is not a basis key: only the
        # relations and the image-by-image membership test can see it
        images[ygen(W2, 1)] = images[ygen(W2, 1)].scale(Fraction(1, 2))
    elif tamper == "extra":
        images[xgen(parse_ordinal("w^3+1"))] = FreeElement.single(low, Fraction(1, 2))
    elif tamper == "half":
        # still a homomorphism on the whole presentation, with fractional images
        images = {g: e.scale(Fraction(1, 2)) for g, e in images.items()}
    gmap = GeneratorMap(images)
    rep = level_iso_verify(gmap, src, dst)
    assert rep == dense_level_iso_verify(gmap, src, dst)
    assert rep.ok == (tamper == "none")
    if tamper == "relation":
        assert not rep.relations_ok
    if tamper in ("extra", "half"):
        assert rep.relations_ok and not rep.images_in_group
    if tamper == "cross":
        # a level after a broken containment is eliminated afresh
        verdicts = [ok for _, ok in rep.level_checks]
        assert (False, True) in zip(verdicts, verdicts[1:])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_level_checks_eliminate_only_the_new_diagonal_blocks(monkeypatch, seed):
    gmap, src, dst = seeded_iso(seed, 5)
    sizes = []

    def recording(rows, cols):
        sizes.append(len(cols))
        return gauss_jordan(rows, cols)

    monkeypatch.setattr(equivalence, "gauss_jordan", recording)
    rep = level_iso_verify(gmap, src, dst)
    assert rep.ok
    admitted = [len(filtration_subgroup(dst, parse_ordinal(mu))) for mu, _ in rep.level_checks]
    widest = max(b - a for a, b in zip([0, *admitted], admitted))
    assert sizes.count(len(rep.dst_basis)) == 1
    assert all(n <= widest for n in sizes if n != len(rep.dst_basis))


@pytest.mark.parametrize("relation_free", [False, True])
def test_verify_reports_an_image_outside_the_destination(relation_free):
    gmap, src, dst = seeded_iso(3, 4)
    related = {g for _, rel in src.formal_relations() for g in rel.support()}
    x_keys = [k for k in src.stage_basis() if k.kind == "x"]
    # the first x generator lies in a source relation; the first that lies in
    # none keeps the map a homomorphism on the whole presentation
    key = next(k for k in x_keys if (k not in related) == relation_free)
    images = dict(gmap.images)
    images[key] = FreeElement.single(xgen(parse_ordinal("w^2*2+w*90+1")))
    rep = level_iso_verify(GeneratorMap(images), src, dst)
    assert rep == LevelIsoReport(
        relations_ok=relation_free,
        images_in_group=False,
        determinant="0",
        inverse_integral=False,
        level_checks=(),
        src_basis=tuple(map(str, src.stage_basis())),
        dst_basis=tuple(map(str, dst.stage_basis())),
        matrix=(),
        ok=False,
    )
    if not relation_free:
        assert key == x_keys[0]


def test_level_above_the_destination_raises_like_filtration_subgroup():
    cfg = GroupConfig.all_ones(simple_system())
    src = build_stage(cfg, W2_2, 4)
    dst = build_stage(cfg, parse_ordinal("w^2+1"), 4)
    gmap = GeneratorMap({g: src.realize(g) for g in src.presentation_generators()})
    with pytest.raises(ScopeError) as dense:
        dense_level_iso_verify(gmap, src, dst)
    with pytest.raises(ScopeError, match="above stage level") as fast:
        level_iso_verify(gmap, src, dst)
    assert str(fast.value) == str(dense.value)
