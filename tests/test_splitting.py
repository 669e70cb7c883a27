import json
import os
import random
import subprocess
import sys
import threading
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from laddergroups import splitting
from laddergroups.equivalence import disjointify
from laddergroups.ladders import LadderSystem, make_block_special, prefix_special
from laddergroups.ordinals import format_ordinal, omega_power, parse_ordinal
from laddergroups.presentation import (
    ConfigError, FreeElement, GeneratorMap, GroupConfig, ScopeError, TablePsi, WGEN, xgen,
    ygen,
)
from laddergroups.splitting import (
    Coloring,
    ExtensionError,
    ExtensionHom,
    IntegerTarget,
    MarkedBasisTarget,
    SearchResult,
    UniformizationData,
    UniformizationError,
    _pack3,
    _seed_search,
    _unpack3,
    build_twisted,
    choose_annihilator,
    extend_hom,
    greedy_uniformize,
    induced_coloring,
    parity_obstruction,
    recover_uniformization,
    splitting_search,
    splitting_search_pair,
    zero_coloring,
)
from laddergroups.stages import StageGroup, build_stage

W2 = omega_power(2)
W2_2 = omega_power(2, 2)
ALPHA = parse_ordinal("w^2*2+1")


def paired_system(blocks=6, deltas=(W2,)):
    alpha = parse_ordinal("w^2+1") if deltas == (W2,) else ALPHA
    return LadderSystem.build(
        alpha, {d: make_block_special(d, blocks) for d in deltas}
    )


def shared_prefix_system(shared_blocks=3, blocks=6):
    """Two paired-block ladders agreeing on their first blocks: tree-like."""
    l1 = make_block_special(W2, blocks)
    tail = tuple(
        parse_ordinal(f"w^2*1+w*{n + 1}+{1 + (k % 2)}")
        for n in range(shared_blocks, blocks)
        for k in range(2)
    )
    entries = l1.entries[: 2 * shared_blocks] + tail
    l2 = prefix_special(W2_2, entries, tuple(range(0, 2 * blocks + 1, 2)))
    return LadderSystem.build(ALPHA, {W2: l1, W2_2: l2})


# ---------------------------------------------------------------------------
# uniformization


def test_uniformize_disjoint_tails():
    sys = paired_system(6, (W2, W2_2))
    c = zero_coloring(sys, 12)
    d = disjointify(sys)
    u = greedy_uniformize(sys, c, d)
    assert u.thresholds == {W2: 0, W2_2: 0}
    for delta, sl in sys.items():
        for n in range(12):
            assert u.psi[sl.entries[n]] == 0


def test_uniformize_empty_system():
    sys = LadderSystem.build(parse_ordinal("w^2+1"), {})
    u = greedy_uniformize(sys, Coloring({}, 2), disjointify(sys))
    assert u.psi == {} and u.thresholds == {}


def test_uniformize_shared_prefix_equal_colors():
    sys = shared_prefix_system()
    shared = {W2: (0, 1, 1, 0, 1, 0) + (0, 1) * 3, W2_2: (0, 1, 1, 0, 1, 0) + (1, 0) * 3}
    c = Coloring(shared, 2)
    d = disjointify(sys)
    u = greedy_uniformize(sys, c, d)
    assert u.thresholds[W2] == 0
    assert u.thresholds[W2_2] == 6  # first index of the first unshared block


def test_uniformize_conflict_detected():
    sys = shared_prefix_system()
    clash = {W2: (0,) * 12, W2_2: (1,) * 12}
    d = disjointify(sys)
    # force a below-threshold conflict by lowering the second threshold
    from laddergroups.equivalence import Disjointification

    d0 = Disjointification({W2: 0, W2_2: 0}, True, ())
    with pytest.raises(UniformizationError):
        greedy_uniformize(sys, Coloring(clash, 2), d0)


# ---------------------------------------------------------------------------
# extension


def test_extend_unit_phi_single_delta():
    sys = paired_system(6)
    cfg = GroupConfig.alternating(sys)
    sg = build_stage(cfg, sys.alpha, 6)
    target = IntegerTarget()
    phi = {(W2, n): 1 for n in range(6)}
    ind = induced_coloring(sg, phi, target)
    assert ind.entries[W2][:4] == (1, 3, 1, 3)  # codes of 1 and 2
    u = greedy_uniformize(sys, ind, disjointify(sys))
    hom, rep = extend_hom(sg, phi, u, target)
    assert rep.ok and rep.relations_checked == 6
    for n in range(6):
        assert hom.on_z(W2, n) == 0


def test_extend_zero_phi_gives_zero_extension():
    sys = paired_system(5)
    cfg = GroupConfig.alternating(sys)
    sg = build_stage(cfg, sys.alpha, 5)
    target = IntegerTarget()
    phi = {(W2, n): 0 for n in range(5)}
    u = greedy_uniformize(sys, induced_coloring(sg, phi, target), disjointify(sys))
    hom, rep = extend_hom(sg, phi, u, target)
    assert rep.ok
    assert all(v == 0 for v in hom.x_values.values())


def test_extend_random_phi_many_systems():
    rng = random.Random(2024)
    for trial in range(8):
        sys = paired_system(6, (W2, W2_2)) if trial % 2 else paired_system(6)
        cfg = GroupConfig.alternating(sys)
        sg = build_stage(cfg, sys.alpha, 6)
        target = IntegerTarget()
        phi = {(d, n): rng.randint(-20, 20) for d in sg.deltas for n in range(6)}
        u = greedy_uniformize(sys, induced_coloring(sg, phi, target), disjointify(sys))
        hom, rep = extend_hom(sg, phi, u, target)
        assert rep.ok, trial


def test_extend_shared_prefix_exercises_cross_cases():
    rng = random.Random(5)
    sys = shared_prefix_system()
    cfg = GroupConfig.alternating(sys)
    sg = build_stage(cfg, ALPHA, 6)
    target = IntegerTarget()
    phi = {(d, n): rng.randint(-9, 9) for d in sg.deltas for n in range(6)}
    u = greedy_uniformize(sys, induced_coloring(sg, phi, target), disjointify(sys))
    assert u.thresholds[W2_2] > 0
    hom, rep = extend_hom(sg, phi, u, target)
    assert rep.ok
    cases = dict(rep.case_counts)
    assert cases["both-tail"] > 0  # backfill below the threshold hits tail values


# ---------------------------------------------------------------------------
# marked-basis target and recovery


def test_marked_target_codec_round_trip():
    target = MarkedBasisTarget()
    elems = [
        target.zero,
        target.basis(0, 0, 0),
        target.basis(3, 1, 0),
        target.scale(2, target.basis(1, 1, 1)),
        target.sub(target.basis(2, 0, 1), target.scale(3, target.basis(0, 1, 0))),
    ]
    for e in elems:
        assert target.decode(target.encode(e)) == e


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3),
                          st.integers(-4, 4)), max_size=3))
def test_marked_target_codec_random(items):
    target = MarkedBasisTarget()
    e = target.zero
    for n, m, j, c in items:
        e = target.add(e, target.scale(c, target.basis(n, m, j)))
    assert target.decode(target.encode(e)) == e


def test_marked_target_codec_round_trip_past_pack_index_ten_thousand():
    # the leftover prime of decode is found in the prime list, not stepped to
    target = MarkedBasisTarget()
    # the chain index n is the coordinate that grows, so it carries the range
    far = [(147, 0, 0), (146, 0, 1), (146, 1, 0), (140, 3, 2)]
    assert all(_pack3(*t) > 10**4 for t in far)
    elems = [target.basis(*t) for t in far]
    elems.append(target.scale(-3, target.basis(*far[1])))
    elems.append(target.add(target.basis(*far[0]), target.scale(2, target.basis(*far[2]))))
    elems.append(target.sub(target.basis(*far[3]), target.basis(1, 0, 0)))
    elems.append(target.add(target.basis(*far[1]), target.basis(*far[3])))
    for e in elems:
        assert target.decode(target.encode(e)) == e


# ---------------------------------------------------------------------------
# trial division and the per-prime decode walk, kept as the oracles of the
# segmented sieve and the block-gcd decode

SEED_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
# grown by the oracles only, and shared by the decode tests
ORACLE_PRIMES = list(SEED_PRIMES)


def grow_primes_oracle(primes, count=0, reach=0):
    """Extend primes by trial division until it holds more than `count`
    primes and its last prime is at least `reach`."""
    candidate = primes[-1]
    while len(primes) <= count or primes[-1] < reach:
        candidate += 2
        for p in primes:
            if p * p > candidate:
                primes.append(candidate)
                break
            if candidate % p == 0:
                break


def decode_oracle(m, primes):
    """Factor m + 1 one listed prime at a time, stopping at the first prime
    p with p * p > m."""
    m += 1
    coeffs = {}
    k = 0
    while m > 1:
        if k == len(primes):
            grow_primes_oracle(primes, count=k)
        p = primes[k]
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            coeffs[_unpack3(k)] = MarkedBasisTarget._uncode(e - 1)
        k += 1
    if m > 1:
        grow_primes_oracle(primes, reach=m)
        k = bisect_left(primes, m, k)
        if primes[k] != m:
            raise ConfigError(f"{m} is not in the enumeration's range")
        coeffs[_unpack3(k)] = MarkedBasisTarget._uncode(0)
    return tuple(sorted(coeffs.items()))


def encode_oracle(a, primes):
    out = 1
    for t, c in a:
        grow_primes_oracle(primes, count=_pack3(*t))
        out *= primes[_pack3(*t)] ** (MarkedBasisTarget._code(c) + 1)
    return out - 1


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ConfigError as exc:
        return "error", str(exc)


@contextmanager
def seed_prime_list():
    """Run the codec from the ten-prime seed list and no block products."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitting, "_PRIMES", list(SEED_PRIMES))
        mp.setattr(splitting, "_BLOCK_PRODUCTS", [])
        yield


def assert_block_products_in_step():
    primes, block = splitting._PRIMES, splitting._BLOCK
    assert splitting._BLOCK_PRODUCTS == [
        prod(primes[i:i + block]) for i in range(0, len(primes) - block + 1, block)
    ]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3000), st.integers(0, 30000)), min_size=1, max_size=5))
def test_prime_list_grown_in_steps_matches_trial_division(steps):
    want = list(SEED_PRIMES)
    with seed_prime_list():
        for count, reach in steps:
            splitting._grow_primes(count, reach)
            got = splitting._PRIMES
            assert len(got) > count and got[-1] >= reach
            grow_primes_oracle(want, reach=got[-1])
            assert got == want
            assert_block_products_in_step()


def test_prime_list_grown_by_eight_threads_matches_trial_division():
    # a tiny switch interval makes the threads interleave inside the sieve;
    # without the lock the lists came out duplicated or unsorted
    counts = [20000 + 37 * i for i in range(8)]
    want = list(SEED_PRIMES)
    grow_primes_oracle(want, count=max(counts))
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(6):
            with seed_prime_list():
                got = {}
                threads = [
                    threading.Thread(target=lambda k=k: got.update({k: splitting._nth_prime(k)}))
                    for k in counts
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert got == {k: want[k] for k in counts}
                grown = splitting._PRIMES
                grow_primes_oracle(want, reach=grown[-1])
                assert grown == want[:len(grown)] and len(grown) > max(counts)
                assert_block_products_in_step()
    finally:
        sys.setswitchinterval(interval)


def test_prime_list_to_a_million_is_the_primes_below_it():
    # every segment is exact, and doubling keeps the overshoot below 2 * n
    n = 10**6
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for i in range(2, 1001):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    below = [i for i in range(n) if sieve[i]]
    assert len(below) == 78498
    with seed_prime_list():
        splitting._grow_primes(reach=n)
        assert splitting._PRIMES[:len(below)] == below
        assert splitting._PRIMES[len(below)] > n
        assert splitting._PRIMES[-1] < 2 * n
        assert_block_products_in_step()


def test_codec_decode_matches_oracle_below_2_16():
    target = MarkedBasisTarget()
    with seed_prime_list():
        for m in range(2**16):
            assert outcome(target.decode, m) == outcome(decode_oracle, m, ORACLE_PRIMES)
        assert_block_products_in_step()


# decoding a random large integer can leave a huge prime to reach, so only
# encodings are decoded here: their primes have known indices
far_terms = st.tuples(st.tuples(st.integers(141, 170), st.integers(0, 3), st.integers(0, 3)),
                      st.integers(-4, 4).filter(bool))
any_terms = st.tuples(st.tuples(st.integers(0, 170), st.integers(0, 3), st.integers(0, 4)),
                      st.integers(-4, 4))


@settings(max_examples=60, deadline=None)
@given(far_terms, st.lists(any_terms, max_size=3))
def test_codec_decode_matches_oracle_past_pack_index_ten_thousand(far, rest):
    target = MarkedBasisTarget()
    e = target.zero
    for t, c in [far, *rest]:
        e = target.add(e, target.scale(c, target.basis(*t)))
    m = encode_oracle(e, ORACLE_PRIMES)
    with seed_prime_list():
        assert outcome(target.decode, m) == outcome(decode_oracle, m, ORACLE_PRIMES) == ("value", e)
        assert target.encode(e) == m
        assert_block_products_in_step()


# a fresh process under the CI step's 1 GiB address-space cap: a codec call
# that sieves toward its input runs out of memory or time instead of raising
# ConfigError.  The first call's time includes sieving up to the reach.
REACH_PROBE = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from laddergroups import splitting
from laddergroups.presentation import ConfigError
names = {**vars(splitting), "target": splitting.MarkedBasisTarget()}

def outcome(expr):
    start = time.perf_counter()
    try:
        value = eval(expr, names)
    except ConfigError as exc:
        return "error", str(exc), time.perf_counter() - start
    return "value", repr(value), time.perf_counter() - start

print(json.dumps([outcome(expr) for expr in sys.argv[1:]]))
"""


def run_codec_probe(*exprs):
    """(kind, value or message, seconds) for each expression over the
    splitting module and a marked target, evaluated in order."""
    src = str(Path(splitting.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", REACH_PROBE, *exprs], capture_output=True,
                          text=True, timeout=20, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return [tuple(out) for out in json.loads(proc.stdout)]


def test_codec_decode_past_the_prime_reach_raises_within_a_gib_in_a_second():
    first, past, last = run_codec_probe(
        "target.decode(2**61 - 2)",
        "target.decode(_PRIMES[_PRIME_COUNT] - 1)",
        "target.decode(_PRIMES[_PRIME_COUNT - 1] - 1)",
    )
    assert first[:2] == ("error", f"{2**61 - 1} is not in the enumeration's range")
    assert first[2] < 1
    assert past[0] == "error" and past[1].endswith("is not in the enumeration's range")
    assert last[:2] == ("value", repr(((_unpack3(splitting._PRIME_COUNT - 1), 1),)))


def test_codec_encode_past_the_prime_reach_raises_within_a_gib_in_a_second():
    t = _unpack3(splitting._PRIME_COUNT)
    far, past, last = run_codec_probe(
        "target.encode(target.basis(0, 0, 2000))",
        f"target.encode(target.basis{t})",
        "target.decode(target.encode(target.basis(*_unpack3(_PRIME_COUNT - 1))))",
    )
    assert far[:2] == ("error", "triple (0, 0, 2000) is not in the enumeration's range")
    assert far[2] < 1
    assert past[:2] == ("error", f"triple {t} is not in the enumeration's range")
    # the palette-2 relation images of a depth-48 stage pack below 1,331,
    # and those of a depth-1351 stage within the reach
    assert _pack3(47, 1, 1) == 1330
    assert _pack3(1350, 1, 1) < splitting._PRIME_COUNT <= _pack3(1351, 1, 1)
    assert last[:2] == ("value", repr(((_unpack3(splitting._PRIME_COUNT - 1), 1),)))


def test_roundtrip_disjoint_system():
    rng = random.Random(31)
    sys = paired_system(6, (W2, W2_2))
    cfg = GroupConfig.alternating(sys)
    sg = build_stage(cfg, ALPHA, 6)
    target = MarkedBasisTarget()
    c = Coloring({d: tuple(rng.randrange(2) for _ in range(12)) for d in sys.deltas}, 2)
    phi = {
        (d, n): target.basis(n, c.color(d, 2 * n), c.color(d, 2 * n + 1))
        for d in sg.deltas
        for n in range(6)
    }
    u = greedy_uniformize(sys, induced_coloring(sg, phi, target), disjointify(sys))
    hom, _ = extend_hom(sg, phi, u, target)
    data, rep = recover_uniformization(sg, c, hom)
    assert rep.ok
    for d in sys.deltas:
        sl = sys.ladder(d)
        for k in range(data.thresholds[d], 12):
            assert data.psi[sl.entries[k]] == c.color(d, k)


def test_extension_apply_reads_numerators_in_basis_order():
    x1, x2 = parse_ordinal("w*1+1"), parse_ordinal("w*1+2")
    hom = ExtensionHom(IntegerTarget(), {x1: 3}, {(W2, 0): 5})
    assert hom.apply(FreeElement({xgen(x1): 2, xgen(x2): -4, ygen(W2, 0): -1})) == 1
    # two chain symbols without a value: the first in basis order is named
    with pytest.raises(ScopeError, match=r"chain symbol \(w\^2\*1,2\)"):
        hom.apply(FreeElement({WGEN: 1, ygen(W2_2, 1): 1, ygen(W2, 2): 1}))
    with pytest.raises(ScopeError, match="twist generator"):
        hom.apply(FreeElement({WGEN: 1, ygen(W2, 0): 1}))
    with pytest.raises(ScopeError, match="integer combinations only"):
        hom.apply(FreeElement({xgen(x1): 1, ygen(W2, 2): Fraction(1, 2)}))


def crafted_extension(sg, cfg, c, target):
    """A tight extension: chain symbols vanish, the second block position of
    every relation carries the full image."""
    x_values = {}
    z_values = {(d, n): target.zero for d in sg.deltas for n in range(sg.depth + 1)}
    for d in sg.deltas:
        sl = cfg.system.ladder(d)
        for n in range(sg.depth):
            phi_dn = target.basis(n, c.color(d, 2 * n), c.color(d, 2 * n + 1))
            x_values.setdefault(sl.entries[2 * n], target.zero)
            x_values[sl.entries[2 * n + 1]] = phi_dn
    return ExtensionHom(target, x_values, z_values)


def test_recover_certificates_on_shared_prefix():
    sys = shared_prefix_system(shared_blocks=4, blocks=6)
    cfg = GroupConfig.alternating(sys)
    sg = build_stage(cfg, ALPHA, 6)
    target = MarkedBasisTarget()
    # equal colors on the shared region keep the crafted extension consistent
    shared = (1, 0, 0, 1, 1, 1, 0, 0)
    c = Coloring(
        {W2: shared + (1, 0, 0, 1), W2_2: shared + (0, 1, 1, 0)}, 2
    )
    hom = crafted_extension(sg, cfg, c, target)
    data, rep = recover_uniformization(sg, c, hom)
    assert rep.ok
    assert rep.thresholds == (("w^2*1", 5), ("w^2*2", 5))
    assert rep.coincidences_checked > 0
    assert rep.divisibility_certificates > 0


def test_recover_rejects_non_extension():
    sys = shared_prefix_system(shared_blocks=4, blocks=6)
    cfg = GroupConfig.alternating(sys)
    sg = build_stage(cfg, ALPHA, 6)
    target = MarkedBasisTarget()
    c = Coloring({W2: (1, 0) * 6, W2_2: (1, 0) * 6}, 2)
    hom = crafted_extension(sg, cfg, c, target)
    broken = dict(hom.x_values)
    key = cfg.system.ladder(W2).entries[5]
    broken[key] = target.add(broken[key], target.basis(9, 9, 9))
    with pytest.raises(ExtensionError, match="g\\["):
        recover_uniformization(sg, c, ExtensionHom(target, broken, dict(hom.z_values)))


# ---------------------------------------------------------------------------
# twisted stages and sections


def test_twisted_zero_coloring_splits():
    sys = paired_system(6)
    cfg = GroupConfig.alternating(sys)
    ts, ex = build_twisted(cfg, zero_coloring(sys, 6), sys.alpha, 6)
    assert ex.ok
    res = splitting_search(ts, 5)
    assert res.found
    assert res.seed_offsets == (("w^2*1", 0),)


def test_twisted_single_twist_term():
    sys = paired_system(6)
    cfg = GroupConfig.alternating(sys)
    c = Coloring({W2: (1,) + (0,) * 5}, 2)
    ts, ex = build_twisted(cfg, c, sys.alpha, 6)
    assert ex.ok
    rels = ts.twisted.formal_relations()
    twisted_terms = [rel for _, rel in rels if rel.coeff(WGEN) != 0]
    assert len(twisted_terms) == 1
    # solvable: psi(0) = 1 absorbs the color at index 0
    res = splitting_search(ts, 5)
    assert res.found


def test_exactness_at_stage():
    sys = paired_system(5, (W2, W2_2))
    cfg = GroupConfig.alternating(sys)
    c = Coloring({W2: (0, 1, 1, 0, 1), W2_2: (1, 1, 0, 0, 1)}, 2)
    ts, ex = build_twisted(cfg, c, ALPHA, 5)
    assert ex.relations_killed and ex.kernel_is_twist_line
    assert ex.kernel_pure and ex.surjective


def test_exactness_sees_a_collapse_scaled_by_one_half(monkeypatch):
    # halved images give the unit rows of the identity over denominator 2:
    # not the diagonal shape, although the integer rows alone look like it
    sys = paired_system(5, (W2, W2_2))
    cfg = GroupConfig.alternating(sys)
    c = Coloring({W2: (0, 1, 1, 0, 1), W2_2: (1, 1, 0, 0, 1)}, 2)
    real = splitting.basis_matrix

    def halved(gmap, src, dst):
        half = {g: e.scale(Fraction(1, 2)) for g, e in gmap.images.items()}
        return real(GeneratorMap(half), src, dst)

    monkeypatch.setattr(splitting, "basis_matrix", halved)
    _, ex = build_twisted(cfg, c, ALPHA, 5)
    assert ex.relations_killed and ex.kernel_pure
    assert not ex.kernel_is_twist_line and not ex.surjective


def test_annihilator_examples():
    assert choose_annihilator((3, 6)) == (2, -1)
    assert choose_annihilator((0, 0)) == (1, 0)
    with pytest.raises(ConfigError):
        choose_annihilator((5,))
    assert choose_annihilator((0,)) == (1,)
    assert choose_annihilator((0, 7)) == (1, 0)


@given(st.lists(st.integers(-50, 50), min_size=2, max_size=6))
def test_annihilator_orthogonal_and_primitive(b):
    from math import gcd

    a = choose_annihilator(tuple(b))
    assert sum(x * y for x, y in zip(a, b)) == 0
    assert gcd(*a) == 1


def test_annihilator_thousand_random_vectors():
    from math import gcd

    rng = random.Random(99)
    for _ in range(1000):
        t = rng.randint(2, 6)
        b = tuple(rng.randint(-40, 40) for _ in range(t))
        a = choose_annihilator(b)
        assert len(a) == t
        assert sum(x * y for x, y in zip(a, b)) == 0
        assert gcd(*a) == 1


def test_parity_obstruction_core():
    sys = paired_system(8)
    b_data = {(W2, n): (3, 6) for n in range(8)}
    cfg = GroupConfig.from_rule(sys, None, lambda d, n, t: choose_annihilator(b_data[(d, n)]))
    c1 = Coloring({W2: (0, 0, 1) + (0,) * 13}, 2)
    c2 = zero_coloring(sys, 16)
    verdict = parity_obstruction(cfg, c1, c2, b_data, sys.alpha, 8, bounds=(1, 5, 25))
    assert verdict.status == "OBSTRUCTED"
    assert verdict.nstar == 2
    assert "2*Delta = -1" in verdict.witness
    assert all(status == "exhausted" for _, status, _ in verdict.searches)


def test_parity_inconclusive_at_low_index():
    sys = paired_system(6)
    b_data = {(W2, n): (0, 0) for n in range(6)}
    cfg = GroupConfig.from_rule(sys, None, lambda d, n, t: choose_annihilator(b_data[(d, n)]))
    c1 = Coloring({W2: (1,) + (0,) * 11}, 2)
    c2 = zero_coloring(sys, 12)
    verdict = parity_obstruction(cfg, c1, c2, b_data, sys.alpha, 6, bounds=(3,))
    assert verdict.status == "INCONCLUSIVE"
    assert verdict.nstar == 0


def test_parity_equal_colorings_not_obstructed():
    sys = paired_system(6)
    b_data = {(W2, n): (1, -2) for n in range(6)}
    cfg = GroupConfig.from_rule(sys, None, lambda d, n, t: choose_annihilator(b_data[(d, n)]))
    c = zero_coloring(sys, 12)
    verdict = parity_obstruction(cfg, c, c, b_data, sys.alpha, 6, bounds=(3,))
    assert verdict.status == "NOT_OBSTRUCTED"
    assert verdict.searches[0][1] == "found"


def test_pair_search_monotone_exhaustion():
    sys = paired_system(8)
    b_data = {(W2, n): (3, 6) for n in range(8)}
    cfg = GroupConfig.from_rule(sys, None, lambda d, n, t: choose_annihilator(b_data[(d, n)]))
    lift = {}
    for (d, n), vec in b_data.items():
        for beta, b in zip(cfg.system.ladder(d).block_values(n), vec):
            lift[beta] = b
    c1 = Coloring({W2: (0, 0, 1) + (0,) * 13}, 2)
    c2 = zero_coloring(sys, 16)
    # 10**12 is far past what a seed scan could try; the solver's count
    # still matches it.
    for bound in (1, 5, 25, 10**12):
        res = splitting_search_pair(cfg, c1, c2, sys.alpha, 8, bound, lift)
        assert not res.found and res.failing_delta == "w^2*1"
        assert res.candidates_tried == 2 * bound + 1


def test_single_stage_with_searched_seed_can_split_where_pair_cannot():
    # the paired obstruction is sharper than any single-stage search
    sys = paired_system(8)
    b_data = {(W2, n): (3, 6) for n in range(8)}
    cfg = GroupConfig.from_rule(sys, None, lambda d, n, t: choose_annihilator(b_data[(d, n)]))
    lift = {}
    for (d, n), vec in b_data.items():
        for beta, b in zip(cfg.system.ladder(d).block_values(n), vec):
            lift[beta] = b
    c1 = Coloring({W2: (0, 0, 1) + (0,) * 13}, 2)
    ts1, _ = build_twisted(cfg, c1, sys.alpha, 8)
    res = splitting_search(ts1, 5, lift)
    assert res.found
    assert res.seed_offsets == (("w^2*1", 1),)


def test_extend_depth_insufficient_for_tail_clause():
    sys = paired_system(6)
    cfg = GroupConfig.alternating(sys)
    sg = build_stage(cfg, sys.alpha, 6)
    target = IntegerTarget()
    phi = {(W2, n): 1 for n in range(6)}
    forced = UniformizationData(
        {v: 0 for v in sys.ladder(W2).entries}, {W2: 13}
    )
    with pytest.raises(ConfigError, match="increase depth"):
        extend_hom(sg, phi, forced, target)


def test_recover_requires_tree_like_system():
    l1 = make_block_special(W2, 6)
    # same values shifted by one block: an index-mismatched coincidence
    from laddergroups.ordinals import nat
    entries = (nat(1), nat(2)) + l1.entries[:10]
    shifted = prefix_special(W2_2, entries, tuple(range(0, 13, 2)))
    sys = LadderSystem.build(ALPHA, {W2: l1, W2_2: shifted})
    from laddergroups.ladders import is_tree_like
    assert not is_tree_like(sys).ok
    cfg = GroupConfig.alternating(sys)
    sg = build_stage(cfg, ALPHA, 6)
    target = MarkedBasisTarget()
    c = Coloring({W2: (0,) * 12, W2_2: (0,) * 12}, 2)
    hom = ExtensionHom(target, {}, {})
    from laddergroups.presentation import ScopeError
    with pytest.raises(ScopeError, match="tree-like"):
        recover_uniformization(sg, c, hom)


# ---------------------------------------------------------------------------
# the seed scan, kept as the oracle of the closed-form seed solver


def _seed_scan_oracle(bound):
    yield 0
    for v in range(1, bound + 1):
        yield v
        yield -v


def _chain_offsets_oracle(cfg, coloring, dd, depth, d0, lift):
    """Propagate the section offset chain from a seed; None when it leaves
    the integers."""
    sl = cfg.system.ladder(dd)
    d = [d0]
    for n in range(depth):
        shift = sum(
            a * lift.get(beta, 0)
            for a, beta in zip(cfg.coeff(dd, n), sl.block_values(n))
        )
        num = d[-1] + shift - coloring.color(dd, n)
        psi = cfg.psi(n)
        if num % psi:
            return None
        d.append(num // psi)
    return d


def seed_search_oracle(stage, colorings, bound, lift):
    """Scan the seed offset of each delta's chain in the order 0, 1, -1, 2,
    ... and keep the first seed whose offset chains under every coloring
    stay integral and inside [-bound, bound]."""
    cfg, depth = stage.cfg, stage.depth
    offsets = {}
    tried = 0
    for dd in stage.deltas:
        for d0 in _seed_scan_oracle(bound):
            tried += 1
            chains = [_chain_offsets_oracle(cfg, c, dd, depth, d0, lift) for c in colorings]
            if all(ch is not None and all(abs(v) <= bound for v in ch) for ch in chains):
                offsets[dd] = chains[0]
                break
        else:
            return SearchResult(False, bound, (), None, format_ordinal(dd), tried), offsets
    seeds = tuple((format_ordinal(dd), chain[0]) for dd, chain in offsets.items())
    return SearchResult(True, bound, seeds, None, None, tried), offsets


@st.composite
def seed_problems(draw, max_depth=6):
    """A group with a psi table containing 1s, blocks of 1-3 entries, one or
    two ladders, an x lift, one or two colorings and a bound."""
    depth = draw(st.integers(0, max_depth))
    deltas = draw(st.sampled_from([(W2,), (W2_2,), (W2, W2_2)]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    offsets = tuple(tuple(range(1, t + 1)) for t in sizes)
    blocks = max(depth, 1)
    sys = LadderSystem.build(ALPHA, {d: make_block_special(d, blocks, offsets) for d in deltas})
    psi = TablePsi(tuple(draw(st.lists(st.sampled_from([1, 1, 1, 2, 2, 3]),
                                       min_size=depth, max_size=depth))))
    coeffs = {}
    for d, sl in sys.items():
        for n in range(sl.block_count):
            vec = [1] + draw(st.lists(st.integers(-3, 3), min_size=sl.t(n) - 1,
                                      max_size=sl.t(n) - 1))
            coeffs[(d, n)] = tuple(draw(st.permutations(vec)))
    cfg = GroupConfig(sys, psi, coeffs)
    lift = {
        beta: draw(st.integers(-2, 2))
        for d, sl in sys.items()
        for n in range(sl.block_count)
        for beta in sl.block_values(n)
    }
    colors = st.lists(st.integers(0, 2), min_size=depth, max_size=depth)
    c1 = Coloring({d: tuple(draw(colors)) for d in deltas}, None)
    colorings = draw(st.sampled_from([
        [c1],
        [c1, c1],
        [c1, Coloring({d: tuple(draw(colors)) for d in deltas}, None)],
        [c1, Coloring({d: c1.entries[d][:-1] + (0,) for d in deltas} if depth else {}, None)],
    ]))
    return cfg, depth, colorings, lift, draw(st.integers(0, 8))


@settings(max_examples=400, deadline=None)
@given(seed_problems())
def test_seed_solver_matches_scan(problem):
    cfg, depth, colorings, lift, bound = problem
    deltas = cfg.system.deltas_below(ALPHA)
    assert _seed_search(cfg, deltas, depth, colorings, bound, lift) == seed_search_oracle(
        StageGroup(cfg, ALPHA, depth), colorings, bound, lift
    )


@settings(max_examples=30, deadline=None)
@given(seed_problems(max_depth=4))
def test_section_searches_match_scan(problem):
    cfg, depth, colorings, lift, bound = problem
    ts1, ex = build_twisted(cfg, colorings[0], ALPHA, depth)
    assert ex.ok
    got = splitting_search(ts1, bound, lift)
    want, _ = seed_search_oracle(ts1.twisted, colorings[:1], bound, lift)
    assert replace(got, section=None) == want
    assert got.found == (got.section is not None)
    if len(colorings) == 2:
        want, _ = seed_search_oracle(ts1.twisted, colorings, bound, lift)
        assert splitting_search_pair(cfg, colorings[0], colorings[1], ALPHA, depth, bound,
                                     lift) == want


@settings(max_examples=200, deadline=None)
@given(seed_problems())
def test_pair_search_is_symmetric_and_matches_scan(problem):
    cfg, depth, colorings, lift, bound = problem
    c1, c2 = colorings[0], colorings[-1]
    want, _ = seed_search_oracle(StageGroup(cfg, ALPHA, depth), [c1, c2], bound, lift)
    assert splitting_search_pair(cfg, c1, c2, ALPHA, depth, bound, lift) == want
    assert splitting_search_pair(cfg, c2, c1, ALPHA, depth, bound, lift) == want


def test_pair_search_checks_both_colorings_against_the_depth():
    # a coloring shallower than the depth is rejected in either position,
    # not read past its end or silently accepted
    sys = paired_system(8)
    cfg = GroupConfig.alternating(sys)
    deep, shallow = zero_coloring(sys, 8), zero_coloring(sys, 2)
    for c1, c2 in ((deep, shallow), (shallow, deep)):
        with pytest.raises(ConfigError, match="^coloring on w\\^2\\*1 shallower than stage depth$"):
            splitting_search_pair(cfg, c1, c2, sys.alpha, 8, 25)


def test_parity_obstruction_builds_no_stage(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_stage called")

    monkeypatch.setattr(splitting, "build_stage", refuse)
    sys = paired_system(8)
    b_data = {(W2, n): (3, 6) for n in range(8)}
    cfg = GroupConfig.from_rule(sys, None, lambda d, n, t: choose_annihilator(b_data[(d, n)]))
    c1 = Coloring({W2: (0, 0, 1) + (0,) * 13}, 2)
    verdict = parity_obstruction(cfg, c1, zero_coloring(sys, 16), b_data, sys.alpha, 8)
    assert verdict.status == "OBSTRUCTED"
