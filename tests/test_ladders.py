import itertools
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import find, given, strategies as st

from laddergroups import ladders
from laddergroups.ladders import (
    BlockRule,
    LadderInvalidError,
    LadderShapeError,
    LadderSystem,
    LadderSystemError,
    PrefixExhaustedError,
    TreeLikeReport,
    companion_same_range,
    first_block_reaching,
    is_tree_like,
    make_block_special,
    make_simple_special,
    omega_range,
    prefix_special,
    validate_special,
    _from_rule,
)
from laddergroups.ordinals import (
    Ordinal, format_ordinal, nat, omega_power, parse_ordinal, plus_omega,
)

W2 = omega_power(2)
W2_2 = omega_power(2, 2)
W3 = omega_power(3)


def test_simple_ladder_on_w2_validates():
    eta = make_simple_special(W2, 8)
    assert [str(e) for e in eta.entries[:3]] == ["w*1+1", "w*2+1", "w*3+1"]
    rep = validate_special(eta)
    assert rep.ok
    assert not rep.errors
    # index-zero breakpoint is tolerated with a warning; k_n = n needs it
    assert any("k_0 = 0" in w for w in rep.warnings)


def test_simple_ladder_on_shifted_delta():
    eta = make_simple_special(W2_2, 8)
    assert str(eta.entries[0]) == "w^2*1+w*1+1"
    assert validate_special(eta).ok


def test_simple_ladder_on_w3():
    eta = make_simple_special(W3, 4)
    assert [str(e) for e in eta.entries] == [
        "w^2*1+1", "w^2*2+1", "w^2*3+1", "w^2*4+1"
    ]
    assert validate_special(eta).ok


def test_make_simple_rejects_non_limit():
    with pytest.raises(LadderShapeError):
        make_simple_special(W2 + nat(5), 4)


def test_finite_entry_ladder_fails_separation():
    sl = prefix_special(W2, tuple(nat(n + 1) for n in range(6)))
    rep = validate_special(sl)
    assert not rep.ok
    assert any("separation condition (b)" in e for e in rep.errors)
    assert any("cofinality not certified" in w for w in rep.warnings)


def test_system_rejects_undivisible_delta():
    delta = W2 + omega_power(1)
    sl = prefix_special(delta, tuple(omega_power(1, n + 1) + nat(1) for n in range(4)))
    with pytest.raises(LadderSystemError, match="not divisible"):
        LadderSystem.build(parse_ordinal("w^2*2"), {delta: sl})


def test_omega_range_simple():
    eta = make_simple_special(W2, 6)
    rng = omega_range(eta)
    assert [str(b) for b in rng.blocks] == [f"w*{n + 2}" for n in range(6)]


def test_omega_range_paired_blocks():
    eta = make_block_special(W2, 6)
    assert [str(e) for e in eta.entries[:4]] == ["w*1+1", "w*1+2", "w*2+1", "w*2+2"]
    rng = omega_range(eta)
    assert [str(b) for b in rng.blocks] == [f"w*{n + 2}" for n in range(6)]


def test_omega_range_single_block():
    sl = prefix_special(W2, (plus_omega(nat(0)) + nat(1),), (0, 1))
    assert len(omega_range(sl).blocks) == 1


def test_companion_paired():
    eta = make_simple_special(W2, 6)
    nu = companion_same_range(eta, (2,) * 6)
    assert nu.breakpoints == (0, 2, 4, 6, 8, 10, 12)
    for n in range(6):
        assert str(nu.entries[2 * n]) == f"w*{n + 1}+1"
        assert str(nu.entries[2 * n + 1]) == f"w*{n + 1}+2"
    assert omega_range(nu).blocks == omega_range(eta).blocks
    assert validate_special(nu).ok


def test_companion_identity_shape():
    eta = make_simple_special(W2, 6)
    nu = companion_same_range(eta, (1,) * 6)
    assert nu.entries == eta.entries


def test_companion_mixed_sizes():
    eta = make_simple_special(W2, 3)
    nu = companion_same_range(eta, (1, 2, 3))
    assert nu.breakpoints == (0, 1, 3, 6)
    assert omega_range(nu).blocks == omega_range(eta).blocks
    assert validate_special(nu).ok


def test_first_block_reaching():
    eta = make_simple_special(W2_2, 8)
    assert first_block_reaching(eta, W2) == 0
    assert first_block_reaching(eta, W2 + omega_power(1, 3)) == 2
    assert first_block_reaching(eta, nat(0)) == 0


def test_first_block_reaching_uses_rule_beyond_prefix():
    eta = make_simple_special(W2, 2)
    assert first_block_reaching(eta, parse_ordinal("w*40")) == 39


REACHING_PROBE = """
import time
from laddergroups.ladders import LadderInvalidError, SpecialLadder, first_block_reaching
from laddergroups.ladders import make_simple_special
from laddergroups.ordinals import nat, omega_power

eta = make_simple_special(omega_power(2), 4)
sl = SpecialLadder(omega_power(3), eta.entries, eta.breakpoints, eta.rule)
start = time.perf_counter()
try:
    first_block_reaching(sl, omega_power(2) + nat(1))
except LadderInvalidError as exc:
    print(exc)
print(time.perf_counter() - start)
"""


def test_first_block_reaching_rejects_an_invalid_rule_past_the_prefix():
    # a rule cofinal in w^2 never reaches w^2+1, so the search must not start;
    # the child process keeps a hang from stalling the suite
    src = str(Path(ladders.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", REACHING_PROBE], capture_output=True,
                          text=True, timeout=20, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    message, seconds = proc.stdout.splitlines()
    assert message == "rule is cofinal in w^2*1, not in w^3*1" and float(seconds) < 1


def test_first_block_reaching_reads_a_far_block_off_the_threshold():
    eta = make_simple_special(W2, 2)
    start = time.perf_counter()
    assert first_block_reaching(eta, omega_power(1, 10**9)) == 999_999_999
    assert time.perf_counter() - start < 1


def test_first_block_reaching_prefix_exhaustion():
    sl = prefix_special(W2, (parse_ordinal("w*1+1"), parse_ordinal("w*2+1")))
    with pytest.raises(PrefixExhaustedError):
        first_block_reaching(sl, parse_ordinal("w*90"))


def test_tree_like_disjoint_and_single():
    alpha = parse_ordinal("w^2*2+1")
    sys_one = LadderSystem.build(alpha, {W2: make_simple_special(W2, 6)})
    assert is_tree_like(sys_one).ok
    sys_two = LadderSystem.build(
        alpha, {W2: make_simple_special(W2, 6), W2_2: make_simple_special(W2_2, 6)}
    )
    assert is_tree_like(sys_two).ok


def test_tree_like_violation_found():
    alpha = parse_ordinal("w^2*2+1")
    l1 = make_simple_special(W2, 5)
    # shares l1's values but at shifted positions
    entries = (parse_ordinal("w*1+2"),) + l1.entries[1:4] + (parse_ordinal("w^2*1+w*1+1"),)
    l2 = prefix_special(W2_2, entries)
    sys = LadderSystem.build(alpha, {W2: l1, W2_2: l2})
    rep = is_tree_like(sys)
    assert not rep.ok
    assert rep.witness[4] == "prefix-disagreement"


def test_tree_like_monotone_under_prefix_restriction():
    alpha = parse_ordinal("w^2*2+1")
    sys = LadderSystem.build(
        alpha,
        {W2: make_block_special(W2, 6), W2_2: make_block_special(W2_2, 6)},
    )
    assert is_tree_like(sys).ok
    for blocks in (1, 2, 4):
        assert is_tree_like(sys.restrict_blocks(blocks)).ok


def tree_like_scan(sys):
    """is_tree_like by comparing every entry of one ladder with every entry
    of the other, the oracle of the indexed lookup."""
    items = sys.items()
    for a in range(len(items)):
        d1, l1 = items[a]
        for b in range(a + 1, len(items)):
            d2, l2 = items[b]
            for n, v1 in enumerate(l1.entries):
                for m, v2 in enumerate(l2.entries):
                    if v1 != v2:
                        continue
                    if n != m:
                        return TreeLikeReport(
                            False,
                            (format_ordinal(d1), n, format_ordinal(d2), m, "index-mismatch"),
                        )
                    if l1.entries[:n] != l2.entries[:n]:
                        return TreeLikeReport(
                            False,
                            (format_ordinal(d1), n, format_ordinal(d2), m, "prefix-disagreement"),
                        )
    return TreeLikeReport(True)


@st.composite
def prefix_systems(draw):
    """Prefix ladders on w^2, w^2*2 and w^3 whose entries all lie below w^2,
    one per omega-interval: each starts with a drawn part of one common
    ladder and goes on with its own entries, so values coincide at equal
    and at unequal indices, with and without agreement below."""
    def entries(after, size):
        if after >= 8:
            return []
        slots = sorted(draw(st.sets(st.integers(after + 1, 8), max_size=size)))
        return [(a, draw(st.integers(1, 2))) for a in slots]

    common = entries(-1, 5)
    ladders = {}
    for delta in (W2, W2_2, W3):
        own = common[: draw(st.integers(0, len(common)))]
        own += entries(own[-1][0] if own else -1, 4)
        if not own:
            own = [(draw(st.integers(0, 8)), 1)]
        values = tuple(omega_power(1, a) + nat(j) if a else nat(j) for a, j in own)
        ladders[delta] = prefix_special(delta, values)
    return LadderSystem.build(omega_power(3) + nat(1), ladders)


@given(prefix_systems())
def test_tree_like_lookup_matches_the_nested_scan(sys):
    assert is_tree_like(sys) == tree_like_scan(sys)


@pytest.mark.parametrize("kind", ["index-mismatch", "prefix-disagreement"])
def test_prefix_systems_reach_each_violation(kind):
    sys = find(prefix_systems(), lambda s: (tree_like_scan(s).witness or "?")[-1] == kind)
    assert is_tree_like(sys) == tree_like_scan(sys)


def deepen(sl, blocks):
    """sl explored to at least `blocks` blocks, rebuilt from its rule."""
    return sl if blocks <= sl.block_count else _from_rule(sl.delta, sl.rule, blocks)


def test_rule_backed_ladders_approach_delta():
    # every threshold below delta is eventually cleared within the rule
    for delta, blocks in ((W2, 6), (W2_2, 6), (W3, 4)):
        eta = make_simple_special(delta, blocks)
        rep = validate_special(eta)
        assert rep.ok
        assert all(e < delta for e in eta.entries)
        for threshold in (nat(5), delta.limit_part):
            if threshold < delta:
                n = first_block_reaching(eta, threshold)
                assert not deepen(eta, n + 1).head(n) < threshold


def test_block_condition_constant_on_blocks():
    for sl in (make_block_special(W2, 5), make_block_special(W2_2, 4, ((1, 3, 7),))):
        rng = omega_range(sl)
        for n in range(sl.block_count):
            vals = {plus_omega(v) for v in sl.block_values(n)}
            assert vals == {rng.blocks[n]}


def test_omega_range_strictly_increasing_and_bounded():
    for delta, blocks in ((W2, 8), (W2_2, 8), (W3, 5)):
        rng = omega_range(make_simple_special(delta, blocks))
        for a, b in zip(rng.blocks, rng.blocks[1:]):
            assert a < b
        assert all(v <= delta for v in rng.blocks)


@pytest.mark.parametrize("breakpoints", [(), (0,), (-1, 1)])
def test_validate_reports_missing_or_negative_breakpoints(breakpoints):
    rep = validate_special(prefix_special(W2, (parse_ordinal("w*1+1"),), breakpoints))
    assert not rep.ok and rep.errors


def test_each_ladder_object_is_validated_once(monkeypatch):
    calls = []

    def counting(sl):
        calls.append(sl)
        return validate_special(sl)

    monkeypatch.setattr(ladders, "validate_special", counting)
    eta, nu = make_simple_special(W2, 4), make_block_special(W2_2, 4)
    sys = LadderSystem.build(parse_ordinal("w^2*2+1"), {W2: eta, W2_2: nu})
    assert omega_range(eta) is omega_range(eta)
    companion_same_range(eta, (2, 1, 1, 2))
    companion_same_range(eta, (1, 1, 1, 1))
    LadderSystem.build(sys.alpha, dict(sys.items()))
    assert omega_range(nu).blocks == tuple(plus_omega(nu.head(n)) for n in range(4))
    assert calls == [eta, nu]
    assert eta.report is eta.report and eta.report == validate_special(eta)
    # an equal ladder is another object, validated on its own
    make_simple_special(W2, 4).report
    assert len(calls) == 3


def test_invalid_ladder_keeps_raising_from_its_cached_report():
    bad = prefix_special(W2, (parse_ordinal("w*2+1"), parse_ordinal("w*1+1")))
    assert not bad.report.ok
    for _ in range(2):
        with pytest.raises(LadderInvalidError, match="not strictly increasing"):
            omega_range(bad)
        with pytest.raises(LadderInvalidError, match="not strictly increasing"):
            companion_same_range(bad, (1, 1))


# ---------------------------------------------------------------------------
# The per-entry rule evaluation that block rules replaced, kept as the oracle
# of their blocks and of the rule clause of validate_special.


def rule_entry(rule, i):
    """Entry i of the rule, its block found from the flat index."""
    period_length = sum(len(b) for b in rule.offsets)
    full, rem = divmod(i, period_length)
    n = full * len(rule.offsets)
    for block in rule.offsets:
        if rem < len(block):
            return rule.base + omega_power(rule.step_exp, n + 1) + Ordinal(((0, block[rem]),))
        rem -= len(block)
        n += 1
    raise AssertionError("unreachable")


def rule_breakpoint(rule, n):
    full, rem = divmod(n, len(rule.offsets))
    head = sum(len(b) for b in rule.offsets[:rem])
    return full * sum(len(b) for b in rule.offsets) + head


def validate_by_entries(sl):
    """validate_special's errors, the rule clause checked entry by entry."""
    errors = list(validate_special(replace(sl, rule=None)).errors)
    for i, e in enumerate(sl.entries):
        if rule_entry(sl.rule, i) != e:
            errors.append(f"rule disagrees with prefix at {i}")
            break
    if tuple(sl.breakpoints) != tuple(rule_breakpoint(sl.rule, n)
                                      for n in range(len(sl.breakpoints))):
        errors.append("breakpoints disagree with rule block structure")
    if sl.rule.cofinal_delta() != sl.delta:
        errors.append(f"rule is cofinal in {sl.rule.cofinal_delta()}, not in {sl.delta}")
    return tuple(errors)


@st.composite
def rule_ladders(draw):
    """A rule over a random base, step exponent and offset tuples, explored
    to a random number of blocks."""
    terms = draw(st.dictionaries(st.integers(0, 4), st.integers(1, 3), max_size=2))
    base = Ordinal(sorted(terms.items(), reverse=True))
    offsets = draw(st.lists(st.sets(st.integers(1, 5), min_size=1, max_size=3),
                            min_size=1, max_size=3))
    rule = BlockRule(base, draw(st.integers(1, 3)), tuple(tuple(sorted(b)) for b in offsets))
    return rule, draw(st.integers(1, 6))


@given(rule_ladders(), st.data())
def test_rule_blocks_match_the_per_entry_oracle(drawn, data):
    rule, blocks = drawn
    sl = _from_rule(rule.cofinal_delta(), rule, blocks)
    top = rule_breakpoint(rule, blocks)
    assert sl.entries == tuple(rule_entry(rule, i) for i in range(top))
    assert sl.breakpoints == tuple(rule_breakpoint(rule, n) for n in range(blocks + 1))
    assert validate_special(sl).ok and validate_by_entries(sl) == ()
    # change one entry or one breakpoint of the prefix
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, top - 1))
        new = data.draw(st.sampled_from((sl.entries[i] + nat(1), sl.entries[0], nat(i + 1),
                                         rule.base + omega_power(rule.step_exp, i + 2))))
        changed = replace(sl, entries=sl.entries[:i] + (new,) + sl.entries[i + 1:])
    else:
        n = data.draw(st.integers(0, blocks))
        k = sl.breakpoints[n] + data.draw(st.sampled_from((-1, 1, 2)))
        changed = replace(sl, breakpoints=sl.breakpoints[:n] + (k,) + sl.breakpoints[n + 1:])
    assert validate_special(changed).errors == validate_by_entries(changed)


# ---------------------------------------------------------------------------
# The walk past the prefix that the closed form of first_block_reaching
# replaced, kept as its oracle.


def walk_first_block_reaching(sl, threshold):
    """The least block whose head reaches the threshold, found by trying
    the prefix's blocks and then the rule's, one at a time."""
    for n in range(sl.block_count):
        if not sl.head(n) < threshold:
            return n
    return next(n for n in itertools.count(sl.block_count)
                if not sl.rule.block(n)[0] < threshold)


def ordinals_up_to(exp):
    """Ordinals with up to three terms of exponent at most exp."""
    terms = st.dictionaries(st.integers(0, exp), st.integers(1, 40), max_size=3)
    return terms.map(lambda t: Ordinal(sorted(t.items(), reverse=True)))


@given(rule_ladders(), st.data())
def test_first_block_reaching_matches_the_walk(drawn, data):
    rule, blocks = drawn
    sl = _from_rule(rule.cofinal_delta(), rule, blocks)
    # any ordinal below delta, or one past the rule's base, near the heads
    threshold = data.draw(st.one_of(
        ordinals_up_to(sl.delta[0][0]).filter(lambda t: t < sl.delta),
        ordinals_up_to(rule.step_exp).map(lambda lower: rule.base + lower)))
    assert first_block_reaching(sl, threshold) == walk_first_block_reaching(sl, threshold)
