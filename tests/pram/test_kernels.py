"""Tests for the EREW tournament-min and broadcast kernels."""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pram.kernels.reduce import broadcast, tournament_min
from repro.pram.machine import Machine


def test_tournament_min_basic():
    m = Machine()
    entries = [((5.0, i), f"p{i}") for i in range(8)]
    entries[3] = ((1.0, 3), "winner")
    winner, stats = tournament_min(m, entries)
    assert winner == ((1.0, 3), "winner")
    assert stats.violations == 0
    assert stats.processors == 8


def test_tournament_min_single_and_empty():
    m = Machine()
    winner, _ = tournament_min(m, [((2.0, 0), "only")])
    assert winner == ((2.0, 0), "only")
    winner, _ = tournament_min(m, [])
    assert winner is None
    winner, _ = tournament_min(m, [None, None])
    assert winner is None


def test_tournament_min_with_gaps():
    m = Machine()
    entries = [None, ((3.0, 1), "a"), None, ((2.0, 3), "b"), None]
    winner, stats = tournament_min(m, entries)
    assert winner == ((2.0, 3), "b")
    assert stats.violations == 0


def test_tournament_min_logarithmic_depth():
    m = Machine()
    for n in [4, 16, 64, 256]:
        entries = [((float(i % 7), i), i) for i in range(n)]
        _, stats = tournament_min(m, entries)
        # 4 phases (5 machine steps) per level plus root write
        assert stats.depth <= 5 * math.ceil(math.log2(n)) + 2
        assert stats.violations == 0


def test_tournament_ties_resolved_by_total_order():
    m = Machine()
    entries = [((1.0, i), i) for i in range(10)]
    winner, _ = tournament_min(m, entries)
    assert winner == ((1.0, 0), 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e6, max_value=1e6), min_size=1, max_size=70),
       st.integers(0, 10**6))
def test_tournament_min_matches_builtin(values, seed):
    rng = random.Random(seed)
    entries = []
    for i, v in enumerate(values):
        if rng.random() < 0.15:
            entries.append(None)
        entries.append(((v, i), ("payload", i)))
    m = Machine()
    winner, stats = tournament_min(m, entries)
    expect = min((e for e in entries if e is not None), key=lambda e: e[0])
    assert winner == expect
    assert stats.violations == 0


def test_broadcast_small_counts():
    m = Machine()
    for count in [1, 2, 3, 5, 8, 13]:
        out, stats = broadcast(m, "x", count)
        assert out[:count] == ["x"] * count
        assert stats.violations == 0


def test_broadcast_logarithmic_depth():
    m = Machine()
    out, stats = broadcast(m, 42, 512)
    assert all(v == 42 for v in out)
    assert stats.depth <= 2 * (math.ceil(math.log2(512)) + 1)
    assert stats.violations == 0



def _reference_bracket(entries, min_leaves=1):
    """Plain recursive twin of ``kernels._bracket_plan``: every target
    plays a full binary bracket; the right child wins only strictly."""
    leaves = min_leaves
    while leaves < len(entries):
        leaves *= 2
    height = leaves.bit_length() - 1
    exits, winners = [], {}

    def play(t, node, level):
        if node >= leaves:
            k = node - leaves
            ok = k < len(entries) and entries[k][1] == t
            return (entries[k][0], k) if ok else None
        left = play(t, 2 * node, level - 1)
        right = play(t, 2 * node + 1, level - 1)
        if left and right:
            if right[0] < left[0]:
                exits.append((left[1], level, 0))
                return right
            exits.append((right[1], level, 1))
            return left
        return left or right

    for t in dict.fromkeys(t for _k, t in entries if t is not None):
        key, k = play(t, 1, height)
        winners[t] = key
        exits.append((k, height, 2))
    return leaves, tuple(sorted(exits)), winners


def test_bracket_plan_matches_the_tournament_kernel():
    """The host bracket simulator behind the tournament replay keys
    agrees with a plain recursive bracket and predicts the kernel's
    winners, and equal outcome keys mean equal per-step op counts (ties,
    lone children and None targets included)."""
    from repro.core.par.kernels import _bracket_plan, _tournament_forest

    rng = random.Random(11)
    fingerprints: dict = {}
    for _ in range(300):
        n = rng.randrange(1, 12)
        entries = [((float(rng.randrange(3)), 0),
                    rng.choice([0, 1, None]))
                   for _ in range(n)]
        for min_leaves in (1, 2):
            got = _bracket_plan(entries, min_leaves)
            want = _reference_bracket(entries, min_leaves)
            assert got == want and list(got[2]) == list(want[2])
        if all(t is None for _k, t in entries):
            continue
        leaves, outcome, winners = _bracket_plan(entries)
        m = Machine(audit="fast")
        _tournament_forest(m, entries, lambda t: m.mem.reg(("sink", t)),
                           "t")
        sinks = {t: m.mem.read(m.mem.reg(("sink", t))) for t in winners}
        assert sinks == winners
        plan = m._shaped.peek(("t", leaves, outcome))
        assert plan is not None and plan.n_effects == len(winners)
        fp = fingerprints.setdefault((leaves, outcome), plan.fingerprint)
        assert fp == plan.fingerprint
    assert len(fingerprints) < 300  # keys collide, so the check has teeth
