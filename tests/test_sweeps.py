"""`enumeration._sweep`: the solved innermost axis, and in the (0,4)
surface chain the solved next-to-innermost one, give the rows and the
survivors of the full loop over the box, here a plain loop over every
choice that shares no code with `_sweep`. The sweeps run first_failure
once per solved batch and admitted tail at each n2, so their work grows
linearly in b4_max. The sweeps' survivor checks hold under ``python -O``
too.

In the synthetic chains below the outermost axis stands where n2 stands
in the real ones: no solver reads it."""

import os
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from semifree8 import enumeration
from semifree8.enumeration import ADMISSIBLE_SHAPES, Rejection, _sweep, enumerate_case

from test_cold_start import SRC

# a density cap that no longer matches the (0,4) family table's n2 range
CAP_MOVED = """
import sys
from semifree8 import enumeration
print("optimize", sys.flags.optimize)
enumeration.b4_cap = lambda shape: 3
enumeration.enumerate_case((0, 4))
"""

SURFACE = "shape (0, 4) with Morse-index-2 sphere"


def _full_loop(label, axes, first_failure):
    """Every choice of the box in loop order: rows in first-fire order,
    each witness formatted when its rule first fires, and the survivors."""
    bins, survivors = {}, []
    for choice in product(*axes):
        failure = first_failure(*choice)
        if failure is None:
            survivors.append(choice)
            continue
        rule_id, fmt, args = failure
        if rule_id not in bins:
            bins[rule_id] = [fmt % args, 0]
        bins[rule_id][1] += 1
    rows = [Rejection(label, rid, "%s; %d parameter choices rejected" % (ex, n))
            for rid, (ex, n) in bins.items()]
    return rows, survivors


def test_survivor_check_fails_on_a_moved_cap(monkeypatch):
    monkeypatch.setattr(enumeration, "b4_cap", lambda shape: 3)
    with pytest.raises(AssertionError):
        enumerate_case((0, 4))


def test_survivor_check_fails_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", CAP_MOVED], env=env,
                          capture_output=True, text=True)
    assert proc.stdout == "optimize 1\n"
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "AssertionError", proc.stderr


@pytest.mark.parametrize("b4_max", [2, 9, 14])
def test_solved_sweeps_match_the_full_loop(monkeypatch, b4_max):
    seen = []

    def both_ways(label, axes, first_failure, solve=None, solve_mid=None):
        full = _full_loop(label, axes, first_failure)
        assert _sweep(label, axes, first_failure, solve, solve_mid) == full, label
        if solve_mid is not None:
            assert _sweep(label, axes, first_failure, solve) == full, label
        seen.append((label[:12], solve is not None, solve_mid is not None))
        return full

    monkeypatch.setattr(enumeration, "_sweep", both_ways)
    for shape in ADMISSIBLE_SHAPES:
        enumerate_case(shape, b4_max)
    # (0,6) has one axis and no solved variable; both (0,4) branches,
    # (2,4) and (4,4) solve their innermost one, and the (0,4) branch with
    # a surface, swept first, the next one too
    assert seen == [
        ("shape (0, 4)", True, True), ("shape (0, 4)", True, False),
        ("shape (0, 6)", False, False), ("shape (2, 4)", True, False),
        ("shape (4, 4)", True, False)]


def _counting_sweeps(monkeypatch):
    """The labels of first_failure's calls, one entry per call."""
    calls = []

    def counted(label, axes, first_failure, solve=None, solve_mid=None):
        def counting(*choice):
            calls.append(label)
            return first_failure(*choice)
        return _sweep(label, axes, counting, solve, solve_mid)

    monkeypatch.setattr(enumeration, "_sweep", counted)
    return calls


def test_surface_branch_runs_first_failure_per_block(monkeypatch):
    # at b4_max 14, solving the innermost axis alone ran first_failure
    # 13,962 times in the (0,4) surface branch, and planning each (n2, k')
    # block 689 times; now each of the 13 n2 values runs the two batches
    # and the 7 admitted tails (k' in -3..3), 117 times in all
    calls = _counting_sweeps(monkeypatch)
    enumerate_case((0, 4), 14)
    surface = sum(1 for label in calls if label.startswith(SURFACE))
    assert 0 < surface <= 200


@pytest.mark.parametrize("b4_max", [14, 30, 120, 1000])
def test_sweeps_run_first_failure_linearly_in_b4_max(monkeypatch, b4_max):
    # enumerate_all ran first_failure 453, 981, 3,951 and 32,991 times at
    # these b4_max, about 33 per unit; replaying a plan per block for every
    # n2 ran it 1,889, 6,961, 92,731 and 6,052,971 times
    calls = _counting_sweeps(monkeypatch)
    enumeration.enumerate_all(b4_max)
    assert 0 < len(calls) <= 40 * b4_max


def _chain(outer, v):
    if v != 0:
        return "abbv-vanishing", "v = %d", (v,)
    if outer > 0:
        return "monotone-positive", "outer = %d", (outer,)
    return None


@pytest.mark.parametrize("inner", [range(0, 5), range(-3, 4), range(-4, 1), range(1, 4)])
def test_admitted_value_keeps_its_place(inner):
    # the admitted value 0 is first, in the middle, last, or outside the
    # range; at outer = 1 it fails a later rule, which must keep its place
    # relative to the batch of values the first rule rejects
    axes = (range(1, 3), inner)
    solved = _sweep("synthetic", axes, _chain, solve=lambda: (0, 99))
    assert solved == _full_loop("synthetic", axes, _chain)
    rows, survivors = solved
    assert survivors == []
    first = "monotone-positive" if inner[0] == 0 else "abbv-vanishing"
    assert rows[0].rule_id == first
    assert sum(int(r.detail.split("; ")[1].split()[0]) for r in rows) == 2 * len(inner)


def test_admitted_value_first_then_batch_counts():
    rows, survivors = _sweep("synthetic", (range(0, 2), range(0, 5)), _chain,
                             solve=lambda: (0,))
    assert survivors == [(0, 0)]
    assert rows == [
        Rejection("synthetic", "abbv-vanishing", "v = 1; 8 parameter choices rejected"),
        Rejection("synthetic", "monotone-positive", "outer = 1; 1 parameter choices rejected"),
    ]


def _two_rules(outer, m, v):
    # the first rule fixes v = m, the second fixes m = 0; past both, the
    # third rejects every outer value but 2
    if v != m:
        return "abbv-vanishing", "v = %d, m = %d", (v, m)
    if m != 0:
        return "surface-degree-relation", "m = %d", (m,)
    if outer != 2:
        return "monotone-positive", "outer = %d", (outer,)
    return None


@pytest.mark.parametrize("mid", [range(0, 4), range(-2, 3), range(-3, 1), range(1, 4),
                                 range(-1, 2)])
@pytest.mark.parametrize("inner", [range(0, 4), range(-2, 3), range(-3, 1), range(1, 4),
                                   range(-5, -2)])
def test_admitted_mid_value_keeps_its_place(mid, inner):
    # the admitted mid value 0 is first, in the middle, last or outside its
    # range, and its admitted innermost value likewise; the second-rule
    # batch (v = m for m != 0, where v is in range) must keep its first-fire
    # place relative to the first-rule batch and the admitted choices
    axes = (range(1, 4), mid, inner)
    solved = _sweep("synthetic", axes, _two_rules,
                    solve=lambda m: (m,), solve_mid=lambda: (0,))
    full = _full_loop("synthetic", axes, _two_rules)
    assert solved == full
    rows, survivors = full
    assert survivors == ([(2, 0, 0)] if 0 in mid and 0 in inner else [])
    assert sum(int(r.detail.split("; ")[1].split()[0]) for r in rows) == (
        3 * len(mid) * len(inner) - len(survivors))


def test_second_rule_batch_fires_before_the_first_rule_batch():
    # with mid = inner = [1, 2], the first choice (1, 1) passes the first
    # rule and fails the second, so the second rule's row comes first
    rows, survivors = _sweep("synthetic", (range(0, 1), range(1, 3), range(1, 3)),
                             _two_rules, solve=lambda m: (m,),
                             solve_mid=lambda: (0,))
    assert survivors == []
    assert rows == [
        Rejection("synthetic", "surface-degree-relation",
                  "m = 1; 2 parameter choices rejected"),
        Rejection("synthetic", "abbv-vanishing", "v = 2, m = 1; 2 parameter choices rejected"),
    ]


def test_a_batched_survivor_is_an_error():
    # a solve_mid that leaves out the mid value 0 batches the survivor
    # (2, 0, 0) as the first choice of the second-rule batch
    with pytest.raises(AssertionError, match="solve_mid left out"):
        _sweep("synthetic", (range(2, 3), range(0, 2), range(-1, 2)), _two_rules,
               solve=lambda m: (m,), solve_mid=lambda: (1,))


def _targeted_chain(offsets, mids, outer_target):
    """A `_two_rules`-style chain whose first rule admits v = m + d for d
    in offsets, whose second admits the mid values in mids, and whose
    last rejects every outer value but outer_target."""
    def first_failure(outer, m, v):
        if v - m not in offsets:
            return "abbv-vanishing", "v = %d, m = %d", (v, m)
        if m not in mids:
            return "surface-degree-relation", "m = %d", (m,)
        if v < 0:
            return "index-consistency", "v = %d", (v,)
        if outer != outer_target:
            return "monotone-positive", "outer = %d", (outer,)
    return first_failure


small_axes = st.tuples(st.integers(-3, 3), st.integers(0, 4)).map(
    lambda start_len: range(start_len[0], start_len[0] + start_len[1]))
small_sets = st.frozensets(st.integers(-3, 3), max_size=3)


@settings(max_examples=300, deadline=None)
@given(small_axes, small_axes, small_axes, small_sets, small_sets, st.integers(-3, 3),
       st.booleans())
def test_solved_sweep_matches_the_full_loop_on_random_boxes(outer, mid, inner, offsets,
                                                             mids, outer_target, with_mid):
    # the solvers yield each admitted value once and in the axis order;
    # without solve_mid the second rule runs on every admitted tail
    chain = _targeted_chain(offsets, mids, outer_target)
    axes = (outer, mid, inner)
    solve = lambda m: tuple(m + d for d in sorted(offsets))
    solve_mid = (lambda: tuple(sorted(mids))) if with_mid else None
    assert _sweep("synthetic", axes, chain, solve, solve_mid) == _full_loop(
        "synthetic", axes, chain)
