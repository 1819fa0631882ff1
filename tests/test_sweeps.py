"""`enumeration._sweep`: the solved innermost axis, and in the (0,4)
surface chain the solved next-to-innermost one, give the rows and the
survivors of the full loop over the box, here a plain loop over every
choice that shares no code with `_sweep`. The sweep trusts its solvers,
and the full loop holds them: it tests each solved rule by its own
statement of the identity (`IDENTITIES`, the closed forms the chains
tested before their solvers carried them) ahead of the chain's
first_failure. The sweeps run first_failure once per admitted tail at
each n2, so their work grows linearly in b4_max. The sweeps' survivor
checks hold under ``python -O`` too.

In the synthetic chains below the outermost axis stands where n2 stands
in the real ones: no solver reads it."""

import os
import subprocess
import sys
from itertools import product, starmap

import pytest
from hypothesis import given, settings, strategies as st

from semifree8 import enumeration
from semifree8.classify import surface_tail
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

# The identities the sweeps solve, as the full loop tests them: label
# prefix -> one identity per solved rule, in chain order. The localization
# sum reads c2 = b4 from the signature; the surface degree relation reads
# the verifier's closed form.
IDENTITIES = {
    "shape (0, 4) with Morse-index-2 point": (
        lambda n2, kp: 1 - 1 + n2 + kp * kp - (1 + n2) == 0,),
    SURFACE: (
        lambda n2, kp, a1, tail: kp * kp - (2 + n2) + (-a1 + tail) + n2 + 1 == 0,
        lambda n2, kp, a1, tail: tail == surface_tail(a1)),
    "shape (2, 4)": (lambda n2, kp, s: -s + n2 + kp * kp - (1 + n2) == 0,),
    "shape (4, 4)": (lambda n2, k1, k2: k1 * k1 + k2 * k2 == 2,),
}


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


def _with_identities(first_failure, solved, identities):
    """The chain the full loop runs: each solved rule, tested by its
    identity in chain order, ahead of first_failure."""
    def chain(*choice):
        for (rule_id, fmt, witness, _), holds in zip(solved, identities):
            if not holds(*choice):
                return rule_id, fmt, witness(*choice)
        return first_failure(*choice)
    return chain


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

    def both_ways(label, axes, first_failure, *solved):
        identities = next((v for k, v in IDENTITIES.items() if label.startswith(k)), ())
        assert len(identities) == len(solved), label
        full = _full_loop(label, axes, _with_identities(first_failure, solved, identities))
        assert _sweep(label, axes, first_failure, *solved) == full, label
        if len(solved) == 2:
            # the second rule tested choice by choice instead of solved
            assert _sweep(label, axes, _with_identities(first_failure, solved[1:],
                                                        identities[1:]), solved[0]) == full
        seen.append((label[:12], tuple(rule[0] for rule in solved)))
        return full

    monkeypatch.setattr(enumeration, "_sweep", both_ways)
    for shape in ADMISSIBLE_SHAPES:
        enumerate_case(shape, b4_max)
    # (0,6) has one axis and no solved rule; both (0,4) branches, (2,4)
    # and (4,4) solve the localization sum for their innermost axis, and
    # the (0,4) branch with a surface, swept first, the surface degree
    # relation for the next one
    assert seen == [
        ("shape (0, 4)", ("abbv-vanishing", "surface-degree-relation")),
        ("shape (0, 4)", ("abbv-vanishing",)), ("shape (0, 6)", ()),
        ("shape (2, 4)", ("abbv-vanishing",)), ("shape (4, 4)", ("abbv-vanishing",))]


def test_first_failure_tests_no_solved_rule(monkeypatch):
    # each solved rule is stated once, in its solver entry: over the whole
    # box, only the (0,6) chain's first_failure, which solves nothing,
    # names abbv-vanishing, and none names surface-degree-relation
    named = {}

    def naming(label, axes, first_failure, *solved):
        names = {f[0] for f in starmap(first_failure, product(*axes)) if f}
        named[label[:12]] = named.get(label[:12], set()) | (
            names & {"abbv-vanishing", "surface-degree-relation"})
        return _sweep(label, axes, first_failure, *solved)

    monkeypatch.setattr(enumeration, "_sweep", naming)
    for shape in ADMISSIBLE_SHAPES:
        enumerate_case(shape, 2)
    assert named == {"shape (0, 4)": set(), "shape (0, 6)": {"abbv-vanishing"},
                     "shape (2, 4)": set(), "shape (4, 4)": set()}


def _counting_sweeps(monkeypatch):
    """The labels of first_failure's calls, one entry per call."""
    calls = []

    def counted(label, axes, first_failure, *solved):
        def counting(*choice):
            calls.append(label)
            return first_failure(*choice)
        return _sweep(label, axes, counting, *solved)

    monkeypatch.setattr(enumeration, "_sweep", counted)
    return calls


def test_surface_branch_runs_first_failure_per_block(monkeypatch):
    # at b4_max 14, solving the innermost axis alone ran first_failure
    # 13,962 times in the (0,4) surface branch, and planning each (n2, k')
    # block 689 times; running it on the two batches too, 117 times; now
    # each of the 13 n2 values runs the 7 admitted tails (k' in -3..3), 91
    # times in all
    calls = _counting_sweeps(monkeypatch)
    enumerate_case((0, 4), 14)
    surface = sum(1 for label in calls if label.startswith(SURFACE))
    assert 0 < surface <= 200


@pytest.mark.parametrize("b4_max", [14, 30, 120, 1000])
def test_sweeps_run_first_failure_linearly_in_b4_max(monkeypatch, b4_max):
    # enumerate_all runs first_failure 386, 834, 3,354 and 27,994 times at
    # these b4_max, about 28 per unit; running it on each solved batch too
    # ran it 453, 981, 3,951 and 32,991 times, and replaying a plan per
    # block for every n2 1,889, 6,961, 92,731 and 6,052,971 times
    calls = _counting_sweeps(monkeypatch)
    enumeration.enumerate_all(b4_max)
    assert 0 < len(calls) <= 30 * b4_max


def _v_zero(solve):
    """A solved rule admitting v = 0 (solve yields it, and maybe values
    outside the axis), and its identity."""
    return ("abbv-vanishing", "v = %d", lambda outer, v: (v,), solve), (
        lambda outer, v: v == 0)


def _outer_cap(outer, v):
    if outer > 0:
        return "monotone-positive", "outer = %d", (outer,)
    return None


@pytest.mark.parametrize("inner", [range(0, 5), range(-3, 4), range(-4, 1), range(1, 4)])
def test_admitted_value_keeps_its_place(inner):
    # the admitted value 0 is first, in the middle, last, or outside the
    # range; at outer = 1 it fails a later rule, which must keep its place
    # relative to the batch of values the first rule rejects
    axes = (range(1, 3), inner)
    rule, holds = _v_zero(lambda: (0, 99))
    solved = _sweep("synthetic", axes, _outer_cap, rule)
    assert solved == _full_loop("synthetic", axes, _with_identities(_outer_cap, (rule,),
                                                                    (holds,)))
    rows, survivors = solved
    assert survivors == []
    first = "monotone-positive" if inner[0] == 0 else "abbv-vanishing"
    assert rows[0].rule_id == first
    assert sum(int(r.detail.split("; ")[1].split()[0]) for r in rows) == 2 * len(inner)


def test_admitted_value_first_then_batch_counts():
    rule, _ = _v_zero(lambda: (0,))
    rows, survivors = _sweep("synthetic", (range(0, 2), range(0, 5)), _outer_cap, rule)
    assert survivors == [(0, 0)]
    assert rows == [
        Rejection("synthetic", "abbv-vanishing", "v = 1; 8 parameter choices rejected"),
        Rejection("synthetic", "monotone-positive", "outer = 1; 1 parameter choices rejected"),
    ]


def _two_rules(solve_mid=lambda: (0,)):
    """The first rule fixes v = m, the second m = 0: the two solved rules,
    and their identities."""
    return (("abbv-vanishing", "v = %d, m = %d", lambda outer, m, v: (v, m), lambda m: (m,)),
            ("surface-degree-relation", "m = %d", lambda outer, m, v: (m,), solve_mid)), (
        lambda outer, m, v: v == m, lambda outer, m, v: m == 0)


def _outer_two(outer, m, v):
    # past both solved rules, every outer value but 2 is rejected
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
    solved, identities = _two_rules()
    full = _full_loop("synthetic", axes, _with_identities(_outer_two, solved, identities))
    assert _sweep("synthetic", axes, _outer_two, *solved) == full
    rows, survivors = full
    assert survivors == ([(2, 0, 0)] if 0 in mid and 0 in inner else [])
    assert sum(int(r.detail.split("; ")[1].split()[0]) for r in rows) == (
        3 * len(mid) * len(inner) - len(survivors))


def test_second_rule_batch_fires_before_the_first_rule_batch():
    # with mid = inner = [1, 2], the first choice (1, 1) passes the first
    # rule and fails the second, so the second rule's row comes first
    solved, _ = _two_rules()
    rows, survivors = _sweep("synthetic", (range(0, 1), range(1, 3), range(1, 3)),
                             _outer_two, *solved)
    assert survivors == []
    assert rows == [
        Rejection("synthetic", "surface-degree-relation",
                  "m = 1; 2 parameter choices rejected"),
        Rejection("synthetic", "abbv-vanishing", "v = 2, m = 1; 2 parameter choices rejected"),
    ]


def test_a_solver_leaving_out_an_admitted_value_disagrees_with_the_full_loop():
    # a second solver that yields m = 1 where the identity admits m = 0
    # batches the survivor (2, 0, 0) with the second rule, and admits
    # (2, 1, 1), where first_failure, which no longer tests that rule,
    # finds nothing; the full loop, testing the identity, keeps (2, 0, 0)
    axes = (range(2, 3), range(0, 2), range(-1, 2))
    solved, identities = _two_rules(solve_mid=lambda: (1,))
    rows, survivors = _sweep("synthetic", axes, _outer_two, *solved)
    full_rows, full_survivors = _full_loop(
        "synthetic", axes, _with_identities(_outer_two, solved, identities))
    assert (survivors, full_survivors) == ([(2, 1, 1)], [(2, 0, 0)])
    assert [r.detail for r in rows] != [r.detail for r in full_rows]


def _targeted_chain(offsets, mids, outer_target):
    """A `_two_rules`-style chain: its solved rules admit v = m + d for d
    in offsets and the mid values in mids (the solved rules and their
    identities), and its first_failure rejects v < 0 and every outer value
    but outer_target."""
    solved = (
        ("abbv-vanishing", "v = %d, m = %d", lambda outer, m, v: (v, m),
         lambda m: tuple(m + d for d in sorted(offsets))),
        ("surface-degree-relation", "m = %d", lambda outer, m, v: (m,),
         lambda: tuple(sorted(mids))))
    identities = (lambda outer, m, v: v - m in offsets, lambda outer, m, v: m in mids)

    def first_failure(outer, m, v):
        if v < 0:
            return "index-consistency", "v = %d", (v,)
        if outer != outer_target:
            return "monotone-positive", "outer = %d", (outer,)
    return solved, identities, first_failure


small_axes = st.tuples(st.integers(-3, 3), st.integers(0, 4)).map(
    lambda start_len: range(start_len[0], start_len[0] + start_len[1]))
small_sets = st.frozensets(st.integers(-3, 3), max_size=3)


@settings(max_examples=300, deadline=None)
@given(small_axes, small_axes, small_axes, small_sets, small_sets, st.integers(-3, 3),
       st.booleans())
def test_solved_sweep_matches_the_full_loop_on_random_boxes(outer, mid, inner, offsets,
                                                             mids, outer_target, with_mid):
    # the solvers yield each admitted value once and in the axis order;
    # without the second solver, first_failure tests the second identity
    solved, identities, rest = _targeted_chain(offsets, mids, outer_target)
    axes = (outer, mid, inner)
    full = _full_loop("synthetic", axes, _with_identities(rest, solved, identities))
    if with_mid:
        assert _sweep("synthetic", axes, rest, *solved) == full
    else:
        assert _sweep("synthetic", axes, _with_identities(rest, solved[1:], identities[1:]),
                      solved[0]) == full
