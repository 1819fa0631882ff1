"""`classify._sweep`: the solved innermost axis gives the rows and the
survivors of the full loop over the box. The sweeps' survivor checks hold
under ``python -O`` too."""

import os
import subprocess
import sys

import pytest

from semifree8 import classify
from semifree8.classify import ADMISSIBLE_SHAPES, Rejection, _sweep, enumerate_case

from test_cold_start import SRC

# a density cap that no longer matches the (0,4) family table's n2 range
CAP_MOVED = """
import sys
from semifree8 import classify
print("optimize", sys.flags.optimize)
classify.b4_cap = lambda shape: 3
classify.enumerate_case((0, 4))
"""


def test_survivor_check_fails_on_a_moved_cap(monkeypatch):
    monkeypatch.setattr(classify, "b4_cap", lambda shape: 3)
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

    def both_ways(label, axes, first_failure, solve=None):
        full = _sweep(label, axes, first_failure)
        if solve is not None:
            assert _sweep(label, axes, first_failure, solve) == full, label
        seen.append((label, solve is not None))
        return full

    monkeypatch.setattr(classify, "_sweep", both_ways)
    for shape in ADMISSIBLE_SHAPES:
        enumerate_case(shape, b4_max)
    # (0,6) has one axis and no solved variable; both (0,4) branches,
    # (2,4) and (4,4) solve their innermost one
    assert [(label[:12], solved) for label, solved in seen] == [
        ("shape (0, 4)", True), ("shape (0, 4)", True), ("shape (0, 6)", False),
        ("shape (2, 4)", True), ("shape (4, 4)", True)]


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
    solved = _sweep("synthetic", axes, _chain, solve=lambda outer: (0, 99))
    assert solved == _sweep("synthetic", axes, _chain)
    rows, survivors = solved
    assert survivors == []
    first = "monotone-positive" if inner[0] == 0 else "abbv-vanishing"
    assert rows[0].rule_id == first
    assert sum(int(r.detail.split("; ")[1].split()[0]) for r in rows) == 2 * len(inner)


def test_admitted_value_first_then_batch_counts():
    rows, survivors = _sweep("synthetic", (range(0, 2), range(0, 5)), _chain,
                             solve=lambda outer: (0,))
    assert survivors == [(0, 0)]
    assert rows == [
        Rejection("synthetic", "abbv-vanishing", "v = 1; 8 parameter choices rejected"),
        Rejection("synthetic", "monotone-positive", "outer = 1; 1 parameter choices rejected"),
    ]
