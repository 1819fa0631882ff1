"""The far end read in place, against the route it replaced.

`dh_profile` reads the maximum downwards, and `match_fp_class` compares
the data once against the catalog in both orientations. The oracle is the
earlier route: rebuild the reversed dataset, read the pieces above its
minimum, mirror them back and resolve overlaps (an equal-polynomial merge
included); match the data, then its reversal, against the catalog.
"""

import json
from fractions import Fraction

from hypothesis import example, given, settings

from semifree8.classify import catalog, enumerate_all, match_fp_class
from semifree8.dataio import DataError, loads_data
from semifree8.dh import (
    DHPiece,
    dh_after_lam1_point,
    dh_isolated_min,
    dh_near_cp2,
    dh_profile,
    ruled_plane_k2,
)
from semifree8.model import CheckItem, ComponentType, fingerprint, reverse_action

from test_robustness import documents
from test_x8_matcher import oracle_is_x8_family

# ----------------------------------------------------------------------
# the replaced route
# ----------------------------------------------------------------------

CASE_OF = {
    "p4-isolated-min": "a",
    "p4-sphere-min": "a",
    "q4-interior-quadric": "b",
    "q4-two-planes": "b",
    "w5-surface-and-plane": "c",
    "x8-six-points": "d",
}


def oracle_min_side_pieces(data):
    mins = [c for c in data if c.lam == 0]
    lo = mins[0] if len(mins) == 1 else None
    levels = sorted({c.level for c in data})
    out = []
    if lo is None or len(levels) < 2:
        return out
    base = Fraction(lo.level)
    nxt = Fraction(levels[1])
    if lo.type is ComponentType.POINT:
        out.append(DHPiece(base, nxt, dh_isolated_min().compose_linear(1, -base)))
        wall = [c for c in data if c.level == levels[1]]
        if (len(wall) == 1 and wall[0].type is ComponentType.POINT
                and wall[0].lam == 1 and nxt - base == 2 and len(levels) >= 3):
            out.append(DHPiece(nxt, Fraction(levels[2]),
                               dh_after_lam1_point().compose_linear(1, -base)))
    elif (k2 := ruled_plane_k2(lo)) is not None:
        out.append(DHPiece(base, nxt, dh_near_cp2(k2).compose_linear(1, -base)))
    return out


def oracle_mirror(piece):
    return DHPiece(-piece.hi, -piece.lo, piece.poly.compose_linear(-1, 0))


def oracle_resolve(pieces):
    pieces = sorted(pieces, key=lambda p: (p.lo, p.hi))
    out = []
    warns = []
    for pc in pieces:
        if not out or pc.lo >= out[-1].hi:
            out.append(pc)
            continue
        prev = out[-1]
        if pc.poly == prev.poly:
            out[-1] = DHPiece(prev.lo, max(prev.hi, pc.hi), prev.poly)
            continue
        seam = (max(prev.lo, pc.lo) + min(prev.hi, pc.hi)) / 2
        warns.append(CheckItem(
            "dh-seam", "WARN",
            "the two extremal formulas disagree on a shared wall-free interval; "
            "truncating both at level %s" % seam))
        out[-1] = DHPiece(prev.lo, seam, prev.poly)
        out.append(DHPiece(seam, pc.hi, pc.poly))
    for a, b in zip(out, out[1:]):
        if a.hi == b.lo:
            va, vb = a.poly(a.hi), b.poly(b.lo)
            if va != vb:
                warns.append(CheckItem(
                    "dh-seam", "WARN",
                    "density value jumps at level %s: %s from below vs %s from above"
                    % (a.hi, va, vb)))
    return tuple(out), tuple(warns)


def oracle_match_fp_class(data):
    known = [(name, fingerprint(entry)) for name, entry in catalog().items()]
    for fp in map(fingerprint, (data, reverse_action(data))):
        for name, entry_fp in known:
            if fp == entry_fp:
                return CASE_OF[name]
    if oracle_is_x8_family(data):
        return "d"
    return "unclassified"


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------

def _pieces(pieces):
    return [(pc.lo, pc.hi, pc.poly.coeffs) for pc in pieces]


def check_against_oracle(data):
    below = oracle_min_side_pieces(data)
    above = [oracle_mirror(p) for p in oracle_min_side_pieces(reverse_action(data))]
    # opposite ends never pin one polynomial on an overlap, so dh._profile
    # needs no merge when it resolves the seams
    for p in below:
        for q in above:
            if max(p.lo, q.lo) < min(p.hi, q.hi):
                assert p.poly != q.poly, (p, q)
    pieces, warns = oracle_resolve(below + above)
    got = dh_profile(data)
    assert _pieces(got.pieces) == _pieces(pieces)
    assert [w.line() for w in got.warnings] == [w.line() for w in warns]
    assert match_fp_class(data) == oracle_match_fp_class(data)


def test_catalog_against_oracle():
    for data in catalog().values():
        check_against_oracle(data)
        check_against_oracle(reverse_action(data))


def test_family_members_against_oracle():
    seen = 0
    for result in enumerate_all(14).values():
        for fam in result.families:
            for n2 in range(fam.n2_min, fam.n2_max + 1):
                data = fam.instantiate(n2)
                check_against_oracle(data)
                check_against_oracle(reverse_action(data))
                seen += 1
    assert seen == 25


# an isolated point with no positive weight but a zero one: the sign rule
# takes it as the maximum, FixedPointData.extremes (which wants lam = 4 - dim)
# does not
POINT_WITH_ZERO_ON_TOP = {"dimension": 8, "b2": 1, "components": [
    {"type": "point", "weights": [1, 1, 1, 1], "normal": {"kind": "point"}},
    {"type": "point", "weights": [-1, -1, -1, 0], "normal": {"kind": "point"}},
]}

# an isolated minimum, a single index-2 point two levels up and a maximum:
# the blow-up piece from either end
BLOW_UP_BOTH_ENDS = {"dimension": 8, "b2": 1, "components": [
    {"type": "point", "weights": [1, 1, 1, 1], "normal": {"kind": "point"}},
    {"type": "point", "weights": [-1, 1, 1, 1], "normal": {"kind": "point"}},
    {"type": "point", "weights": [-1, -1, -1, 1], "normal": {"kind": "point"}},
    {"type": "point", "weights": [-1, -1, -1, -1], "normal": {"kind": "point"}},
]}

# a plane with no nonzero weight, neither lowest nor highest: its pieces run
# from its own level to the next level read from each end, against level order
PLANE_INSIDE = {"dimension": 8, "b2": 1, "components": [
    {"type": "cp2", "weights": [0, 0, 0, 0],
     "normal": {"kind": "fourdim_extremal", "c1": -1, "c2": 0}},
    {"type": "point", "weights": [1, 1, 1, -1], "normal": {"kind": "point"}},
    {"type": "point", "weights": [1, 1, 0, -1], "normal": {"kind": "point"}},
]}


@settings(max_examples=300, deadline=None)
@given(documents)
@example(POINT_WITH_ZERO_ON_TOP)
@example(BLOW_UP_BOTH_ENDS)
@example(PLANE_INSIDE)
def test_loadable_documents_against_oracle(doc):
    try:
        data = loads_data(json.dumps(doc))
    except DataError:
        return
    check_against_oracle(data)
