"""Push-forward densities of the moment map and exact volume bookkeeping.

The density at a regular level c is the integral over the reduced space of
the cube of the reduced symplectic class; it is a piecewise cubic in c.
Three formulas pin the density exactly next to an extremum, x being the
distance from it, and each extreme is read in place (the maximum exactly
as the reversed action reads its minimum):

* x^3 next to an isolated extremum, whose reduced space is CP^3 with
  class x*h, and x^3 - (x-2)^3 once a single index-2 point at distance 2
  is crossed (the blow-up);
* 12x + 6x^2 + (1 - k2)*x^3 on the first two units next to a 4-dim
  extremum whose normal bundle has total class 1 - h + k2*h^2, whose
  reduced space is the projectivized bundle (the ruled density).

The ruled density is implemented twice: a stored closed form and an
independent route through an exact reduced-space ring. Volumes are
normalized so that the total moment-interval volume equals the integral
of the fourth power of the symplectic class (a factor of 4 per unit of
density, coming from the binomial normalization of the quartic).

Positivity of the density on open regular intervals is decided exactly
with Sturm sequences; a zero at a wall is fine, a zero inside is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index

from .model import (
    CheckItem,
    ComponentType,
    ConstraintReport,
    oriented,
    pass_fail,
)
from .polynomial import Poly, positive_on_open
from .rings import ring_projectivized


# ----------------------------------------------------------------------
# the three local density formulas, and a ring oracle for the ruled one
# ----------------------------------------------------------------------

def dh_near_cp2(k2):
    """Density 12x + 6x^2 + (1-k2)x^3 above a 4-dim extremum with total
    normal class 1 - h + k2*h^2; x is the distance from the extremum,
    valid for 0 < x < 2 when no other fixed level intervenes."""
    return Poly([0, 12, 6, 1 - k2])


def dh_from_ring(k2):
    """Same density computed from scratch: integrate the cube of the
    reduced class 2*eta + x*xi over the projectivized-bundle ring."""
    ring = ring_projectivized(k2)
    w = 2 * ring.gen(0) + Poly.x() * ring.gen(1)
    out = (w ** 3).integrate()
    return out if isinstance(out, Poly) else Poly([out])


def dh_isolated_min():
    """Density x^3 above an isolated minimum, x the distance from it."""
    return Poly([0, 0, 0, 1])


def dh_after_lam1_point():
    """Density on (2, 4) above an isolated minimum once the single
    index-2 point at distance 2 is crossed: x^3 - (x-2)^3."""
    x = Poly.x()
    return x ** 3 - (x - 2) ** 3


def half_volume_cp2(k2):
    """Volume of the half-interval bounded by a 4-dim extremum with
    k' = -1 and c2 = k2: 176 - 16*k2, four times the integral of
    dh_near_cp2(k2) over (0, 2) (the tests integrate it as the oracle)."""
    return 176 - 16 * k2


def half_volume_isolated_pair():
    """Volume of the half-interval containing an isolated extremum and a
    single adjacent index-2 point: 240, four times the integrals of
    dh_isolated_min over (0, 2) and dh_after_lam1_point over (2, 4) (the
    tests integrate them as the oracle)."""
    return 240


# The ruled density x*(12 + 6x + (1-k2)x^2) stays positive on (0, 2)
# exactly when its value 56 - 8*k2 at the far wall is >= 0, so density
# positivity caps every plane coefficient k2 here.
K2_CAP = 7


def b4_cap(shape):
    """The largest middle Betti number density positivity permits, or None
    for a shape it does not constrain: in (0,4) the plane coefficient k2
    equals b4, in (4,4) the two coefficients split b4."""
    return {(0, 4): K2_CAP, (4, 4): 2 * K2_CAP}.get(shape)


def ruled_plane_k2(comp):
    """k2 when the component is an extremal plane whose normal bundle has
    total Chern class 1 - h + k2*h^2, the case dh_near_cp2 covers; None
    for every other component."""
    return comp.normal.ruled_k2 if comp.type is ComponentType.CP2 else None


# ----------------------------------------------------------------------
# density profiles assembled from fixed point data
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DHPiece:
    lo: Fraction
    hi: Fraction
    poly: Poly        # in the moment level variable


@dataclass(frozen=True)
class DHProfile:
    pieces: tuple
    warnings: tuple   # WARN-level CheckItems about seams


def _end_pieces(data, end):
    """The pieces pinned next to the minimum (end = 1) or the maximum
    (end = -1), read exactly as the reversed action reads its minimum: the
    extreme has no weight of sign -end, and levels read as end * level."""
    ext = [c for c in data if all(end * w >= 0 for w in c.weights)]
    levels = sorted({end * c.level for c in data})
    if len(ext) != 1 or len(levels) < 2:
        return []
    ext, base = ext[0], Fraction(end * ext[0].level)

    def piece(a, b, density):   # (a, b) read from this end, mapped back to levels
        lo, hi = (a, b) if end == 1 else (-b, -a)
        return DHPiece(Fraction(lo), Fraction(hi), density.compose_linear(end, -base))

    if ext.type is ComponentType.POINT:
        out = [piece(base, levels[1], dh_isolated_min())]
        wall = [c for c in data if end * c.level == levels[1]]
        # the wall point's index counts its weights of sign -end
        if (len(wall) == 1 and wall[0].type is ComponentType.POINT
                and sum(1 for w in wall[0].weights if end * w < 0) == 1
                and levels[1] - base == 2 and len(levels) >= 3):
            out.append(piece(levels[1], levels[2], dh_after_lam1_point()))
        return out
    k2 = ruled_plane_k2(ext)    # reversal keeps an extremal plane's normal data
    return [] if k2 is None else [piece(base, levels[1], dh_near_cp2(k2))]


def _resolve(pieces):
    # only opposite ends overlap, and never with one polynomial (leading
    # terms, degrees or interval lengths differ): every overlap is a seam
    pieces = sorted(pieces, key=lambda p: (p.lo, p.hi))
    out = []
    warns = []
    for pc in pieces:
        if not out or pc.lo >= out[-1].hi:
            out.append(pc)
            continue
        prev = out[-1]
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


def dh_profile(data):
    """All density pieces the three local formulas (cubic, blow-up, ruled)
    pin next to each extreme, read in place, with seam diagnostics. Data
    they do not cover gets fewer (possibly zero) pieces; nothing is
    extrapolated."""
    pieces, warns = _resolve(_end_pieces(data, 1) + _end_pieces(data, -1))
    return DHProfile(pieces, warns)


def positivity_check(profile):
    """PASS iff every known density piece is positive on its open interval.

    Like every typed rule (``signature_check``, ``abbv_sum``,
    ``sphere_constraints``), it expects data past the structural gate
    (``model.STRUCTURAL``) and may raise on data that fails it;
    ``verification_report`` never calls it there."""
    rep = ConstraintReport()
    if not profile.pieces:
        rep.append(CheckItem("dh-positivity", "INFO",
                             "no density piece is pinned for this configuration"))
        return rep
    for pc in profile.pieces:
        ok, detail = positive_on_open(pc.poly, pc.lo, pc.hi)
        rep.append(pass_fail("dh-positivity", ok,
                             "%s on (%s, %s): %s" % (pc.poly.fmt("L"), pc.lo, pc.hi, detail)))
    rep.extend(profile.warnings)
    return rep


# ----------------------------------------------------------------------
# total volumes, only for the two patterns computable by halves
# ----------------------------------------------------------------------

def total_volume(data):
    """Integral of the fourth power of the symplectic class, when the
    configuration is one of the two patterns whose halves are both
    pinned; otherwise None (not computable by halves)."""
    o = oriented(data)
    if o is None:
        return None
    (d1, d2), _, lo, hi, inner = o
    if (d1, d2) == (4, 4):
        k2s = (ruled_plane_k2(lo), ruled_plane_k2(hi))
        if None in k2s or not all(c.type is ComponentType.POINT and c.lam == 2
                                  for c in inner):
            return None
        return half_volume_cp2(k2s[0]) + half_volume_cp2(k2s[1])
    if (d1, d2) == (0, 4):
        lam1 = [c for c in inner if c.lam == 1]
        lam2 = [c for c in inner if c.lam == 2]
        if len(lam1) + len(lam2) != len(inner) or len(lam1) != 1:
            return None
        if any(c.type is not ComponentType.POINT for c in lam1 + lam2):
            return None
        k2 = ruled_plane_k2(hi)
        if k2 is None:
            return None
        return half_volume_isolated_pair() + half_volume_cp2(k2)
    return None


def b4_bound_check(b4, shape, split=None):
    """Does density positivity permit this middle Betti number?

    Every plane coefficient must stay <= K2_CAP, which bounds b4 by
    b4_cap(shape); a (4,4) split is checked part by part when given.
    """
    shape = tuple(sorted(index(v) for v in shape))
    b4 = index(b4)
    cap = b4_cap(shape)
    if cap is None:
        return CheckItem("dh-k-bound", "PASS",
                         "no density constraint applies to shape %s" % (shape,))
    ok = b4 <= cap
    if shape == (0, 4):
        return pass_fail("dh-k-bound", ok, "plane coefficient k2 = b4 = %d %s %d"
                         % (b4, "<=" if ok else ">", K2_CAP))
    if split is None:
        return pass_fail("dh-k-bound", ok, "a split of %d into two parts <= %d %s"
                         % (b4, K2_CAP, "exists" if ok else "cannot exist"))
    split = tuple(index(v) for v in split)
    if sum(split) != b4:
        return CheckItem("dh-k-bound", "FAIL",
                         "split %s does not sum to b4 = %d" % (split, b4))
    ok = max(split) <= K2_CAP
    return pass_fail("dh-k-bound", ok, "split %s with both parts %s %d"
                     % (split, "<=" if ok else "not <=", K2_CAP))
