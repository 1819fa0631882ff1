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
independent route through an exact reduced-space ring, which imports
:mod:`semifree8.rings` only when it runs. Volumes are
normalized so that the total moment-interval volume equals the integral
of the fourth power of the symplectic class (a factor of 4 per unit of
density, coming from the binomial normalization of the quartic).

Positivity of the density on open regular intervals is decided exactly
with Sturm sequences; a zero at a wall is fine, a zero inside is not.

The layer keeps one cache, not keyed on a document: a profile on the pair
of end descriptions ``_end(data, 1)`` and ``_end(data, -1)``, flat tuples
of the end, the extreme's level read from that end, and per piece its
interval, formula and argument (``k2`` for the ruled one), all that a
profile reads of the data. The key holds ints and functions, whose equality
and hash read exact values (a function's is its identity), and
``_profile`` is pure and returns an immutable record, so a hit returns what
a fresh call would. A verify-families pass over the benchmark's families
corpus meets 180 distinct pairs, the edits corpus 22, ``enumerate_all(30)``
24; the cache keeps at most ``CACHE_SIZE`` of them, least recently used
first out.

A profile certifies its pieces when it is built: ``DHProfile.items`` holds
their ``dh-positivity`` items, one ``_certificate`` call, which builds the
piece's Sturm chains, per piece. A profile that ``dh_profile`` has returned
before is the cached object itself, so ``positivity_check`` on it, the warm
path of ``verification_report``, reads those items and certifies nothing.
No ``Poly`` is part of the key, so no pass, cold or warm, hashes or
compares one.

A level is exact and canonical: an int when it is integral, else a
Fraction. The component levels are ints, and so are the piece endpoints
the formulas pin; only a seam's truncation level, half the sum of two
levels (``_half``), can be a Fraction, and it is the one place this module
builds one. The jump check at a wall compares the two values as integer
pairs (``Poly.ratio_at``) and formats them only for its WARN text, so a
profile without a fractional seam loads no ``fractions``.

``dh_profile`` reads only data past the structural gate
(``model.require_well_typed``) and refuses the rest with
``IllTypedError``, so every piece it pins has exact endpoints in level
order. ``total_volume`` is the one reader here that answers for any
loadable data.
"""

from functools import lru_cache
from operator import index

from .model import (
    CheckItem,
    ComponentType,
    ConstraintReport,
    oriented,
    pass_fail,
    require_well_typed,
)
from .polynomial import Poly, fmt_ratio, positive_on_open
from .record import Record, set_field


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
    from .rings import ring_projectivized
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

class DHPiece(Record):
    """The density on ``[lo, hi]``, exact levels (an int when integral,
    else a Fraction): ``poly``, a Poly in the moment level variable."""

    _fields = ("lo", "hi", "poly")


class DHProfile(Record):
    """``items`` are the pieces' ``dh-positivity`` items, each piece
    certified once (``_certificate``) when the profile is built, or the one
    INFO item saying that no piece is pinned; not a record field."""

    _fields = ("pieces", "warnings")   # warnings: WARN-level CheckItems about seams

    def __init__(self, *args, **kwargs):
        Record.__init__(self, *args, **kwargs)
        set_field(self, "items", tuple([_certificate(pc.poly, pc.lo, pc.hi) for pc in self.pieces])
                  or (CheckItem("dh-positivity", "INFO",
                                "no density piece is pinned for this configuration"),))


CACHE_SIZE = 1024      # profiles kept, past every distinct count above


def _end(data, end):
    """What the formulas pin next to the minimum (end = 1) or maximum (end =
    -1) of ``data.extremes``, read as the reversed action reads its minimum
    (levels as end * level), as one flat tuple: the end, the extreme's
    level, then per piece its interval, formula and argument tuple, all
    read from that end; () when nothing is pinned."""
    ext = data.extremes[0 if end == 1 else 1]
    levels = data.levels if end == 1 else [-v for v in reversed(data.levels)]
    if ext is None or len(levels) < 2:
        return ()
    base = end * ext.level
    if ext.type is ComponentType.POINT:
        out = (end, base, base, levels[1], dh_isolated_min, ())
        if levels[1] - base == 2 and len(levels) >= 3:
            wall = [c for c in data if end * c.level == levels[1]]
            # the wall point's index counts its weights of sign -end
            if (len(wall) == 1 and wall[0].type is ComponentType.POINT
                    and sum(1 for w in wall[0].weights if end * w < 0) == 1):
                out += (levels[1], levels[2], dh_after_lam1_point, ())
        return out
    k2 = ruled_plane_k2(ext)    # reversal keeps an extremal plane's normal data
    return () if k2 is None else (end, base, base, levels[1], dh_near_cp2, (k2,))


@lru_cache(maxsize=CACHE_SIZE)
def _profile(below, above):
    """The pieces two end descriptions pin, seams resolved."""
    pieces = []
    for end, base, *rest in filter(None, (below, above)):
        for i in range(0, len(rest), 4):
            a, b, formula, args = rest[i:i + 4]
            lo, hi = (a, b) if end == 1 else (-b, -a)
            pieces.append(DHPiece(lo, hi, formula(*args).compose_linear(end, -base)))
    # only opposite ends overlap, and never with one polynomial (leading
    # terms, degrees or interval lengths differ): every overlap is a seam
    pieces.sort(key=lambda p: (p.lo, p.hi))
    out, warns = [], []
    for pc in pieces:
        if out and pc.lo < out[-1].hi:
            prev = out.pop()
            seam = _half(max(prev.lo, pc.lo) + min(prev.hi, pc.hi))
            warns.append(CheckItem(
                "dh-seam", "WARN",
                "the two extremal formulas disagree on a shared wall-free interval; "
                "truncating both at level %s" % seam))
            out.append(DHPiece(prev.lo, seam, prev.poly))
            pc = DHPiece(seam, pc.hi, pc.poly)
        out.append(pc)
    for a, b in zip(out, out[1:]):
        if a.hi == b.lo:
            n, d = a.hi.numerator, a.hi.denominator
            (va, da), (vb, db) = a.poly.ratio_at(n, d), b.poly.ratio_at(n, d)
            if va * db != vb * da:
                warns.append(CheckItem(
                    "dh-seam", "WARN",
                    "density value jumps at level %s: %s from below vs %s from above"
                    % (a.hi, fmt_ratio(va, da), fmt_ratio(vb, db))))
    return DHProfile(tuple(out), tuple(warns))


def _half(s):
    """s / 2 for an int or Fraction s, exactly: an int when it is one, else
    a Fraction (the true division of two ints would be a float)."""
    if not s % 2:
        return s // 2       # an int, for a Fraction s as well
    from fractions import Fraction
    return Fraction(s, 2)


def dh_profile(data):
    """All density pieces the three local formulas (cubic, blow-up, ruled)
    pin next to each extreme, read in place, with seam diagnostics. Data
    they do not cover gets fewer (possibly zero) pieces; nothing is
    extrapolated. The formulas read normal bundle data, so data that is not
    ``well_typed`` raises IllTypedError."""
    require_well_typed(data, "density formulas")
    return _profile(_end(data, 1), _end(data, -1))


def _certificate(poly, lo, hi):
    """The dh-positivity item of one piece, certified afresh: ``DHProfile``
    calls it once per piece when ``_profile`` builds a profile. Every piece
    of a well-typed profile has exact endpoints with lo < hi: an extreme a
    formula reads (a point or a plane) lies at the lowest level its end can
    hold, so each piece runs up from it, in level order."""
    ok, detail = positive_on_open(poly, lo, hi)
    return pass_fail("dh-positivity", ok, "%s on (%s, %s): %s" % (poly.fmt("L"), lo, hi, detail))


def positivity_check(profile):
    """PASS iff every known density piece is positive on its open interval:
    the profile's certified ``items``, then its seam ``warnings``. It needs
    no gate of its own: ``dh_profile``, which builds the profiles, refuses
    data that is not ``well_typed``."""
    return ConstraintReport(profile.items + profile.warnings)


# ----------------------------------------------------------------------
# total volumes, only for the two patterns computable by halves
# ----------------------------------------------------------------------

def total_volume(data):
    """Integral of the fourth power of the symplectic class, when the
    configuration, oriented, is one of the two patterns whose halves are
    both pinned; otherwise None (not computable by halves).

    The one reader of normal bundle data that is not gated: it reads only
    the extremes' ``ruled_k2``, which every normal states (None where it
    does not apply), and the interior's types and indices (in shape (4,4),
    whether the dataset's ``lam2_points`` are all its interior), so it
    answers for any loadable data; ``match_fp_class`` reads it on every
    document."""
    data = oriented(data)
    if data is None:
        return None
    shape, (lo, hi), inner = data.shape, data.extremes, data.interior
    if shape == (4, 4):
        k2s = (ruled_plane_k2(lo), ruled_plane_k2(hi))
        if None in k2s or len(data.lam2_points) != len(inner):
            return None
        return half_volume_cp2(k2s[0]) + half_volume_cp2(k2s[1])
    if shape == (0, 4):
        lams = [c.lam for c in inner]
        if (lams.count(1) != 1 or not set(lams) <= {1, 2}
                or any(c.type is not ComponentType.POINT for c in inner)):
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
    if len(split) != 2 or sum(split) != b4:
        return CheckItem("dh-k-bound", "FAIL", "split %s %s" % (split, (
            "is not two parts" if len(split) != 2 else "does not sum to b4 = %d" % b4)))
    ok = max(split) <= K2_CAP
    return pass_fail("dh-k-bound", ok, "split %s with both parts %s %d"
                     % (split, "<=" if ok else "not <=", K2_CAP))
