"""Fixed-point data of a semi-free Hamiltonian circle action on an 8-manifold.

A dataset is a finite list of fixed components. Each carries its type (one
of five allowed manifolds), the four weights of the circle representation
on the normal-plus-tangent directions (weights live in {-1, 0, +1}, zeros
are tangential), and exact Chern data for the normal bundle. The moment
map value of a component is minus the weight sum, so levels are determined
by the combinatorics and never stored.

This module knows nothing about the case analysis; it provides the shared
vocabulary (components, Betti numbers via localization of homology,
structural validation, the self-intersection/signature test, action
reversal and fixed-point-data equivalence).

A dataset computes what every rule reads of it once, on first use: its
unique minimum and maximum, its interior components and its Betti vector
(``FixedPointData.extremes``, ``interior`` and ``betti``). These are the
only per-dataset copies; they are not dataclass fields, so equality,
hashing and repr see the components only. ``oriented`` is computed on each
call from them: it reverses the action only when ``dim_pair`` says so, which
few inputs need.

The public constructors take integers only: weights and Chern data go
through ``operator.index``, so a float, string or Fraction raises
TypeError instead of being truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import index

from .localization import (
    FourDimExtremalNormal,
    FourDimSplitNormal,
    PointNormal,
    SixDimNormal,
    SurfaceNormal,
)


_BETTI = {"point": (1,), "cp1": (1, 1), "cp2": (1, 1, 1), "p1xp1": (1, 2, 1),
          "cp3": (1, 1, 1, 1)}
_TANGENT_C1 = {"point": (), "cp1": (2,), "cp2": (3,), "p1xp1": (2, 2), "cp3": (4,)}


class ComponentType(Enum):
    POINT = "point"
    CP1 = "cp1"
    CP2 = "cp2"
    P1XP1 = "p1xp1"
    CP3 = "cp3"

    @property
    def complex_dim(self):
        return len(_BETTI[self._value_]) - 1

    @property
    def betti(self):
        """Even Betti numbers (b0, b2, ..) up to the top degree."""
        return _BETTI[self._value_]

    @property
    def tangent_c1(self):
        """First Chern class of the component in its generator basis."""
        return _TANGENT_C1[self._value_]


@dataclass(frozen=True)
class FixedComponent:
    type: ComponentType
    weights: tuple
    normal: object

    def __post_init__(self):
        ws = tuple(sorted(index(w) for w in self.weights))
        if len(ws) != 4:
            raise ValueError("a component of an 8-manifold carries exactly 4 weights")
        object.__setattr__(self, "weights", ws)

    # computed once; not dataclass fields, so __eq__, __hash__, repr are unchanged
    @cached_property
    def lam(self):
        """Number of negative weights, i.e. half the Morse index."""
        return sum(1 for w in self.weights if w < 0)

    @cached_property
    def level(self):
        """Moment map value, normalized to minus the weight sum."""
        return -sum(self.weights)

    @property
    def complex_dim(self):
        return self.type.complex_dim

    def sort_key(self):
        return (self.level, self.type.value, self.weights, repr(self.normal))


@dataclass(frozen=True)
class FixedPointData:
    components: tuple

    def __post_init__(self):
        comps = tuple(sorted(self.components, key=lambda c: c.sort_key()))
        object.__setattr__(self, "components", comps)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    # computed once; not dataclass fields, so __eq__, __hash__, repr are unchanged
    @cached_property
    def extremes(self):
        """(minimum, maximum): the one component with no negative weight and
        the one with lam = 4 - dim_C, each None when not unique."""
        mins = [c for c in self.components if c.lam == 0]
        maxs = [c for c in self.components if c.lam == 4 - c.complex_dim]
        return (mins[0] if len(mins) == 1 else None,
                maxs[0] if len(maxs) == 1 else None)

    @cached_property
    def interior(self):
        """The components other than the unique minimum and maximum."""
        lo, hi = self.extremes
        return tuple(c for c in self.components if c is not lo and c is not hi)

    @cached_property
    def betti(self):
        """Even Betti numbers (b0, b2, b4, b6, b8) by localization."""
        return tuple(kirwan_betti(self, i) for i in (0, 2, 4, 6, 8))


# ----------------------------------------------------------------------
# component constructors used all over the classifier and the catalog
# ----------------------------------------------------------------------

def point_component(weights):
    return FixedComponent(ComponentType.POINT, tuple(weights), PointNormal())

def surface_component(summands):
    normal = SurfaceNormal(summands)
    weights = (0,) + tuple(w for _, w in normal.summands)
    return FixedComponent(ComponentType.CP1, weights, normal)

def cp2_extremal(sign, c1, c2):
    return FixedComponent(ComponentType.CP2, (0, 0, sign, sign), FourDimExtremalNormal(c1, c2))

def fourdim_interior(ctype, minus, plus):
    return FixedComponent(ctype, (0, 0, -1, 1), FourDimSplitNormal(tuple(minus), tuple(plus)))

def cp3_extremal(sign, c1):
    return FixedComponent(ComponentType.CP3, (0, 0, 0, sign), SixDimNormal(c1))


# ----------------------------------------------------------------------
# check bookkeeping
# ----------------------------------------------------------------------

# The statement of every rule the package checks, keyed by check id. Call
# sites name only the id; reports, rejections and the JSON output read
# the statement from here.
RULES = {
    # structure and localization of homology
    "semi-free": "every weight lies in {-1, 0, +1}",
    "weight-zeros": "zero weights span the tangent directions",
    "normal-variant": "normal bundle data matches the component species",
    "typed-rules": "rules that read normal bundle data run only on structurally valid data",
    "unique-minimum": "exactly one component has no negative weight",
    "unique-maximum": "the top Betti number localizes to 1",
    "level-order": "moment map levels are strictly ordered",
    "kirwan-b2": "the second Betti number localizes to 1",
    "poincare": "Betti numbers are symmetric",
    "b4-positive": "the middle Betti number is positive",
    "monotone-positive": "the symplectic class restricts positively to components",
    "betti-vector": "Betti numbers by localization",
    "betti-budget-b2": "degree-2 classes localize to the fixed components",
    "betti-budget-b6": "degree-6 classes localize to the fixed components",
    "signature-self-intersection": "signature equals the self-intersection of the fixed set",
    "abbv-vanishing": "localization contributions over the fixed set sum to zero",
    # sphere areas
    "sphere-area-max": ("with a four-dimensional maximum, an empty gap above level 0 and a "
                        "Morse-index-4 point force a sphere of area 2 in the maximum"),
    "sphere-area-min": ("with a four-dimensional maximum, an empty gap below level 0 and a "
                        "Morse-index-4 point force a sphere of area |min level| in the minimum"),
    "sphere-span-min": ("if every interior component is a Morse-index-4 point, the minimum "
                        "carries a sphere of area equal to the moment interval length"),
    "sphere-span-extremes": ("with no interior components and a maximum of dimension at most "
                             "four, both extremes carry spheres of area equal to the moment "
                             "interval length"),
    "surface-degree-relation": ("a Morse-index-2 surface with nothing below it but an isolated "
                                "minimum satisfies 3*a1 = 2 + a1 + a2 + a3 in its normal degrees"),
    "sphere-rules": "sphere-area rules",
    # Fano index and interior exclusions
    "fano-index": "Fano index read off the extremes",
    "index-consistency": "the Fano index computed at either extremum is the same",
    "index-lower-oo": ("isolated extremes with a unique interior four-dimensional component "
                       "force Fano index at least 4"),
    "index-parity-surface": ("a lone Morse-index-2 surface between an isolated minimum and "
                             "level 0 forces an odd Fano index"),
    "index-cap-point": ("a lone Morse-index-2 point between an isolated minimum and level 0 "
                        "caps the Fano index at 2"),
    "lambda2-needs-4dim-extremal": ("isolated points with two negative weights require an "
                                    "extremal component of dimension four"),
    "interior-bundle-halves": ("between isolated extremes at depth four, each normal line "
                               "bundle of an interior four-dimensional component is half its "
                               "tangent class"),
    # push-forward density and volumes
    "dh-positivity": "push-forward density is positive on open regular intervals",
    "dh-seam": "push-forward density is continuous across interior walls of isolated points",
    "dh-k-bound": "density positivity bounds the middle Betti number",
    "total-volume": "moment-interval volume by halves",
    # the Fano table
    "index-range": "the case analysis only realizes Fano indices 2 through 5",
    "volume-match": "the moment-interval volume must equal the integral of c1^4",
    "degree-genus": "degree and genus are linked: c1^4 = 32*(genus - 1) for index-2 families",
    "finite-automorphisms": "a circle action generates a positive-dimensional symmetry group",
}


def rule_statement(check_id):
    """The registered statement of a check id; unknown ids raise."""
    try:
        return RULES[check_id]
    except KeyError:
        raise ValueError("unknown check id %r" % (check_id,)) from None


@dataclass(frozen=True)
class CheckItem:
    id: str
    verdict: str   # PASS / FAIL / WARN / INFO
    detail: str = ""

    def __post_init__(self):
        rule_statement(self.id)

    @property
    def rule(self):
        return RULES[self.id]

    def line(self):
        tail = " (%s)" % self.detail if self.detail else ""
        return "%s %s: %s%s" % (self.verdict, self.id, self.rule, tail)


class ConstraintReport:
    """An ordered list of check items with an overall verdict."""

    def __init__(self, items=()):
        self.items = list(items)

    def append(self, item):
        self.items.append(item)

    def extend(self, items):
        self.items.extend(items)

    @property
    def ok(self):
        return all(it.verdict != "FAIL" for it in self.items)

    @property
    def failures(self):
        return [it for it in self.items if it.verdict == "FAIL"]

    def lines(self):
        return [it.line() for it in self.items]

    def __iter__(self):
        return iter(self.items)

    def __repr__(self):
        return "<report %s, %d checks>" % ("PASS" if self.ok else "FAIL", len(self.items))


def pass_fail(check_id, good, detail, fail_detail=None):
    """A PASS or FAIL item; a FAIL takes fail_detail when one is given."""
    if not good and fail_detail is not None:
        detail = fail_detail
    return CheckItem(check_id, "PASS" if good else "FAIL", detail)


# ----------------------------------------------------------------------
# Betti numbers by localization of homology
# ----------------------------------------------------------------------

def betti_contribution(ctype, lam, i):
    """What a component of this type with lam negative weights adds to the
    even Betti number b_i of the ambient manifold: b_{i-2*lam}(F)."""
    betti, j = ctype.betti, i // 2 - lam
    return betti[j] if 0 <= j < len(betti) else 0


def kirwan_betti(data, i):
    """b_i of the ambient manifold, summed over the fixed components."""
    if i % 2:
        return 0
    return sum(betti_contribution(c.type, c.lam, i) for c in data)


def betti_vector(data):
    return data.betti


def dim_pair(data):
    """Real dimensions (d1, d2) of (minimum, maximum), sorted, plus a flag
    saying whether the action had to be reversed to sort them."""
    lo, hi = data.extremes
    if lo is None or hi is None:
        raise ValueError("need a unique minimum and a unique maximum")
    d1, d2 = 2 * lo.complex_dim, 2 * hi.complex_dim
    if d1 <= d2:
        return (d1, d2), False
    return (d2, d1), True


def oriented(data):
    """(shape, data, minimum, maximum, interior), the action reversed when
    dim_pair says so; None when the data, as given or reversed, has no
    unique minimum and maximum (possible only when types contradict
    weights)."""
    try:
        shape, rev = dim_pair(data)
    except ValueError:
        return None
    if rev:
        data = reverse_action(data)
    lo, hi = data.extremes
    if lo is None or hi is None:
        return None
    return shape, data, lo, hi, data.interior


# ----------------------------------------------------------------------
# symplectic form restrictions (the manifold is monotone: [w] = c1)
# ----------------------------------------------------------------------

def omega_coefficients(comp):
    """[w] restricted to a well-typed component, in its generator basis,
    or None for a point: c1(TF) + c1(NF), since c1 of the ambient tangent
    bundle splits as the Whitney sum of the two."""
    if comp.type is ComponentType.POINT:
        return None
    return tuple(t + n for t, n in zip(comp.type.tangent_c1, comp.normal.first_chern))


def area_fits(coeff, area):
    """Does a sphere of the given area fit a single-coefficient restriction
    of the symplectic class? Only a positive coefficient dividing the area
    lets it; the sweeps test this same closed form on sweep parameters."""
    return coeff > 0 and area % coeff == 0


def area_realizable(comp, area):
    """Can a sphere of the given symplectic area map into the component?

    Past the structural gate every extreme with a restriction has one
    coefficient: a four-dimensional split (P1xP1) component has weights
    -1 and +1, so it is never an extreme."""
    coeffs = omega_coefficients(comp)
    if area <= 0 or coeffs is None:
        return False
    (coeff,) = coeffs
    return area_fits(coeff, area)


# ----------------------------------------------------------------------
# structural validation
# ----------------------------------------------------------------------

def _normal_matches(comp):
    t, n, ws = comp.type, comp.normal, comp.weights
    nonzero = tuple(w for w in ws if w)
    if t is ComponentType.POINT:
        return isinstance(n, PointNormal), "isolated point carries no Chern data"
    if t is ComponentType.CP1:
        if not isinstance(n, SurfaceNormal):
            return False, "fixed sphere needs a rank-3 split normal bundle"
        got = tuple(sorted(w for _, w in n.summands))
        want = tuple(sorted(nonzero))
        return got == want, "summand weights %s vs nonzero weights %s" % (got, want)
    if t is ComponentType.CP2:
        if isinstance(n, FourDimExtremalNormal):
            return len(set(nonzero)) == 1, "equal-weight rank-2 bundle on an extremal plane"
        if isinstance(n, FourDimSplitNormal):
            return sorted(nonzero) == [-1, 1] and len(n.minus) == 1, \
                "interior plane needs weights -1,+1 and scalar c1 data"
        return False, "plane needs rank-2 normal data"
    if t is ComponentType.P1XP1:
        return (isinstance(n, FourDimSplitNormal) and len(n.minus) == 2
                and sorted(nonzero) == [-1, 1]), \
            "interior quadric surface needs weights -1,+1 and bidegree c1 data"
    if t is ComponentType.CP3:
        return isinstance(n, SixDimNormal) and len(nonzero) == 1, \
            "six-dimensional component needs a line normal bundle"
    return False, "unknown component type"


# the checks that make normal bundle data well typed; every rule after
# validate reads that data, so verification stops short when one fails
STRUCTURAL = ("semi-free", "weight-zeros", "normal-variant")


def validate(data):
    """Structural checks every dataset must pass before any classification."""
    rep = ConstraintReport()
    all_w = [w for c in data for w in c.weights]
    rep.append(pass_fail(
        "semi-free", all(w in (-1, 0, 1) for w in all_w),
        "%d weights checked" % len(all_w),
        "offending weights %s" % sorted({w for w in all_w if w not in (-1, 0, 1)})))

    ok = all(sum(1 for w in c.weights if w == 0) == c.complex_dim for c in data)
    rep.append(pass_fail(
        "weight-zeros", ok, "zero count matches dim_C on all components",
        "some component has zero count != dim_C"))

    matches = [(c, _normal_matches(c)) for c in data]
    rep.append(pass_fail(
        "normal-variant", all(good for _, (good, _) in matches),
        "all %d normal bundles well-typed" % len(data),
        "; ".join("%s: %s" % (c.type.value, why) for c, (good, why) in matches if not good)))

    n_min = sum(1 for c in data if c.lam == 0)
    rep.append(pass_fail("unique-minimum", n_min == 1, "one minimum", "%d candidate minima" % n_min))

    bv = betti_vector(data)
    rep.append(pass_fail("unique-maximum", bv[4] == 1, "b8 = 1", "b8 = %d" % bv[4]))

    lo, hi = data.extremes
    if lo is not None and hi is not None and lo is not hi:
        inner = data.interior
        ok = all(lo.level < c.level < hi.level for c in inner) and lo.level < hi.level
        rep.append(pass_fail(
            "level-order", ok, "levels %s" % sorted(c.level for c in data),
            "levels %s violate min < interior < max" % sorted(c.level for c in data)))
    else:
        rep.append(CheckItem("level-order", "FAIL", "no unique extrema to order against"))

    rep.append(pass_fail("kirwan-b2", bv[1] == 1, "b2 = 1", "b2 = %d" % bv[1]))
    rep.append(pass_fail(
        "poincare", bv == bv[::-1], "b = %s" % (bv,), "b = %s is not palindromic" % (bv,)))

    rep.append(pass_fail("b4-positive", bv[2] >= 1, "b4 = %d" % bv[2]))

    bad = []
    for c, (good, _) in matches:
        if not good:
            continue  # the normal-variant check has already flagged this one
        coeffs = omega_coefficients(c)
        if coeffs is not None and any(e < 1 for e in coeffs):
            bad.append((c.type.value, coeffs))
    rep.append(pass_fail(
        "monotone-positive", not bad, "restrictions positive on all components",
        "nonpositive restriction on %s" % bad))
    return rep


# ----------------------------------------------------------------------
# signature via self-intersection of the fixed set
# ----------------------------------------------------------------------

def signature_check(data):
    """Middle Betti number equals the fixed-set self-intersection.

    Only meaningful when every component has dimension at most four; a
    six-dimensional component takes the dataset outside the scope of the
    self-intersection argument and the check reports PASS with a note.
    """
    if any(c.complex_dim == 3 for c in data):
        return CheckItem("signature-self-intersection", "PASS",
                         "six-dimensional component present, argument not applicable")
    # the self-intersection of the fixed set: the integrals of c2 of the
    # normal bundles of the four-dimensional components
    si = sum(c.normal.c2 for c in data if c.complex_dim == 2)
    b4 = data.betti[2]
    return pass_fail("signature-self-intersection", si == b4,
                     "self-intersection %s = b4" % si,
                     "self-intersection %s but b4 = %d" % (si, b4))


# ----------------------------------------------------------------------
# action reversal and equivalence of fixed point data
# ----------------------------------------------------------------------

def reverse_action(data):
    """The same manifold with the circle running backwards."""
    return FixedPointData(tuple(
        FixedComponent(c.type, tuple(-w for w in c.weights), c.normal.reversed())
        for c in data))


def fingerprint(data):
    """Sorted component fingerprints; equal exactly when fp_equivalent."""
    return tuple(sorted((c.type.value, c.weights) + c.normal.fingerprint for c in data))


def fp_equivalent(a, b):
    """Same fixed point data: component-wise match of type, weights and
    normal Chern data, allowing the factor swap on quadric surfaces."""
    return fingerprint(a) == fingerprint(b)
