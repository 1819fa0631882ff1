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

A component computes its Morse half-index ``lam``, its ``level``, its
``complex_dim`` and its structural facts when it is built: ``mismatch``
(``_normal_mismatch``, the reason its normal data does not fit its type
and weights, or None) and ``omega`` (``omega_coefficients``, set when it
fits), which ``validate`` reads; the members of ``ComponentType`` carry
their complex dimension, Betti numbers and tangent Chern class as plain
attributes. A dataset computes what every rule reads of it when it is
built: its unique minimum and maximum, its interior components and its
Betti vector (``FixedPointData.extremes``, ``interior`` and ``betti``).
These are the only per-dataset copies. No derived value of a component
or a dataset is a record field, so equality, hashing and repr see the
type, weights and normal data of a component and the components of a
dataset only. ``oriented`` is computed on each call from them: it reverses
the action only when ``dim_pair`` says so, which few inputs need.

The public constructors take integers only: weights and Chern data go
through ``operator.index``, so a float, string or Fraction raises
TypeError instead of being truncated.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from operator import index

from .localization import (
    FourDimExtremalNormal,
    FourDimSplitNormal,
    PointNormal,
    SixDimNormal,
    SurfaceNormal,
)
from .record import Record, set_field


# per type: the even Betti numbers (b0, b2, ..) up to the top degree, and
# the first Chern class of the tangent bundle in the generator basis
_BETTI = {"point": (1,), "cp1": (1, 1), "cp2": (1, 1, 1), "p1xp1": (1, 2, 1),
          "cp3": (1, 1, 1, 1)}
_TANGENT_C1 = {"point": (), "cp1": (2,), "cp2": (3,), "p1xp1": (2, 2), "cp3": (4,)}


class ComponentType(Enum):
    POINT = "point"
    CP1 = "cp1"
    CP2 = "cp2"
    P1XP1 = "p1xp1"
    CP3 = "cp3"

    def __init__(self, value):
        self.betti = _BETTI[value]
        self.complex_dim = len(self.betti) - 1
        self.tangent_c1 = _TANGENT_C1[value]


class FixedComponent(Record):
    """``lam`` is the number of negative weights, i.e. half the Morse index,
    ``level`` the moment map value, normalized to minus the weight sum,
    ``complex_dim`` the complex dimension of the type, ``mismatch`` why the
    normal data does not fit the type and weights (``_normal_mismatch``, None
    when it fits) and ``omega`` the restriction of [w] when it fits
    (``omega_coefficients``, None for a point or an ill-typed component)."""

    _fields = ("type", "weights", "normal")

    def __init__(self, type, weights, normal):
        ws = tuple(sorted(map(index, weights)))
        if len(ws) != 4:
            raise ValueError("a component of an 8-manifold carries exactly 4 weights")
        set_field(self, "type", type)
        set_field(self, "weights", ws)
        set_field(self, "normal", normal)
        set_field(self, "lam", bisect_left(ws, 0))     # ws is sorted
        set_field(self, "level", -sum(ws))
        set_field(self, "complex_dim", type.complex_dim)
        why = _normal_mismatch(self)
        set_field(self, "mismatch", why)
        set_field(self, "omega", None if why else omega_coefficients(self))

    def sort_key(self):
        return (self.level, self.type._value_, self.weights)


class FixedPointData(Record):
    """``extremes`` is (minimum, maximum): the one component with no
    negative weight and the one with lam = 4 - dim_C, each None when not
    unique; ``interior`` the components other than those two; ``betti`` the
    even Betti numbers (b0, b2, b4, b6, b8) by localization, where each
    component adds the Betti numbers of its type, shifted up by lam."""

    _fields = ("components",)

    def __init__(self, components):
        comps = sorted(components, key=FixedComponent.sort_key)
        # ties only repr(normal) orders; a shared component ties with itself
        if any(a is not b and a.weights == b.weights and a.type is b.type
               and a.normal != b.normal for a, b in zip(comps, comps[1:])):
            comps.sort(key=lambda c: (c.sort_key(), repr(c.normal)))
        comps = tuple(comps)
        set_field(self, "components", comps)
        mins = [c for c in comps if c.lam == 0]
        maxs = [c for c in comps if c.lam == 4 - c.complex_dim]
        lo = mins[0] if len(mins) == 1 else None
        hi = maxs[0] if len(maxs) == 1 else None
        set_field(self, "extremes", (lo, hi))
        set_field(self, "interior", tuple(c for c in comps if c is not lo and c is not hi))
        b = [0, 0, 0, 0, 0]
        for c in comps:
            for j, x in enumerate(c.type.betti[:5 - c.lam], c.lam):
                b[j] += x
        set_field(self, "betti", tuple(b))

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)


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


class CheckItem(Record):
    _fields = ("id", "verdict", "detail")

    def __init__(self, id, verdict, detail=""):
        set_field(self, "id", id)
        set_field(self, "verdict", verdict)   # PASS / FAIL / WARN / INFO
        set_field(self, "detail", detail)
        set_field(self, "rule", rule_statement(id))   # unknown ids raise

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


def pass_fail(check_id, good, detail):
    """A PASS or FAIL item with the detail of that verdict."""
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

def _normal_mismatch(comp):
    """None when the normal data of the component fits its type and
    weights, else the reason it does not."""
    t, n = comp.type, comp.normal
    if t is ComponentType.POINT:
        return None if isinstance(n, PointNormal) else "isolated point carries no Chern data"
    nonzero = [w for w in comp.weights if w]      # sorted, as the weights are
    if t is ComponentType.CP1:
        if not isinstance(n, SurfaceNormal):
            return "fixed sphere needs a rank-3 split normal bundle"
        got = tuple(w for _, w in n.summands)     # sorted: weight -1 summands first
        want = tuple(nonzero)
        return None if got == want else "summand weights %s vs nonzero weights %s" % (got, want)
    if t is ComponentType.CP2:
        if isinstance(n, FourDimExtremalNormal):
            return None if len(set(nonzero)) == 1 else \
                "equal-weight rank-2 bundle on an extremal plane"
        if isinstance(n, FourDimSplitNormal):
            return None if nonzero == [-1, 1] and len(n.minus) == 1 else \
                "interior plane needs weights -1,+1 and scalar c1 data"
        return "plane needs rank-2 normal data"
    if t is ComponentType.P1XP1:
        return None if (isinstance(n, FourDimSplitNormal) and len(n.minus) == 2
                        and nonzero == [-1, 1]) else \
            "interior quadric surface needs weights -1,+1 and bidegree c1 data"
    if t is ComponentType.CP3:
        return None if isinstance(n, SixDimNormal) and len(nonzero) == 1 else \
            "six-dimensional component needs a line normal bundle"
    return "unknown component type"


# the checks that make normal bundle data well typed; every rule after
# validate reads that data, so verification stops short when one fails
STRUCTURAL = ("semi-free", "weight-zeros", "normal-variant")


def validate(data):
    """Structural checks every dataset must pass before any classification:
    one pass over the components, then each check formats the detail of
    the verdict it reports only."""
    comps = data.components
    bad, zeros_ok, n_min, mismatched, nonpositive = set(), True, 0, [], []
    for c in comps:
        ws = c.weights                  # sorted: a weight outside {-1, 0, 1} sits at an end
        if ws[0] < -1 or ws[3] > 1:
            bad.update(w for w in ws if not -1 <= w <= 1)
        zeros_ok = zeros_ok and ws.count(0) == c.complex_dim
        n_min += not c.lam
        if c.mismatch is not None:
            mismatched.append("%s: %s" % (c.type._value_, c.mismatch))
        elif c.complex_dim:             # well typed and not a point: [w] restricts
            coeffs = c.omega
            if min(coeffs) < 1:
                nonpositive.append((c.type._value_, coeffs))

    bv, (lo, hi) = data.betti, data.extremes
    if lo is not None and hi is not None and lo is not hi:
        # the components come in level order: min < interior < max says that
        # lo comes first and hi last, each alone at its level
        levels = [c.level for c in comps]
        ok = (comps[0] is lo and comps[-1] is hi
              and levels[0] < levels[1] and levels[-2] < levels[-1])
        order = pass_fail("level-order", ok, ("levels %s" if ok else
                                              "levels %s violate min < interior < max") % levels)
    else:
        order = CheckItem("level-order", "FAIL", "no unique extrema to order against")
    palindromic = bv == bv[::-1]
    return ConstraintReport([
        pass_fail("semi-free", not bad, "offending weights %s" % sorted(bad) if bad
                  else "%d weights checked" % (4 * len(comps))),
        pass_fail("weight-zeros", zeros_ok, "zero count matches dim_C on all components"
                  if zeros_ok else "some component has zero count != dim_C"),
        pass_fail("normal-variant", not mismatched, "; ".join(mismatched) if mismatched
                  else "all %d normal bundles well-typed" % len(comps)),
        pass_fail("unique-minimum", n_min == 1,
                  "one minimum" if n_min == 1 else "%d candidate minima" % n_min),
        pass_fail("unique-maximum", bv[4] == 1, "b8 = %d" % bv[4]),
        order,
        pass_fail("kirwan-b2", bv[1] == 1, "b2 = %d" % bv[1]),
        pass_fail("poincare", palindromic,
                  ("b = %s" if palindromic else "b = %s is not palindromic") % (bv,)),
        pass_fail("b4-positive", bv[2] >= 1, "b4 = %d" % bv[2]),
        pass_fail("monotone-positive", not nonpositive, "nonpositive restriction on %s"
                  % nonpositive if nonpositive else "restrictions positive on all components"),
    ])


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
                     "self-intersection %s = b4" % si if si == b4 else
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
    return tuple(sorted((c.type._value_, c.weights) + c.normal.fingerprint for c in data))


def fp_equivalent(a, b):
    """Same fixed point data: component-wise match of type, weights and
    normal Chern data, allowing the factor swap on quadric surfaces."""
    return fingerprint(a) == fingerprint(b)
