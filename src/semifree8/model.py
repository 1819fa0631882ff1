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

Every per-component value a rule reads is computed once, when the
component is built: its Morse half-index ``lam``, its ``level``, its
``complex_dim``, its structural fact ``mismatch`` (``_normal_mismatch``,
the reason its normal data does not fit its type and weights, or None),
its ``omega`` (``omega_coefficients``, the Chern data read as given, so
an ill-typed component has one too), its closed-form localization term
``abbv_term`` (None when it does not fit), its total ``sort_key`` (the
normal's repr breaks ties), its ``fingerprint``, its ``betti_row`` (what
it adds to b0..b8), its ``off_weights`` (weights outside {-1, 0, 1}) and
its ``zeros_fit`` flag (zero count equal to complex_dim); the members of
``ComponentType`` carry their complex dimension, Betti numbers and
tangent Chern class as plain attributes. A dataset sorts its components
once, on that key, and computes what every rule reads of it in one pass
over them: its unique minimum and maximum, its interior components, its
Betti vector (the sum of the rows), its sorted pair of extremal
dimensions, its sorted distinct levels, the evidence of the structural
checks (its distinct off-range weights, whether every ``zeros_fit``
holds, its components with a ``mismatch``, its number of components with
no negative weight and its nonpositive restrictions of [w]), the ids of
the ``STRUCTURAL`` checks it fails, its Morse-index-4 points and its
four-dimensional components (``FixedPointData.extremes``, ``interior``,
``betti``, ``shape``, ``levels``, ``off_weights``, ``zeros_fit``,
``mismatched``, ``n_minima``, ``nonpositive``, ``structural_failures``,
``well_typed``, ``lam2_points`` and ``fourdim``). ``validate`` and the
rules only format and add up these values and never derive them again.

``require_well_typed`` is the one structural gate. Every rule that reads
normal bundle data calls it first, and on data that is not well typed it
raises ``IllTypedError``, a ``ClassifyError`` (so a ``ValueError``) whose
message names the failed checks; past it no rule keeps a branch for
ill-typed data. ``dh.total_volume`` is the one reader of normal data that
answers for any loadable dataset, and ``validate`` reports on any. No
derived value of a component or a dataset is a record field, and none
refers back to its dataset, so equality, hashing and repr see the type,
weights and normal data of a component and the components of a dataset
only. The reversed dataset is not stored: ``oriented`` builds it on each
call that needs it, which only data with the larger extreme at the bottom
does. ``classify.verification_report`` orients once and hands the rules
the upright dataset, which each rule's own ``oriented`` call returns as it
is.

The public constructors take integers only: weights and Chern data go
through ``operator.index``, so a float, string or Fraction raises
TypeError instead of being truncated.
"""

from bisect import bisect_left
from enum import Enum
from itertools import compress
from operator import attrgetter, index, itemgetter

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
    when it fits), ``omega`` the restriction of [w] (``omega_coefficients``,
    None for a point; on an ill-typed component, its Chern data read as
    given), ``abbv_term`` the closed-form localization term when it fits
    (``normal.contribution(lam)``, else None), ``sort_key`` the dataset order
    (level, type, weights, repr of the normal), a total order on unequal
    components, ``fingerprint`` the (type, weights) pair followed
    by the normal's fingerprint, ``betti_row`` the five even Betti numbers
    of the type shifted up by lam, ``off_weights`` the weights outside
    {-1, 0, 1} and ``zeros_fit`` whether the zero weights number
    complex_dim. All are set here, once."""

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
        set_field(self, "omega", omega_coefficients(self))
        set_field(self, "abbv_term", None if why else normal.contribution(self.lam))
        set_field(self, "sort_key", (self.level, type._value_, ws, repr(normal)))
        set_field(self, "fingerprint", (type._value_, ws) + normal.fingerprint)
        set_field(self, "betti_row", ((0,) * self.lam + type.betti + (0,) * 4)[:5])
        set_field(self, "off_weights", tuple(w for w in ws if not -1 <= w <= 1))
        set_field(self, "zeros_fit", ws.count(0) == type.complex_dim)


class FixedPointData(Record):
    """``extremes`` is (minimum, maximum): the one component with no
    negative weight and the one with lam = 4 - dim_C, each None when not
    unique; ``interior`` the components other than those two; ``betti`` the
    even Betti numbers (b0, b2, b4, b6, b8) by localization, the sum of the
    components' ``betti_row``s; ``shape`` the real dimensions of the two
    extremes, sorted, None when either is not unique; ``levels`` the
    distinct levels of the components, sorted. The evidence ``validate``
    formats: ``off_weights`` the distinct weights outside {-1, 0, 1},
    sorted; ``zeros_fit`` whether every component's ``zeros_fit`` holds;
    ``mismatched`` the components whose ``mismatch`` is set; ``n_minima``
    the number of components with no negative weight; ``nonpositive`` the
    (type, omega) of each fitting component other than a point with a
    coefficient below 1. ``structural_failures`` the ids of the
    ``STRUCTURAL`` checks the data fails, in that order ("semi-free" when
    ``off_weights`` is not empty, "weight-zeros" when ``zeros_fit`` is
    false, "normal-variant" when ``mismatched`` is not empty);
    ``well_typed`` whether that is empty, which every rule that reads
    normal bundle data requires (``require_well_typed``). ``lam2_points``
    the Morse-index-4 points (points with two negative weights, never an
    extreme, so all interior) and ``fourdim`` the four-dimensional
    components, each in component order. The components are sorted once,
    on their total ``sort_key``, and all fourteen values come from one
    pass over them."""

    _fields = ("components",)

    def __init__(self, components):
        comps = tuple(sorted(components, key=attrgetter("sort_key")))
        # one pass over the sorted components gathers every value a rule
        # reads (the distinct levels in order: the level leads the sort key)
        lo = hi = level = None
        n_lo = n_hi = b0 = b2 = b4 = b6 = b8 = 0
        levels, off, mismatched, nonpositive, lam2_points, fourdim = [], [], [], [], [], []
        zeros_fit = True
        for c in comps:
            off += c.off_weights
            zeros_fit = zeros_fit and c.zeros_fit
            lam, dim = c.lam, c.complex_dim
            if c.mismatch is not None:
                mismatched.append(c)
            elif dim and min(c.omega) < 1:      # well typed and not a point
                nonpositive.append((c.type._value_, c.omega))
            if not lam:
                lo = c
                n_lo += 1
            if lam == 4 - dim:
                hi = c
                n_hi += 1
            if dim == 2:
                fourdim.append(c)
            elif lam == 2 and not dim:
                lam2_points.append(c)
            r0, r2, r4, r6, r8 = c.betti_row
            b0 += r0
            b2 += r2
            b4 += r4
            b6 += r6
            b8 += r8
            if c.level != level:
                level = c.level
                levels.append(level)
        if n_lo != 1:
            lo = None
        if n_hi != 1:
            hi = None
        # straight into the instance dict, one item assignment each
        values = self.__dict__
        values["components"] = comps
        values["extremes"] = (lo, hi)
        if lo is None or hi is None:
            values["shape"] = None
        else:
            d, e = 2 * lo.complex_dim, 2 * hi.complex_dim
            values["shape"] = (d, e) if d <= e else (e, d)
        values["interior"] = tuple([c for c in comps if c is not lo and c is not hi])
        values["betti"] = (b0, b2, b4, b6, b8)
        values["levels"] = tuple(levels)
        values["n_minima"] = n_lo
        values["off_weights"] = tuple(sorted(set(off)))
        values["zeros_fit"] = zeros_fit
        values["mismatched"] = tuple(mismatched)
        values["nonpositive"] = tuple(nonpositive)
        values["lam2_points"] = tuple(lam2_points)
        values["fourdim"] = tuple(fourdim)
        failures = tuple(compress(STRUCTURAL, (off, not zeros_fit, mismatched)))
        values["structural_failures"] = failures
        values["well_typed"] = not failures

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


class CheckItem(tuple):
    """The outcome of one rule: its check ``id``, its ``verdict`` (PASS,
    FAIL, WARN or INFO) and a ``detail``, with the ``rule`` statement of the
    id, read from RULES when the item is built; an unknown id raises, as in
    rule_statement. A value type like every Record, but held as the tuple
    (id, verdict, detail, rule), so that an item, of which a report is
    mostly made, is one allocation. The statement is the hidden fourth
    entry: fixed by the id, it changes no comparison, and it keeps an item
    unequal to the plain tuple of its fields, whose own ``__eq__`` would
    otherwise accept the subclass and compare equal."""

    __slots__ = ()
    id, verdict, detail, rule = (property(itemgetter(i)) for i in range(4))

    def __new__(cls, id, verdict, detail=""):
        return tuple.__new__(cls, (id, verdict, detail, RULES.get(id) or rule_statement(id)))

    def __eq__(self, other):
        return tuple.__eq__(self, other) if other.__class__ is self.__class__ else NotImplemented

    def __ne__(self, other):
        return tuple.__ne__(self, other) if other.__class__ is self.__class__ else NotImplemented

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    def __hash__(self):
        return hash(self[:3])

    def __getnewargs__(self):
        return self[:3]

    def __repr__(self):
        return "CheckItem(id=%r, verdict=%r, detail=%r)" % self[:3]

    def line(self):
        id, verdict, detail, rule = self
        tail = " (%s)" % detail if detail else ""
        return "%s %s: %s%s" % (verdict, id, rule, tail)


class ConstraintReport(list):
    """A list of check items, in the order the rules ran, with an overall
    verdict: it adds ``ok``, ``failures`` and ``lines()`` to the list."""

    @property
    def ok(self):
        return all(it.verdict != "FAIL" for it in self)

    @property
    def failures(self):
        return [it for it in self if it.verdict == "FAIL"]

    def lines(self):
        return [it.line() for it in self]

    def __repr__(self):
        return "<report %s, %d checks>" % ("PASS" if self.ok else "FAIL", len(self))


def pass_fail(check_id, good, detail):
    """A PASS or FAIL item with the detail of that verdict: the tuple that
    CheckItem builds, made here without entering its constructor."""
    rule = RULES.get(check_id) or rule_statement(check_id)
    return tuple.__new__(CheckItem, (check_id, "PASS" if good else "FAIL", detail, rule))


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
    if data.shape is None:
        raise ValueError("need a unique minimum and a unique maximum")
    lo, hi = data.extremes
    return data.shape, lo.complex_dim > hi.complex_dim


def oriented(data):
    """The dataset with the smaller extreme at the bottom: the data itself,
    or its reversal when the minimum is the larger extreme, the one case
    that builds a dataset. None when the data, as given or reversed, has no
    unique minimum and maximum (the reversal can lose them only when types
    contradict weights). Well-typed data reverses to upright data, so
    orienting the result again returns it as it is; data whose types
    contradict its weights can reverse to data that is upside down too,
    and that reversal is returned as it is."""
    if data.shape is None:
        return None
    if dim_pair(data)[1]:
        data = reverse_action(data)
        if data.shape is None:
            return None
    return data


# ----------------------------------------------------------------------
# symplectic form restrictions (the manifold is monotone: [w] = c1)
# ----------------------------------------------------------------------

def omega_coefficients(comp):
    """[w] restricted to a component, in its generator basis, or None for a
    point: c1(TF) + c1(NF), since c1 of the ambient tangent bundle splits
    as the Whitney sum of the two. An ill-typed component's Chern data is
    read as given, and may give fewer coefficients than its type has."""
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
    -1 and +1, so it is never an extreme. It reads the stored ``omega``,
    None for a point."""
    coeffs = comp.omega
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


class ClassifyError(ValueError):
    """Raised for inputs outside the scope of the case analysis."""


class IllTypedError(ClassifyError):
    """Raised when a rule that reads normal bundle data is called on data
    that fails the structural gate."""


def require_well_typed(data, what):
    """The structural gate: raise IllTypedError, naming the failed
    ``STRUCTURAL`` checks, unless the data is well typed. Every rule that
    reads normal bundle data calls it first, so nothing past it meets
    ill-typed data."""
    if data.structural_failures:
        raise IllTypedError("%s not applied: %s failed"
                            % (what, ", ".join(data.structural_failures)))


def validate(data):
    """Structural checks every dataset must pass before any classification.
    The dataset's one pass has gathered their evidence (``off_weights``,
    ``zeros_fit``, ``n_minima``, ``mismatched``, ``nonpositive``, ``betti``,
    ``extremes``); each check formats the detail of the verdict it reports
    only."""
    comps, bv, (lo, hi) = data.components, data.betti, data.extremes
    if data.shape is not None:
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
    off, n_min, mismatched, nonpositive = (data.off_weights, data.n_minima, data.mismatched,
                                           data.nonpositive)
    return ConstraintReport([
        pass_fail("semi-free", not off, "offending weights %s" % list(off) if off
                  else "%d weights checked" % (4 * len(comps))),
        pass_fail("weight-zeros", data.zeros_fit, "zero count matches dim_C on all components"
                  if data.zeros_fit else "some component has zero count != dim_C"),
        pass_fail("normal-variant", not mismatched, "; ".join([
            "%s: %s" % (c.type._value_, c.mismatch) for c in mismatched]) if mismatched
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
                  % list(nonpositive) if nonpositive
                  else "restrictions positive on all components"),
    ])


# ----------------------------------------------------------------------
# signature via self-intersection of the fixed set
# ----------------------------------------------------------------------

def signature_check(data):
    """Middle Betti number equals the fixed-set self-intersection.

    Only meaningful when every component has dimension at most four; a
    six-dimensional component takes the dataset outside the scope of the
    self-intersection argument and the check reports PASS with a note.
    The self-intersection adds up the c2 of the dataset's ``fourdim``.
    Data that is not ``well_typed`` raises IllTypedError.
    """
    require_well_typed(data, "signature-self-intersection")
    if any(c.complex_dim == 3 for c in data):
        return CheckItem("signature-self-intersection", "PASS",
                         "six-dimensional component present, argument not applicable")
    # the self-intersection of the fixed set: the integrals of c2 of the
    # normal bundles of the four-dimensional components
    si = sum(c.normal.c2 for c in data.fourdim)
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
    return tuple(sorted([c.fingerprint for c in data]))


def fp_equivalent(a, b):
    """Same fixed point data: component-wise match of type, weights and
    normal Chern data, allowing the factor swap on quadric surfaces."""
    return fingerprint(a) == fingerprint(b)
