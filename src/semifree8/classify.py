"""The case analysis: which fixed point data can occur, and on which Fanos.

Everything here is driven by a small set of named rules. Structural rules
(Betti budgets, localization sum, signature) live in the other modules;
this one adds the sphere-area rules, the Fano-index rules, and two
exclusion rules for interior components, then runs the per-shape
enumeration: for each admissible pair of extremal dimensions, exhaustively
sweep the parameter boxes, apply the rules, and coalesce the survivors
into parameterized families. Every check item and rejection names its
rule by id; the statement lives once in ``model.RULES``. Each shape
states its rule chain once, as one function over its sweep parameters
built on the closed forms the rule objects call (``model.area_fits``,
``surface_tail``, ``dh.K2_CAP`` and ``dh.b4_cap``), and one function,
``_sweep``, runs it over the box. The chain opens with the localization
sum, which fixes the innermost parameter, so ``_sweep`` solves for that
parameter instead of looping over it.

The seven families the sweeps can produce are stated once, in the table
``_FAMILIES``: key, shape, texts, Fano index and b4 at n2 = 0, next to a
module-level builder of its members. A sweep returns the table's family
with the n2 range its survivors give, re-certified on every instantiated
member through the full rule chain.

The final consumers are at the bottom: the catalog of known actions, each
entry a member of a family in the table with its default free choices,
the fixed-point-data matcher, the table of Fano families with large
symmetry potential, and the volume filter that picks out the realizable
ones, whose index witnesses read their b4 from the family table.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from functools import cache
from itertools import product
from operator import index

from .dh import (
    K2_CAP,
    b4_cap,
    dh_profile,
    half_volume_cp2,
    half_volume_isolated_pair,
    positivity_check,
    total_volume,
)
from .localization import abbv_terms
from .model import (
    CheckItem,
    ComponentType,
    ConstraintReport,
    FixedPointData,
    STRUCTURAL,
    area_fits,
    area_realizable,
    betti_contribution,
    betti_vector,
    cp2_extremal,
    cp3_extremal,
    fourdim_interior,
    fingerprint,
    omega_coefficients,
    oriented,
    pass_fail,
    point_component,
    reverse_action,
    rule_statement,
    signature_check,
    surface_component,
    validate,
)
from .record import Record, set_field


class ClassifyError(ValueError):
    """Raised for inputs outside the scope of the case analysis."""


# ----------------------------------------------------------------------
# Fano index from the extremes
# ----------------------------------------------------------------------

def index_candidates(data):
    """(source, value) pairs for the Fano index read off the extremes."""
    out = []
    lo, hi = data.extremes
    for comp, label in ((lo, "minimum"), (hi, "maximum")):
        if comp is not None and comp.complex_dim >= 1:
            out.append((label, abs(omega_coefficients(comp)[0])))
    if lo is not None and hi is not None and lo.complex_dim == hi.complex_dim == 0:
        four = [c for c in data.interior if c.complex_dim == 2]
        if len(four) == 1:
            out.append(("interior four-dimensional component", 4))
    return out


def index_from_extremal(data):
    """The Fano index of the ambient manifold, or an error when no rule
    pins it (or two extremes disagree, which no realizable data does)."""
    cands = index_candidates(data)
    if not cands:
        raise ClassifyError("no Fano-index rule applies to this configuration")
    values = {v for _, v in cands}
    if len(values) > 1:
        raise ClassifyError("extremes disagree about the Fano index: %s" % (cands,))
    return values.pop()


# ----------------------------------------------------------------------
# sphere-area rules
# ----------------------------------------------------------------------

def _area_item(check_id, comp, area, where):
    coeffs = omega_coefficients(comp)
    if coeffs is None:
        detail = "no sphere of positive area maps into an isolated %s" % where
    else:
        detail = "area %d vs symplectic restriction %s on the %s" % (area, coeffs, where)
    return pass_fail(check_id, area_realizable(comp, area), detail)


def surface_tail(a1):
    """The degree sum a2 + a3 that the surface degree relation
    3*a1 = 2 + a1 + a2 + a3 forces, given the negative-weight degree a1."""
    return 2 * a1 - 2


def _gap_empty(levels, a, b):
    """No level lies strictly between a and b; levels is sorted and distinct."""
    return bisect_right(levels, a) >= bisect_left(levels, b)


def sphere_constraints(data):
    """All sphere-area rules whose hypotheses the data satisfies.

    Rules are stated for the orientation with the smaller extreme at the
    bottom, so the action is reversed first when needed.
    """
    rep = ConstraintReport()
    o = oriented(data)
    if o is None:
        return rep
    (d1, d2), data, lo, hi, inner = o
    lam2 = [c for c in inner if c.type is ComponentType.POINT and c.lam == 2]
    levels = sorted({c.level for c in data})
    if d2 == 4 and lam2 and _gap_empty(levels, 0, hi.level):
        rep.append(_area_item("sphere-area-max", hi, 2, "maximum"))
    if d2 == 4 and lam2 and _gap_empty(levels, lo.level, 0):
        rep.append(_area_item("sphere-area-min", lo, -lo.level, "minimum"))
    if d2 == 4 and inner and len(lam2) == len(inner):
        rep.append(_area_item("sphere-span-min", lo, hi.level - lo.level, "minimum"))
    if d2 <= 4 and not inner:
        span = hi.level - lo.level
        rep.append(_area_item("sphere-span-extremes", lo, span, "minimum"))
        rep.append(_area_item("sphere-span-extremes", hi, span, "maximum"))
    if d1 == 0:
        for c in inner:
            if (c.type is ComponentType.CP1 and c.lam == 1
                    and _gap_empty(levels, lo.level, c.level)):
                a1 = c.normal.degrees_with_weight(-1)[0]
                rest = sum(c.normal.degrees_with_weight(1))
                rep.append(pass_fail(
                    "surface-degree-relation", rest == surface_tail(a1),
                    "3*%d vs 2 + %d + %d (surface alone below level 0 reading)"
                    % (a1, a1, rest)))
    if not rep.items:
        rep.append(CheckItem("sphere-rules", "INFO",
                             "no sphere rule applies to this configuration"))
    return rep


# ----------------------------------------------------------------------
# Fano-index rules
# ----------------------------------------------------------------------

def sphere_index_rules(data):
    rep = ConstraintReport()
    o = oriented(data)
    if o is None:
        return rep
    _, data, lo, hi, inner = o
    cands = index_candidates(data)
    iota = None
    if cands:
        values = sorted({v for _, v in cands})
        if len(cands) >= 2:
            rep.append(pass_fail("index-consistency", len(values) == 1,
                                 "candidates %s" % (cands,)))
        if len(values) == 1:
            iota = values[0]
            rep.append(CheckItem("fano-index", "INFO",
                                 "index %d from the %s" % (iota, cands[0][0])))
    else:
        rep.append(CheckItem("fano-index", "INFO", "no index rule applies"))

    if (lo.complex_dim == hi.complex_dim == 0
            and len([c for c in inner if c.complex_dim == 2]) == 1):
        rep.append(pass_fail("index-lower-oo", iota is not None and iota >= 4,
                             "index %s" % iota))

    between = [c for c in data if lo.level < c.level < 0]
    if lo.type is ComponentType.POINT and len(between) == 1:
        b = between[0]
        if b.type is ComponentType.CP1 and b.lam == 1 and iota is not None:
            rep.append(pass_fail("index-parity-surface", iota % 2 == 1, "index %d" % iota))
        if b.type is ComponentType.POINT and b.lam == 1 and iota is not None:
            rep.append(pass_fail("index-cap-point", iota <= 2, "index %d" % iota))
    return rep


def _lambda2_exclusion(data):
    """Interior two-negative-weight points need a 4-dim extreme."""
    lo, hi = data.extremes
    lam2 = [c for c in data.interior
            if c.type is ComponentType.POINT and c.lam == 2]
    if not lam2:
        return None
    has4 = any(c is not None and c.complex_dim == 2 for c in (lo, hi))
    return pass_fail("lambda2-needs-4dim-extremal", has4,
                     "%d such points, 4-dim extreme %s" % (len(lam2), "present" if has4 else "absent"))


def _bundle_halves(data):
    """The (0,0) pin: interior 4-dim bundles are halves of the tangent class."""
    lo, hi = data.extremes
    if lo is None or hi is None or lo.complex_dim or hi.complex_dim:
        return None
    for c in data.interior:
        if c.complex_dim != 2:
            continue
        half, rem = [], 0
        for t in c.type.tangent_c1:
            half.append(t // 2)
            rem |= t % 2
        ok = (not rem and tuple(c.normal.minus) == tuple(half)
              and tuple(c.normal.plus) == tuple(half))
        detail = ("tangent class %s halves to %s, bundles %s and %s"
                  % (c.type.tangent_c1, tuple(half), c.normal.minus, c.normal.plus))
        if rem:
            detail = "tangent class %s is not divisible by two" % (c.type.tangent_c1,)
        return pass_fail("interior-bundle-halves", ok, detail)
    return None


# ----------------------------------------------------------------------
# the full verification chain on one dataset
# ----------------------------------------------------------------------

def verification_report(data):
    """Everything this package can check about one dataset, in one report."""
    rep = validate(data)
    rep.append(CheckItem("betti-vector", "INFO", "b = %s" % (betti_vector(data),)))
    failed = [it.id for it in rep if it.id in STRUCTURAL and it.verdict != "PASS"]
    if failed:
        rep.append(CheckItem("typed-rules", "INFO", "not applied: %s failed" % ", ".join(failed)))
        return rep
    terms = abbv_terms(data)
    total = sum(terms)
    rep.append(pass_fail("abbv-vanishing", total == 0, "contributions %s sum to %s"
                         % ([str(t) for t in terms], total)))
    rep.append(signature_check(data))
    for item in (_lambda2_exclusion(data), _bundle_halves(data)):
        if item is not None:
            rep.append(item)
    rep.extend(sphere_constraints(data))
    rep.extend(sphere_index_rules(data))
    rep.extend(positivity_check(dh_profile(data)))
    vol = total_volume(data)
    rep.append(CheckItem("total-volume", "INFO",
                         "c1^4 = %s" % vol if vol is not None else "not computable by halves"))
    return rep


# ----------------------------------------------------------------------
# admissible extremal dimension pairs
# ----------------------------------------------------------------------

class ShapeAssessment(Record):
    _fields = ("shape", "admissible", "trace")

    def __init__(self, shape, admissible, trace):
        set_field(self, "shape", shape)
        set_field(self, "admissible", admissible)
        set_field(self, "trace", trace)


def _assess_shape(d1, d2):
    items = []
    b2_floor = (1 if d1 >= 2 else 0) + (1 if d2 == 6 else 0)
    if b2_floor >= 2:
        items.append(CheckItem(
            "betti-budget-b2", "FAIL",
            "a positive-dimensional minimum and a six-dimensional maximum each "
            "contribute a degree-2 class, so b2 >= %d" % b2_floor))
        return ShapeAssessment((d1, d2), False, tuple(items))
    if (d1, d2) in ((0, 2), (2, 2)):
        # some component of dimension >= 4 must exist (the fixed-set
        # self-intersection equals b4 >= 1); with extremes this small it
        # can only be interior with one negative weight, and then both
        # remaining budgets overflow
        b6 = 1 + 1   # maximum's top class localizes in degree 6, plus the
                     # middle class of the interior 4-dim component
        items.append(CheckItem(
            "b4-positive", "INFO",
            "forces a component of dimension at least four (self-intersection "
            "argument), necessarily interior with one negative weight"))
        items.append(CheckItem("betti-budget-b6", "FAIL", "with such a component b6 >= %d" % b6))
        return ShapeAssessment((d1, d2), False, tuple(items))
    items.append(CheckItem("betti-budget-b2", "PASS", "budgets admit interior solutions"))
    return ShapeAssessment((d1, d2), True, tuple(items))


def admissible_dim_pairs():
    """Assessment of all ten extremal dimension pairs."""
    out = {}
    for d1 in (0, 2, 4, 6):
        for d2 in (0, 2, 4, 6):
            if d1 <= d2:
                out[(d1, d2)] = _assess_shape(d1, d2)
    return out


# ----------------------------------------------------------------------
# enumeration output types
# ----------------------------------------------------------------------

class Family(Record):
    """``builder(n2, **choices)`` builds a member; it is not a record field,
    so equality, hashing and repr do not see it."""

    _fields = ("key", "shape", "summary", "iota", "b4_base", "fixed", "free", "n2_max")
    n2_min = 0                   # every family has a member without Morse-index-4 points

    def __init__(self, key, shape, summary, iota, b4_base, fixed, free, builder, n2_max=0):
        set_field(self, "key", key)
        set_field(self, "shape", shape)
        set_field(self, "summary", summary)
        set_field(self, "iota", iota)
        set_field(self, "b4_base", b4_base)    # b4 = b4_base + n2
        set_field(self, "fixed", fixed)        # ((name, value), ...)
        set_field(self, "free", free)          # human-readable leftover freedom
        set_field(self, "builder", builder)
        set_field(self, "n2_max", n2_max)

    def b4(self, n2=None):
        return self.b4_base + (self.n2_min if n2 is None else n2)

    def instantiate(self, n2=None, **choices):
        n2 = self.n2_min if n2 is None else n2
        if not self.n2_min <= n2 <= self.n2_max:
            raise ClassifyError("n2 = %d outside [%d, %d] for family %s"
                                % (n2, self.n2_min, self.n2_max, self.key))
        return self.builder(n2, **choices)


class Rejection(Record):
    _fields = ("candidate", "rule_id", "detail")

    def __init__(self, candidate, rule_id, detail):
        set_field(self, "candidate", candidate)
        set_field(self, "rule_id", rule_id)
        set_field(self, "detail", detail)
        set_field(self, "rule", rule_statement(rule_id))   # unknown ids raise


class EnumerationResult(Record):
    _fields = ("shape", "b4_max", "families", "rejections")

    def __init__(self, shape, b4_max, families, rejections):
        set_field(self, "shape", shape)
        set_field(self, "b4_max", b4_max)
        set_field(self, "families", families)
        set_field(self, "rejections", rejections)


# ----------------------------------------------------------------------
# the family table: every family a sweep can produce, and its members
# ----------------------------------------------------------------------

def _rigid(n2, choices):
    if n2 or choices:
        raise ClassifyError("this family has no free parameters")


def _build_00(n2, **choices):
    _rigid(n2, choices)
    return FixedPointData((
        point_component((1, 1, 1, 1)),
        fourdim_interior(ComponentType.P1XP1, (1, 1), (1, 1)),
        point_component((-1, -1, -1, -1)),
    ))


def _build_06(n2, **choices):
    _rigid(n2, choices)
    return FixedPointData((point_component((1, 1, 1, 1)), cp3_extremal(-1, 1)))


def _build_24(n2, degrees=(1, 1, 1)):
    if n2:
        raise ClassifyError("no interior points in this family")
    if sum(degrees) != 3 or len(degrees) != 3:
        raise ClassifyError("minimum degrees must be three integers summing to 3")
    return FixedPointData((
        surface_component(tuple((d, 1) for d in degrees)),
        cp2_extremal(-1, 2, 1),
    ))


def _build_04_point(n2, **choices):
    if choices:
        raise ClassifyError("no free choices in this family")
    pts = tuple(point_component((-1, -1, 1, 1)) for _ in range(n2))
    return FixedPointData((
        point_component((1, 1, 1, 1)),
        point_component((-1, 1, 1, 1)),
        *pts,
        cp2_extremal(-1, -1, 1 + n2),
    ))


def _build_04_surface(n2, tail=(2, 2)):
    if n2:
        raise ClassifyError("no interior points in this family")
    if len(tail) != 2 or sum(tail) != 4:
        raise ClassifyError("positive-weight degrees must sum to 4")
    return FixedPointData((
        point_component((1, 1, 1, 1)),
        surface_component(((3, -1), (tail[0], 1), (tail[1], 1))),
        cp2_extremal(-1, 0, 2),
    ))


def _build_44_neg(n2, split=None):
    b4 = 2 + n2
    if split is None:
        split = ((b4 + 1) // 2, b4 // 2)
    if len(split) != 2 or sum(split) != b4:
        raise ClassifyError("c2 split must be two integers summing to b4 = %d" % b4)
    pts = tuple(point_component((-1, -1, 1, 1)) for _ in range(n2))
    return FixedPointData((
        cp2_extremal(1, -1, split[0]),
        *pts,
        cp2_extremal(-1, -1, split[1]),
    ))


def _build_44_pos(n2, split=(1, 1)):
    if n2:
        raise ClassifyError("interior points force c1 = -1, not +1")
    if len(split) != 2 or sum(split) != 2:
        raise ClassifyError("c2 split must be two integers summing to b4 = 2")
    return FixedPointData((
        cp2_extremal(1, 1, split[0]),
        cp2_extremal(-1, 1, split[1]),
    ))


_FAMILIES = {f.key: f for f in (
    Family(
        key="0,0", shape=(0, 0),
        summary=("isolated extremes with an interior quadric surface at "
                 "level 0 carrying two bundles of bidegree (1,1)"),
        iota=4, b4_base=2,
        fixed=(("bundle bidegrees", (1, 1)),),
        free=(),
        builder=_build_00),
    Family(
        key="0,6", shape=(0, 6),
        summary=("an isolated minimum and a six-dimensional maximum whose "
                 "normal line bundle has first Chern coefficient 1"),
        iota=5, b4_base=1,
        fixed=(("six-dim normal c1", 1),),
        free=(),
        builder=_build_06),
    Family(
        key="2,4", shape=(2, 4),
        summary=("a minimal sphere with normal degrees summing to 3 and a "
                 "four-dimensional maximum with c1 coefficient 2, c2 = 1"),
        iota=5, b4_base=1,
        fixed=(("max c1", 2), ("max c2", 1), ("min degree sum", 3)),
        free=("split of the degree sum 3 into three summands (default 1,1,1)",),
        builder=_build_24),
    Family(
        key="0,4/no-surface", shape=(0, 4),
        summary=("an isolated minimum, one Morse-index-2 point, n2 "
                 "Morse-index-4 points and a four-dimensional maximum "
                 "with c1 coefficient -1, c2 = b4 = 1 + n2"),
        iota=2, b4_base=1,
        fixed=(("max c1", -1),),
        free=(),
        builder=_build_04_point),
    Family(
        key="0,4/with-surface", shape=(0, 4),
        summary=("an isolated minimum, a Morse-index-2 sphere with "
                 "degrees (3 | a2 + a3 = 4) and a four-dimensional "
                 "maximum with c1 coefficient 0, c2 = 2"),
        iota=3, b4_base=2,
        fixed=(("max c1", 0), ("max c2", 2), ("surface a1", 3)),
        free=("split of a2 + a3 = 4 (default 2,2)",),
        builder=_build_04_surface),
    Family(
        key="4,4/negative", shape=(4, 4),
        summary=("two four-dimensional extremes with c1 coefficient -1, n2 "
                 "Morse-index-4 points, c2 values splitting b4 = 2 + n2"),
        iota=2, b4_base=2,
        fixed=(("both c1", -1),),
        free=("c2 split of b4 into two parts, each at most %d (default balanced)" % K2_CAP,),
        builder=_build_44_neg),
    Family(
        key="4,4/positive", shape=(4, 4),
        summary=("two four-dimensional extremes with c1 coefficient +1 and "
                 "no interior points, c2 values splitting b4 = 2"),
        iota=4, b4_base=2,
        fixed=(("both c1", 1),),
        free=("c2 split of 2 into two parts, bounded only by the search box "
              "(default 1,1)",),
        builder=_build_44_pos),
)}


def _sweep(label, axes, first_failure, solve=None):
    """Run one rule chain over a parameter box: (rejection rows, survivors).

    axes are the swept ranges, outermost first. first_failure(*choice)
    returns None for a survivor, else (rule_id, witness_format, args) for
    the first rule the choice breaks. Rejections are tallied per rule, the
    witness formatted only when its rule first fires, and rows come out in
    first-fire order. solve(*outer), when given, yields the innermost
    values the chain's first rule admits; every other innermost value
    fails that rule, so they are tallied as one batch at the first of them,
    which gives the rows of the full loop.
    """
    bins = {}
    survivors = []
    *outer_axes, inner = axes
    for outer in product(*outer_axes):
        admitted = inner if solve is None else {v for v in solve(*outer) if v in inner}
        plan = [(v, 1) for v in admitted]
        if len(admitted) < len(inner):
            cut = next(v for v in inner if v not in admitted)
            plan.append((cut, len(inner) - len(admitted)))
        plan.sort(key=lambda step: inner.index(step[0]))
        for v, n in plan:
            choice = outer + (v,)
            failure = first_failure(*choice)
            if failure is None:
                assert n == 1, "solve left out an admitted value at %s" % (choice,)
                survivors.append(choice)
                continue
            rule_id, fmt, args = failure
            if rule_id not in bins:
                bins[rule_id] = [fmt % args, 0]
            bins[rule_id][1] += n
    rows = [Rejection(label, rid, "%s; %d parameter choices rejected" % (ex, n))
            for rid, (ex, n) in bins.items()]
    return rows, survivors


def _certified(key, n2_max=0):
    """The table's family with the n2 range its sweep's survivors give,
    after re-running the full rule chain on every instantiated member."""
    f = _FAMILIES[key]
    family = Family(f.key, f.shape, f.summary, f.iota, f.b4_base, f.fixed, f.free,
                    f.builder, n2_max)
    for n2 in range(family.n2_min, n2_max + 1):
        rep = verification_report(family.instantiate(n2))
        if not rep.ok:
            raise ClassifyError("family %s fails its own certification at n2=%d:\n%s"
                                % (key, n2, "\n".join(l for l in rep.lines()
                                                      if l.startswith("FAIL"))))
    return family


# ----------------------------------------------------------------------
# interior skeletons from the Betti budgets
# ----------------------------------------------------------------------

_MENU = (
    ("Morse-index-2 point", ComponentType.POINT, 1),
    ("Morse-index-6 point", ComponentType.POINT, 3),
    ("Morse-index-2 sphere", ComponentType.CP1, 1),
    ("Morse-index-4 sphere", ComponentType.CP1, 2),
    ("interior plane", ComponentType.CP2, 1),
    ("interior quadric surface", ComponentType.P1XP1, 1),
)


def _menu_level(ctype, lam):
    return 2 * lam - (4 - ctype.complex_dim)


def _interior_skeletons(lo, hi):
    """Interior multisets over the menu meeting the b2 = b6 = 1 budgets.

    Morse-index-4 points contribute to neither budget and stay symbolic.
    """
    base = FixedPointData((lo, hi)).betti
    need = (1 - base[1], 1 - base[3])
    menu = [(label, t, lam) for label, t, lam in _MENU
            if lo.level < _menu_level(t, lam) < hi.level]
    out = []
    for counts in product((0, 1), repeat=len(menu)):
        got2 = sum(n * betti_contribution(t, lam, 2) for n, (_, t, lam) in zip(counts, menu))
        got6 = sum(n * betti_contribution(t, lam, 6) for n, (_, t, lam) in zip(counts, menu))
        if (got2, got6) == need:
            out.append(tuple(item for n, item in zip(counts, menu) if n))
    return out


def _skeleton_label(shape, skel):
    inside = ", ".join(label for label, _, _ in skel) or "no budget-visible interior"
    return "shape %s with %s (plus Morse-index-4 points)" % (shape, inside)


# ----------------------------------------------------------------------
# per-shape enumeration
# ----------------------------------------------------------------------

def _enum_00(b4_max, box):
    lo = point_component((1, 1, 1, 1))
    hi = point_component((-1, -1, -1, -1))
    families, rejections = [], []
    for skel in _interior_skeletons(lo, hi):
        label = _skeleton_label((0, 0), skel)
        kinds = tuple(t for _, t, _ in skel)
        # no 4-dim extreme anywhere in this shape
        rejections.append(Rejection(
            label, "lambda2-needs-4dim-extremal",
            "both extremes are points, so no Morse-index-4 points occur"))
        if ComponentType.CP2 in kinds:
            rejections.append(Rejection(
                label, "interior-bundle-halves",
                "the plane's tangent class 3 is odd, no half-integral bundles"))
            continue
        if ComponentType.P1XP1 not in kinds:
            # no 4-dim component at all: self-intersection 0 can never
            # match the positive middle Betti number, degrees be what they may
            b4 = sum(betti_contribution(t, lam, 4) for _, t, lam in skel)
            rid = "b4-positive" if b4 == 0 else "signature-self-intersection"
            rejections.append(Rejection(
                label, rid,
                "b4 = %d with fixed-set self-intersection 0, for every degree choice" % b4))
            continue
        # interior quadric surface: the halves rule pins both bundles to
        # (1,1); everything else about the candidate is then determined
        rejections.append(Rejection(
            label, "interior-bundle-halves",
            "every bundle pair other than (1,1), (1,1) violates the halving"))
        families.append(_certified("0,0"))
    return families, rejections


def _enum_06(b4_max, box):
    lo = point_component((1, 1, 1, 1))
    hi_probe = cp3_extremal(-1, 0)
    skels = _interior_skeletons(lo, hi_probe)
    assert skels == [()], "unexpected interior budget solutions for (0,6)"
    label = _skeleton_label((0, 6), ())
    rejections = [Rejection(
        label, "lambda2-needs-4dim-extremal",
        "extremes have dimensions 0 and 6; without this rule the localization "
        "sum 1 + n2 - m^3 = 0 would even admit m = 2 with 7 interior points")]

    def first_failure(m):
        if 4 + m < 1:
            return "monotone-positive", "e.g. m = %d makes 4 + m <= 0", (m,)
        if 1 - m ** 3 != 0:
            return "abbv-vanishing", "e.g. m = %d gives 1 - m^3 = %d", (m, 1 - m ** 3)

    rows, survivors = _sweep(label, (range(-box, box + 1),), first_failure)
    rejections.extend(rows)
    assert survivors == [(1,)]
    return [_certified("0,6")], rejections


def _enum_24(b4_max, box):
    label = _skeleton_label((2, 4), ())

    def first_failure(n2, kp, s):
        c2 = 1 + n2      # signature pins c2 of the maximum to b4
        if -s + n2 + kp * kp - c2 != 0:
            return ("abbv-vanishing",
                    "e.g. degrees summing to %d with k' = %d, n2 = %d", (s, kp, n2))
        if 2 + s < 1 or 3 + kp < 1:
            return "monotone-positive", "e.g. s = %d, k' = %d", (s, kp)
        if n2 > 0:
            # no sphere-span-min: here 2 + s is 5 or 2, so sphere-area-min fires first
            if not area_fits(3 + kp, 2):
                return "sphere-area-max", "e.g. k' = %d: 3 + k' does not divide 2", (kp,)
            if not area_fits(2 + s, 3):
                return "sphere-area-min", "e.g. s = %d: 2 + s does not divide the depth 3", (s,)
        else:
            if not area_fits(2 + s, 5):
                return ("sphere-span-extremes",
                        "e.g. s = %d: 2 + s does not divide the span 5", (s,))
            if not area_fits(3 + kp, 5):
                return ("sphere-span-extremes",
                        "e.g. k' = %d: 3 + k' does not divide the span 5", (kp,))
        if abs(2 + s) != abs(3 + kp):
            return ("index-consistency", "e.g. s = %d, k' = %d give indices %d vs %d",
                    (s, kp, abs(2 + s), abs(3 + kp)))

    # the localization sum fixes the degree sum: s = k'^2 - 1
    rows, survivors = _sweep(
        label, (range(0, b4_max), range(-box, box + 1), range(-36, 37)),
        first_failure, solve=lambda n2, kp: (kp * kp - 1,))
    assert survivors == [(0, 2, 3)]
    return [_certified("2,4")], rows


def _enum_04(b4_max, box):
    lo = point_component((1, 1, 1, 1))
    hi_probe = cp2_extremal(-1, 0, 0)
    families, rejections = [], []
    for skel in _interior_skeletons(lo, hi_probe):
        kinds = tuple(t for _, t, _ in skel)
        label = _skeleton_label((0, 4), skel)
        if kinds == (ComponentType.POINT,):
            def first_failure(n2, kp):
                c2 = 1 + n2      # c2 = b4
                if 1 - 1 + n2 + kp * kp - c2 != 0:
                    return ("abbv-vanishing", "e.g. k' = %d gives k'^2 - 1 = %d",
                            (kp, kp * kp - 1))
                if abs(3 + kp) > 2:
                    return ("index-cap-point", "e.g. k' = %d gives index %d > 2",
                            (kp, abs(3 + kp)))
                # no sphere-area-max: only k' = -1 is left, and 3 + k' = 2 divides 2
                if c2 > K2_CAP:
                    return "dh-k-bound", "c2 = b4 = %d exceeds %d", (c2, K2_CAP)

            # the localization sum reads k'^2 = 1
            rows, survivors = _sweep(
                label, (range(0, b4_max), range(-box, box + 1)),
                first_failure, solve=lambda n2: (-1, 1))
            rejections.extend(rows)
            top_n2 = max((n2 for n2, _ in survivors), default=-1)
            assert top_n2 == min(b4_cap((0, 4)) - 1, b4_max - 1)
            families.append(_certified("0,4/no-surface", top_n2))
        else:
            assert kinds == (ComponentType.CP1,), "unexpected budget solution %s" % (skel,)

            def first_failure(n2, kp, a1, tail):
                c2 = 2 + n2
                if kp * kp - c2 + (-a1 + tail) + n2 + 1 != 0:
                    return ("abbv-vanishing",
                            "e.g. k' = %d, a1 = %d, a2 + a3 = %d", (kp, a1, tail))
                need = surface_tail(a1)
                if tail != need:
                    return ("surface-degree-relation",
                            "e.g. a1 = %d needs a2 + a3 = %d, got %d", (a1, need, tail))
                if 2 + a1 + tail < 1 or 3 + kp < 1:
                    return "monotone-positive", "e.g. a1 = %d, k' = %d", (a1, kp)
                if abs(3 + kp) % 2 == 0:
                    return ("index-parity-surface", "e.g. k' = %d gives even index %d",
                            (kp, abs(3 + kp)))
                if n2 > 0 and not area_fits(3 + kp, 2):
                    return "sphere-area-max", "e.g. k' = %d: 3 + k' does not divide 2", (kp,)

            # the localization sum fixes a2 + a3 = a1 + 1 - k'^2
            rows, survivors = _sweep(
                label, (range(0, b4_max - 1), range(-box, box + 1), range(-12, 13),
                        range(-24, 25)),
                first_failure, solve=lambda n2, kp, a1: (a1 + 1 - kp * kp,))
            rejections.extend(rows)
            assert survivors == [(0, 0, 3, 4)]
            families.append(_certified("0,4/with-surface"))
    return families, rejections


def _enum_44(b4_max, box):
    label = _skeleton_label((4, 4), ())
    cap = b4_cap((4, 4))

    def first_failure(n2, k1, k2):
        # signature pins c2(min) + c2(max) = 2 + n2, so the
        # localization sum reduces to k1^2 + k2^2 = 2
        squares = k1 * k1 + k2 * k2
        if squares != 2:
            return ("abbv-vanishing", "e.g. k' = (%d, %d): squares sum to %d, not 2",
                    (k1, k2, squares))
        if abs(3 + k1) != abs(3 + k2):
            return ("index-consistency", "k' = (%d, %d) give indices %d vs %d",
                    (k1, k2, abs(3 + k1), abs(3 + k2)))
        if n2 > 0 and not (area_fits(3 + k1, 2) and area_fits(3 + k2, 2)):
            return "sphere-area-max", "k' = %d at an extreme does not divide the area 2", (k1,)
        if k1 == -1 and 2 + n2 > cap:
            return ("dh-k-bound", "b4 = %d needs a c2 split with a part > %d",
                    (2 + n2, K2_CAP))

    rows, survivors = _sweep(
        label, (range(0, max(0, b4_max - 2) + 1), range(-box, box + 1), range(-box, box + 1)),
        first_failure, solve=lambda n2, k1: (-1, 1) if k1 * k1 == 1 else ())
    neg_top_n2 = max((n2 for n2, k1, _ in survivors if k1 == -1), default=-1)
    pos_ok = any(k1 != -1 for _, k1, _ in survivors)
    assert pos_ok and neg_top_n2 == min(cap - 2, max(0, b4_max - 2))
    return [_certified("4,4/negative", neg_top_n2), _certified("4,4/positive")], rows


_ENUMERATORS = {
    (0, 0): _enum_00,
    (0, 4): _enum_04,
    (0, 6): _enum_06,
    (2, 4): _enum_24,
    (4, 4): _enum_44,
}

ADMISSIBLE_SHAPES = tuple(_ENUMERATORS)
# the sweeps grow about as b4_max^2: enumerate_all took 0.24, 0.67, 2.2 s at
# b4_max 30, 60, 120 and 167 s at this limit (Python 3.11, shared 2-vCPU VM)
B4_MAX_LIMIT = 1000


def enumerate_case(shape, b4_max=14):
    """All admissible families for one extremal dimension pair.

    The swept boxes: Chern coefficients k' (m for (0,6), k1 and k2 for
    (4,4)) up to b4_max + 2 in absolute value; Morse-index-4 point counts
    n2 in [0, b4_max - 1] for (2,4) and the (0,4) branch without a
    surface, [0, b4_max - 2] for the one with a surface and for (4,4);
    surface degrees a1 up to 12 and a2 + a3 up to 24, and the (2,4)
    degree sum up to 36, in absolute value. Rejection counts are counts
    over these boxes; the chains pin every family parameter well inside.
    """
    shape = tuple(sorted(index(v) for v in shape))
    b4_max = index(b4_max)
    assessment = admissible_dim_pairs().get(shape)
    if assessment is None:
        raise ClassifyError("not a pair of extremal dimensions: %s" % (shape,))
    if not assessment.admissible:
        raise ClassifyError(
            "shape %s is not admissible (admissible: %s): %s"
            % (shape, ", ".join(str(s) for s in ADMISSIBLE_SHAPES), "; ".join(
                it.line() for it in assessment.trace if it.verdict == "FAIL")))
    if b4_max < 2:
        raise ClassifyError("b4_max must be at least 2")
    if b4_max > B4_MAX_LIMIT:
        raise ClassifyError("b4_max must be at most %d" % B4_MAX_LIMIT)
    box = b4_max + 2
    families, rejections = _ENUMERATORS[shape](b4_max, box)
    return EnumerationResult(shape, b4_max, tuple(families), tuple(rejections))


def enumerate_all(b4_max=14):
    """Enumeration results for the five admissible shapes, in order."""
    return {shape: enumerate_case(shape, b4_max) for shape in ADMISSIBLE_SHAPES}


# ----------------------------------------------------------------------
# the catalog of known actions
# ----------------------------------------------------------------------

# (name, fixed-point class, family key, n2): each known action's fixed point
# data is the member of an enumerated family with its default free choices
_CATALOG = (
    ("p4-isolated-min", "a", "0,6", 0),
    ("p4-sphere-min", "a", "2,4", 0),
    ("q4-interior-quadric", "b", "0,0", 0),
    ("q4-two-planes", "b", "4,4/positive", 0),
    ("w5-surface-and-plane", "c", "0,4/with-surface", 0),
    ("x8-six-points", "d", "4,4/negative", 6),
)


def catalog():
    """Fixed point data of the known actions, keyed by structure."""
    return {name: _FAMILIES[key].builder(n2) for name, _, key, n2 in _CATALOG}


def _is_x8_family(data):
    """The case-d family modulo its undetermined c2 split: a (4,4) shape
    with six interior components and X8m's volume by halves. The (4,4)
    branch of total_volume already asks for two ruled planes and only
    index-4 interior points, and its halves sum to X8m's c1^4 exactly when
    the split sums to 8."""
    o = oriented(data)
    return (o is not None and o[0] == (4, 4) and len(o[4]) == 6
            and total_volume(data) == _X8M_VOLUME)


@cache
def _catalog_fingerprints():
    # (class, fingerprint) of each entry, then of each reversed entry, in catalog
    # order; fingerprints commute with reversal, an involution, so matching
    # the data against both lists matches both orientations of the data
    entries = [(case, d) for (_, case, _, _), d in zip(_CATALOG, catalog().values())]
    return tuple((case, fingerprint(d)) for case, d in entries) + tuple(
        (case, fingerprint(reverse_action(d))) for case, d in entries)


def match_fp_class(data):
    """Which catalog class the data belongs to: 'a' through 'd', or
    'unclassified'. Reversing the action is allowed; the case-d entry is
    matched modulo its undetermined c2 split."""
    fp = fingerprint(data)
    for case, entry_fp in _catalog_fingerprints():
        if fp == entry_fp:
            return case
    if _is_x8_family(data):
        return "d"
    return "unclassified"


# ----------------------------------------------------------------------
# Fano families with index at least 2 and their volume filter
# ----------------------------------------------------------------------

class FanoFamilyRecord(Record):
    _fields = ("name", "fano_index", "b4", "c1_fourth", "genus", "finite_automorphisms")

    def __init__(self, name, fano_index, b4, c1_fourth, genus=0, finite_automorphisms=False):
        set_field(self, "name", name)
        set_field(self, "fano_index", fano_index)
        set_field(self, "b4", b4)
        set_field(self, "c1_fourth", c1_fourth)
        set_field(self, "genus", genus)   # 0 means: not a genus-indexed family
        set_field(self, "finite_automorphisms", finite_automorphisms)


def default_fano_table():
    """The eight deformation families of Fano 4-folds with index >= 2 and
    second Betti number one."""
    return (
        FanoFamilyRecord("P4", 5, 1, 625),
        FanoFamilyRecord("Q4", 4, 2, 512),
        FanoFamilyRecord("Q1Q2", 3, 8, 324, finite_automorphisms=True),
        FanoFamilyRecord("W5", 3, 2, 405),
        FanoFamilyRecord("X7m", 2, 12, 192, genus=7),
        FanoFamilyRecord("X8m", 2, 8, 224, genus=8),
        FanoFamilyRecord("X9m", 2, 4, 256, genus=9),
        FanoFamilyRecord("V18", 2, 2, 288, genus=10),
    )


REQUIRED_FAMILY_NAMES = tuple(r.name for r in default_fano_table())
_X8M_VOLUME = next(r.c1_fourth for r in default_fano_table() if r.name == "X8m")


def fano_table_hash(records=None):
    import hashlib      # here, not at the top: only the table hash reads it

    records = default_fano_table() if records is None else records
    doc = [{name: getattr(r, name) for name in r._fields}
           for r in sorted(records, key=lambda r: r.name)]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# the enumerated families of each index >= 3; all of them have one b4
_INDEX_WITNESS = {
    3: "the (0,4) shape with an interior Morse-index-2 sphere",
    4: "the (0,0) shape and the positive (4,4) branch",
    5: "the (0,6) and (2,4) shapes",
}


class FanoClassification(Record):
    _fields = ("survivors", "traces", "table_hash")

    def __init__(self, survivors, traces, table_hash):
        set_field(self, "survivors", survivors)
        set_field(self, "traces", traces)     # ((name, (CheckItem, ...)), ...)
        set_field(self, "table_hash", table_hash)


def classify_fano(records=None):
    """Filter the Fano table down to the families that can carry an
    effective semi-free circle action with isolated-or-small fixed sets.

    Index-2 families must additionally match one of the two computable
    moment-interval volumes; a positive-dimensional symmetry group is
    required throughout. A table must list every required family, each
    name once.
    """
    records = default_fano_table() if records is None else tuple(records)
    names = set()
    for r in records:
        if r.name in names:
            raise ClassifyError("duplicate family record %r in the table" % (r.name,))
        names.add(r.name)
    missing = [n for n in REQUIRED_FAMILY_NAMES if n not in names]
    if missing:
        raise ClassifyError("incomplete family table, missing: %s" % ", ".join(missing))
    survivors = []
    traces = []
    for rec in sorted(records, key=lambda r: (-r.fano_index, r.name)):
        items = []
        alive = True
        if rec.fano_index == 2 and rec.genus:
            expect = 32 * (rec.genus - 1)
            if expect != rec.c1_fourth:
                items.append(CheckItem(
                    "degree-genus", "WARN",
                    "genus %d predicts c1^4 = %d, record says %d"
                    % (rec.genus, expect, rec.c1_fourth)))
            else:
                items.append(CheckItem(
                    "degree-genus", "PASS",
                    "32*(%d - 1) = %d" % (rec.genus, rec.c1_fourth)))
        if rec.fano_index not in (2, 3, 4, 5):
            items.append(CheckItem(
                "index-range", "FAIL", "index %d is outside 2..5" % rec.fano_index))
            alive = False
        if alive and rec.finite_automorphisms:
            items.append(CheckItem(
                "finite-automorphisms", "FAIL",
                "the family has no positive-dimensional automorphisms"))
            alive = False
        if alive and rec.fano_index == 2:
            # the isolated-minimum pattern (0,4) has plane coefficient b4;
            # the two-plane pattern (4,4) splits b4 between its planes, and
            # the half volume is affine in the coefficient, so any split
            # gives the same total
            vol_a = half_volume_isolated_pair() + half_volume_cp2(rec.b4)
            vol_b = half_volume_cp2(rec.b4) + half_volume_cp2(0)
            cap_a = b4_cap((0, 4))
            hit_a = rec.c1_fourth == vol_a and rec.b4 <= cap_a
            hit_b = rec.c1_fourth == vol_b and rec.b4 <= b4_cap((4, 4))
            note = ""
            if rec.b4 > cap_a:
                note = " (isolated-minimum pattern needs b4 <= %d, here %d)" % (cap_a, rec.b4)
            if hit_a or hit_b:
                items.append(CheckItem(
                    "volume-match", "PASS",
                    "volume %d matches the %s pattern%s"
                    % (rec.c1_fourth,
                       "two-plane" if hit_b else "isolated-minimum", note)))
            else:
                items.append(CheckItem(
                    "volume-match", "FAIL",
                    "candidate volumes %d and %d, target %d%s"
                    % (vol_a, vol_b, rec.c1_fourth, note)))
                alive = False
            items.append(CheckItem(
                "index-parity-surface", "INFO",
                "the odd-index surface pattern is excluded for index 2"))
        if alive and rec.fano_index >= 3:
            witness = _INDEX_WITNESS[rec.fano_index]
            (b4_there,) = {f.b4_base for f in _FAMILIES.values() if f.iota == rec.fano_index}
            items.append(CheckItem(
                "index-range", "PASS",
                "index %d realized by %s" % (rec.fano_index, witness)))
            if rec.b4 != b4_there:
                items.append(CheckItem(
                    "index-range", "WARN",
                    "that pattern pins b4 = %d, record has b4 = %d"
                    % (b4_there, rec.b4)))
        if alive:
            survivors.append(rec.name)
        traces.append((rec.name, tuple(items)))
    return FanoClassification(tuple(survivors), tuple(traces),
                              fano_table_hash(records))
