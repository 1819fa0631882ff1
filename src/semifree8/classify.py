"""The case analysis: which fixed point data can occur, and on which Fanos.

Everything here is driven by a small set of named rules. Structural rules
(Betti budgets, localization sum, signature) live in the other modules;
this one adds the sphere-area rules, the Fano-index rules, and two
exclusion rules for interior components, and runs them all on one
dataset in ``verification_report``. Every check item names its rule by
id; the statement lives once in ``model.RULES``.

The seven families the enumeration can produce are stated once, in the
table ``_FAMILIES``: key, shape and texts, next to a module-level builder
of its members. Each family reads its Fano index and its b4 off its own
member, so the table states neither.

The final consumers are at the bottom: the catalog of known actions, each
entry a member of a family in the table with its default free choices,
the fixed-point-data matcher, and the table of Fano families with large
symmetry potential and its hash.

Every command but ``enumerate`` and ``classify-fano`` compiles this
module and the modules it imports, and no others of the package. Two
parts live elsewhere and are served from here too, each loaded on first
use of one of its names:

* the per-shape enumeration, which sweeps the parameter boxes and
  certifies the families (``enumerate_case``, ``enumerate_all``,
  ``admissible_dim_pairs``, ``ADMISSIBLE_SHAPES``, ...), in
  ``semifree8.enumeration``, which only ``semifree8 enumerate`` compiles;
* the volume filter on the Fano table (``classify_fano``,
  ``FanoClassification``), in ``semifree8.fano``, which only
  ``semifree8 classify-fano`` compiles.
"""

import json
from bisect import bisect_left, bisect_right
from functools import cache

from .dh import K2_CAP, dh_profile, positivity_check, total_volume
from .model import (
    CheckItem,
    ClassifyError,
    ComponentType,
    ConstraintReport,
    FixedPointData,
    area_realizable,
    betti_vector,
    cp2_extremal,
    cp3_extremal,
    fourdim_interior,
    fingerprint,
    oriented,
    pass_fail,
    point_component,
    require_well_typed,
    reverse_action,
    signature_check,
    surface_component,
    validate,
)
from .record import Record, serve_lazily

# the names of semifree8.enumeration and semifree8.fano served from here
__getattr__ = serve_lazily(globals(), {
    **dict.fromkeys((
        "ADMISSIBLE_SHAPES", "B4_MAX_LIMIT", "EnumerationResult", "Rejection",
        "ShapeAssessment", "admissible_dim_pairs", "enumerate_all", "enumerate_case",
    ), "enumeration"),
    **dict.fromkeys(("FanoClassification", "classify_fano"), "fano"),
})


# ----------------------------------------------------------------------
# Fano index from the extremes
# ----------------------------------------------------------------------

def index_candidates(data):
    """(source, value) pairs for the Fano index read off the extremes.

    An extreme that is not a point reads it off its stored ``omega``, the
    restriction of [w], which past the structural gate has one coefficient
    (a quadric surface is never an extreme). In shape (0,0) both extremes
    are points, so the dataset's ``fourdim`` are interior. Data that is not
    ``well_typed`` raises IllTypedError."""
    require_well_typed(data, "fano-index")
    out = []
    lo, hi = data.extremes
    for comp, label in ((lo, "minimum"), (hi, "maximum")):
        if comp is not None and comp.complex_dim >= 1:
            out.append((label, abs(comp.omega[0])))
    if data.shape == (0, 0) and len(data.fourdim) == 1:
        out.append(("interior four-dimensional component", 4))
    return out


def index_from_extremal(data):
    """The Fano index of the ambient manifold, or a ClassifyError when no
    rule pins it (or two extremes disagree, which no realizable data does);
    data that is not ``well_typed`` raises IllTypedError, as in
    ``index_candidates``."""
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
    coeffs = comp.omega
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
    bottom, so the action is reversed first when needed. They read the
    oriented dataset's ``lam2_points`` and ``levels``, and normal bundle
    data, so data that is not ``well_typed`` raises IllTypedError.
    """
    require_well_typed(data, "sphere rules")
    rep = ConstraintReport()
    data = oriented(data)
    if data is None:
        return rep
    (d1, d2), (lo, hi), inner = data.shape, data.extremes, data.interior
    lam2, levels = data.lam2_points, data.levels
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
                # c(N_-1) = 1 + a1*u, c(N_+1) = 1 + rest*u
                ((a1,),), ((rest,),) = c.normal.chern
                rep.append(pass_fail(
                    "surface-degree-relation", rest == surface_tail(a1),
                    "3*%d vs 2 + %d + %d (surface alone below level 0 reading)"
                    % (a1, a1, rest)))
    if not rep:
        rep.append(CheckItem("sphere-rules", "INFO",
                             "no sphere rule applies to this configuration"))
    return rep


# ----------------------------------------------------------------------
# Fano-index rules
# ----------------------------------------------------------------------

def sphere_index_rules(data):
    """The Fano-index rules, stated like the sphere-area rules for the
    smaller extreme at the bottom. They read the extremes' Chern data and,
    in shape (0,0), the dataset's ``fourdim``, so data that is not
    ``well_typed`` raises IllTypedError."""
    require_well_typed(data, "index rules")
    rep = ConstraintReport()
    data = oriented(data)
    if data is None:
        return rep
    shape, lo = data.shape, data.extremes[0]
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

    if shape == (0, 0) and len(data.fourdim) == 1:
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
    """Interior two-negative-weight points (the dataset's ``lam2_points``)
    need a 4-dim extreme: the rule's one item, or no item when there are
    no such points."""
    lam2 = data.lam2_points
    if not lam2:
        return ()
    has4 = any(c is not None and c.complex_dim == 2 for c in data.extremes)
    return (pass_fail("lambda2-needs-4dim-extremal", has4, "%d such points, 4-dim extreme %s"
                      % (len(lam2), "present" if has4 else "absent")),)


def _bundle_halves(data):
    """The (0,0) pin: interior 4-dim bundles are halves of the tangent
    class. Both extremes are points, so every one of the dataset's
    ``fourdim`` is interior, and each is checked: the rule's one item,
    that of the first that fails or else the first one's PASS, or no item
    outside shape (0,0) or without a 4-dim component."""
    if data.shape != (0, 0) or not data.fourdim:
        return ()
    items = [_halves_item(c) for c in data.fourdim]
    return (next((it for it in items if it.verdict == "FAIL"), items[0]),)


def _halves_item(c):
    """Are both normal line bundles of the 4-dim component c half its
    tangent class?"""
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


# ----------------------------------------------------------------------
# the full verification chain on one dataset
# ----------------------------------------------------------------------

def verification_report(data):
    """Everything this package can check about one dataset, in one report:
    the list of every rule's check items in the order the rules ran, each
    rule adding its items, none when it does not apply.

    Past the structural gate every component stores its localization term
    (``abbv_term``, the closed form ``abbv_terms`` computes). The rules
    stated for the smaller extreme at the bottom get the upright dataset of
    one ``oriented`` call, which their own ``oriented`` calls return as it
    is, so a report reverses the action at most once."""
    rep = validate(data)
    rep.append(CheckItem("betti-vector", "INFO", "b = %s" % (betti_vector(data),)))
    if not data.well_typed:
        rep.append(CheckItem("typed-rules", "INFO", "not applied: %s failed"
                             % ", ".join(data.structural_failures)))
        return rep
    terms = [c.abbv_term for c in data.components]
    total = sum(terms)
    rep.append(pass_fail("abbv-vanishing", total == 0, "contributions %s sum to %s"
                         % ([str(t) for t in terms], total)))
    rep.append(signature_check(data))
    rep.extend(_lambda2_exclusion(data))
    rep.extend(_bundle_halves(data))
    up = oriented(data)
    if up is not None:
        rep.extend(sphere_constraints(up))
        rep.extend(sphere_index_rules(up))
    rep.extend(positivity_check(dh_profile(data)))
    vol = None if up is None else total_volume(up)
    rep.append(CheckItem("total-volume", "INFO",
                         "c1^4 = %s" % vol if vol is not None else "not computable by halves"))
    return rep


# ----------------------------------------------------------------------
# the family table: every family a sweep can produce, and its members
# ----------------------------------------------------------------------

class Family(Record):
    """``fixed`` is the ``((name, value), ...)`` the family pins, ``free``
    its human-readable leftover freedom. ``builder(n2, **choices)`` builds a
    member; it is a hidden field, so equality, hashing and repr do not see
    it. The Fano index ``iota`` and ``b4_base``, b4 at n2 = 0 (b4 = b4_base
    + n2), are no fields: each is read off the member at ``n2_min`` when
    asked for, so the table states neither beside the builder that
    determines both."""

    _fields = ("key", "shape", "summary", "fixed", "free", "builder", "n2_max")
    _defaults = {"n2_max": 0}
    _hidden = ("builder",)
    n2_min = 0                   # every family has a member without Morse-index-4 points

    @property
    def iota(self):
        return index_from_extremal(self.instantiate())

    @property
    def b4_base(self):
        return self.instantiate().betti[2] - self.n2_min

    def b4(self, n2=None):
        return self.b4_base + (self.n2_min if n2 is None else n2)

    def instantiate(self, n2=None, **choices):
        n2 = self.n2_min if n2 is None else n2
        if not self.n2_min <= n2 <= self.n2_max:
            raise ClassifyError("n2 = %d outside [%d, %d] for family %s"
                                % (n2, self.n2_min, self.n2_max, self.key))
        return self.builder(n2, **choices)


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
        fixed=(("bundle bidegrees", (1, 1)),),
        free=(),
        builder=_build_00),
    Family(
        key="0,6", shape=(0, 6),
        summary=("an isolated minimum and a six-dimensional maximum whose "
                 "normal line bundle has first Chern coefficient 1"),
        fixed=(("six-dim normal c1", 1),),
        free=(),
        builder=_build_06),
    Family(
        key="2,4", shape=(2, 4),
        summary=("a minimal sphere with normal degrees summing to 3 and a "
                 "four-dimensional maximum with c1 coefficient 2, c2 = 1"),
        fixed=(("max c1", 2), ("max c2", 1), ("min degree sum", 3)),
        free=("split of the degree sum 3 into three summands (default 1,1,1)",),
        builder=_build_24),
    Family(
        key="0,4/no-surface", shape=(0, 4),
        summary=("an isolated minimum, one Morse-index-2 point, n2 "
                 "Morse-index-4 points and a four-dimensional maximum "
                 "with c1 coefficient -1, c2 = b4 = 1 + n2"),
        fixed=(("max c1", -1),),
        free=(),
        builder=_build_04_point),
    Family(
        key="0,4/with-surface", shape=(0, 4),
        summary=("an isolated minimum, a Morse-index-2 sphere with "
                 "degrees (3 | a2 + a3 = 4) and a four-dimensional "
                 "maximum with c1 coefficient 0, c2 = 2"),
        fixed=(("max c1", 0), ("max c2", 2), ("surface a1", 3)),
        free=("split of a2 + a3 = 4 (default 2,2)",),
        builder=_build_04_surface),
    Family(
        key="4,4/negative", shape=(4, 4),
        summary=("two four-dimensional extremes with c1 coefficient -1, n2 "
                 "Morse-index-4 points, c2 values splitting b4 = 2 + n2"),
        fixed=(("both c1", -1),),
        free=("c2 split of b4 into two parts, each at most %d (default balanced)" % K2_CAP,),
        builder=_build_44_neg),
    Family(
        key="4,4/positive", shape=(4, 4),
        summary=("two four-dimensional extremes with c1 coefficient +1 and "
                 "no interior points, c2 values splitting b4 = 2"),
        fixed=(("both c1", 1),),
        free=("c2 split of 2 into two parts, bounded only by the search box "
              "(default 1,1)",),
        builder=_build_44_pos),
)}


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
    the split sums to 8. ``oriented`` reverses only when the minimum is the
    larger extreme, never on a (4,4) shape, so the shape and interior as
    given are the oriented ones and total_volume reverses nothing."""
    if data.shape != (4, 4) or len(data.interior) != 6:
        return False
    return total_volume(data) == _X8M_VOLUME


@cache
def _catalog_fingerprints(shape):
    # (class, fingerprint) of each entry of this shape, then of each reversed
    # one, in catalog order; fingerprints commute with reversal, an
    # involution, so matching the data against both lists matches both
    # orientations of the data. Equal fingerprints mean equal types and
    # weights, hence equal shapes, and reversal keeps the sorted shape, so
    # no entry of another shape can match.
    entries = [(case, _FAMILIES[key].builder(n2)) for _, case, key, n2 in _CATALOG
               if _FAMILIES[key].shape == shape]
    return tuple((case, fingerprint(d)) for case, d in entries) + tuple(
        (case, fingerprint(reverse_action(d))) for case, d in entries)


def match_fp_class(data):
    """Which catalog class the data belongs to: 'a' through 'd', or
    'unclassified'. Reversing the action is allowed; the case-d entry is
    matched modulo its undetermined c2 split. Only the catalog entries of
    the data's shape are built and compared, once per shape and process;
    data with no unique extremes has no shape and matches none."""
    if data.shape is None:
        return "unclassified"
    fp = fingerprint(data)
    for case, entry_fp in _catalog_fingerprints(data.shape):
        if fp == entry_fp:
            return case
    if _is_x8_family(data):
        return "d"
    return "unclassified"


# ----------------------------------------------------------------------
# Fano families with index at least 2
# ----------------------------------------------------------------------

class FanoFamilyRecord(Record):
    _fields = ("name", "fano_index", "b4", "c1_fourth", "genus", "finite_automorphisms")
    # genus 0 means: not a genus-indexed family
    _defaults = {"genus": 0, "finite_automorphisms": False}


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
    # CPython's built-in sha256 (_sha2 from 3.12, _sha256 before): hashlib
    # would load OpenSSL's libcrypto, which costs a command more than hashing
    # this table of about 600 bytes. Imported here: only the table hash reads it
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    records = default_fano_table() if records is None else records
    doc = [{name: getattr(r, name) for name in r._fields}
           for r in sorted(records, key=lambda r: r.name)]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return sha256(blob).hexdigest()
