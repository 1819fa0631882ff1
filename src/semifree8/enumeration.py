"""The per-shape enumeration: every fixed point data a rule chain admits.

For each admissible pair of extremal dimensions, exhaustively sweep the
parameter boxes, apply the rules, and coalesce the survivors into the
parameterized families of ``classify._FAMILIES``. Every rejection names
its rule by id; the statement lives once in ``model.RULES``. Each shape
states its rule chain once over its sweep parameters, built on the
closed forms the rule objects call (``model.area_fits``,
``classify.surface_tail``, ``dh.K2_CAP`` and ``dh.b4_cap``), and one
function, ``_sweep``, runs it over the box. The chain opens with the
localization sum, which fixes the innermost parameter; in the (0,4)
surface chain the surface degree relation then fixes the next one. Each
such solved rule is stated once, as its id, its witness and the solver
that yields the values it admits, and the chain's ``first_failure``
states the rules after it; the (0,6) chain sweeps one axis, solves
nothing and tests the localization sum in ``first_failure``. One walk
over the box without n2 splits it into the admitted choices and one
batch per solved rule, whose row its rule formats. No solver reads n2,
the number of Morse-index-4 points, so at every n2 ``first_failure``
runs once per admitted choice, and the work grows linearly in b4_max:
``enumerate_all`` calls it 386, 834, 3,354 and 27,994 times at b4_max
14, 30, 120 and 1000.

A sweep returns the table's family with the n2 range its survivors give,
re-certified on every instantiated member through the full rule chain
(``classify.verification_report``).

Only ``semifree8 enumerate`` runs this module. ``semifree8.classify`` and
the package serve its public names on first use (``enumerate_case``,
``enumerate_all``, ``admissible_dim_pairs``, ...), so the other commands
never compile it.
"""

from itertools import combinations_with_replacement, product
from operator import index

from .classify import _FAMILIES, ClassifyError, Family, surface_tail, verification_report
from .dh import K2_CAP, b4_cap
from .model import (
    CheckItem,
    ComponentType,
    FixedPointData,
    area_fits,
    betti_contribution,
    cp2_extremal,
    cp3_extremal,
    point_component,
    rule_statement,
)
from .record import Record, set_field


# ----------------------------------------------------------------------
# admissible extremal dimension pairs
# ----------------------------------------------------------------------

class ShapeAssessment(Record):
    _fields = ("shape", "admissible", "trace")


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
    return {pair: _assess_shape(*pair) for pair in combinations_with_replacement((0, 2, 4, 6), 2)}


# ----------------------------------------------------------------------
# enumeration output types
# ----------------------------------------------------------------------

class Rejection(Record):
    _fields = ("candidate", "rule_id", "detail")

    def __init__(self, *args, **kwargs):
        Record.__init__(self, *args, **kwargs)
        set_field(self, "rule", rule_statement(self.rule_id))   # unknown ids raise


class EnumerationResult(Record):
    _fields = ("shape", "b4_max", "families", "rejections")


# ----------------------------------------------------------------------
# running a rule chain over a box, and certifying its family
# ----------------------------------------------------------------------

def _ensure(ok, *why):
    """An assert that ``python -O`` keeps: the sweeps' survivors must match
    the family table."""
    if not ok:
        raise AssertionError(*why)


def _sweep(label, axes, first_failure, *solved):
    """Run one rule chain over a parameter box: (rejection rows, survivors).

    axes are the swept ranges, outermost first, each ascending; with more
    than one, the first is n2. The chain opens with its solved rules, each
    given once as (rule_id, witness_format, witness, solve) and in chain
    order; first_failure(*choice) runs the rest of the chain on a choice
    that passes them, and returns None for a survivor, else
    (rule_id, witness_format, args) for the first rule the choice breaks.
    A rejection row tallies a rule's choices, its witness being
    witness_format % args of the least choice the rule rejects (a solved
    rule's args are witness(*choice)), and rows come out ordered by that
    choice: the loop order of the full loop, where each rule first fires.

    A chain solves at most two rules: the first for the innermost axis,
    the second for the next-to-innermost one. solve(*head) yields, each
    once and in the axis order, the values of its axis that the rule
    admits after the values of the axes between n2 and that axis; every
    other value fails the rule. So one walk over the heads, the box
    without n2 and the innermost axis, splits the box into the admitted
    tails and one batch per solved rule, each of whose choices fails that
    rule and passes the one before it; a batch is kept as its least tail
    and its count.

    No solver reads n2: the signature ties c2 to b4, so each
    Morse-index-4 point adds as much to c2 as to the localization sum, and
    n2 cancels from it; the surface degree relation does not read n2. At
    every n2, a batch's row comes from its solved rule, and first_failure
    runs on each admitted tail, in the order of the tails, so the least
    choice of each rule is met first.
    """
    *outer, inner = axes
    first, mid = solved + (None,) * (2 - len(solved))
    batches, admitted = {}, []
    for head in product(*outer[1:]):
        ok = inner if first is None else [v for v in first[-1](*head) if v in inner]
        if len(ok) < len(inner):
            least = head + (next(v for v in inner if v not in ok),)
            batches.setdefault(first, [least, 0])[1] += len(inner) - len(ok)
        if mid is None or head[-1] in mid[-1](*head[:-1]):
            admitted.extend((head + (v,), 1, None) for v in ok)
        elif ok:
            batches.setdefault(mid, [head + (ok[0],), 0])[1] += len(ok)
    # tails are distinct, so the sort never compares counts or rules
    runs = sorted(admitted + [(tail, n, rule) for rule, (tail, n) in batches.items()])
    bins, survivors = {}, []
    for n2 in product(*outer[:1]):
        for tail, n, rule in runs:
            choice = n2 + tail
            if rule is None:
                failure = first_failure(*choice)
                if failure is None:
                    survivors.append(choice)
                    continue
            else:
                rule_id, fmt, witness, _ = rule
                failure = rule_id, fmt, witness(*choice)
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
    family = Family(f.key, f.shape, f.summary, f.fixed, f.free, f.builder, n2_max)
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
    _ensure(skels == [()], "unexpected interior budget solutions for (0,6)")
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
    _ensure(survivors == [(1,)])
    return [_certified("0,6")], rejections


def _enum_24(b4_max, box):
    label = _skeleton_label((2, 4), ())

    def first_failure(n2, kp, s):
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

    # the localization sum -s + n2 + k'^2 - c2 = 0, where the signature pins
    # c2 of the maximum to b4 = 1 + n2, fixes the degree sum: s = k'^2 - 1
    rows, survivors = _sweep(
        label, (range(0, b4_max), range(-box, box + 1), range(-36, 37)), first_failure,
        ("abbv-vanishing", "e.g. degrees summing to %d with k' = %d, n2 = %d",
         lambda n2, kp, s: (s, kp, n2), lambda kp: (kp * kp - 1,)))
    _ensure(survivors == [(0, 2, 3)])
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
                if abs(3 + kp) > 2:
                    return ("index-cap-point", "e.g. k' = %d gives index %d > 2",
                            (kp, abs(3 + kp)))
                # no sphere-area-max: only k' = -1 is left, and 3 + k' = 2 divides 2
                if 1 + n2 > K2_CAP:
                    return "dh-k-bound", "c2 = b4 = %d exceeds %d", (1 + n2, K2_CAP)

            # the localization sum 1 - 1 + n2 + k'^2 - c2 = 0, with the
            # signature's c2 = b4 = 1 + n2, reads k'^2 = 1
            rows, survivors = _sweep(
                label, (range(0, b4_max), range(-box, box + 1)), first_failure,
                ("abbv-vanishing", "e.g. k' = %d gives k'^2 - 1 = %d",
                 lambda n2, kp: (kp, kp * kp - 1), lambda: (-1, 1)))
            rejections.extend(rows)
            top_n2 = max((n2 for n2, _ in survivors), default=-1)
            _ensure(top_n2 == min(b4_cap((0, 4)) - 1, b4_max - 1))
            families.append(_certified("0,4/no-surface", top_n2))
        else:
            _ensure(kinds == (ComponentType.CP1,), "unexpected budget solution %s" % (skel,))

            def first_failure(n2, kp, a1, tail):
                if 2 + a1 + tail < 1 or 3 + kp < 1:
                    return "monotone-positive", "e.g. a1 = %d, k' = %d", (a1, kp)
                if abs(3 + kp) % 2 == 0:
                    return ("index-parity-surface", "e.g. k' = %d gives even index %d",
                            (kp, abs(3 + kp)))
                if n2 > 0 and not area_fits(3 + kp, 2):
                    return "sphere-area-max", "e.g. k' = %d: 3 + k' does not divide 2", (kp,)

            # the localization sum k'^2 - c2 - a1 + (a2 + a3) + n2 + 1 = 0, with
            # c2 = b4 = 2 + n2, fixes a2 + a3 = a1 + 1 - k'^2, and the surface
            # degree relation a2 + a3 = 2*a1 - 2 then fixes a1 = 3 - k'^2
            rows, survivors = _sweep(
                label, (range(0, b4_max - 1), range(-box, box + 1), range(-12, 13),
                        range(-24, 25)), first_failure,
                ("abbv-vanishing", "e.g. k' = %d, a1 = %d, a2 + a3 = %d",
                 lambda n2, kp, a1, tail: (kp, a1, tail), lambda kp, a1: (a1 + 1 - kp * kp,)),
                ("surface-degree-relation", "e.g. a1 = %d needs a2 + a3 = %d, got %d",
                 lambda n2, kp, a1, tail: (a1, surface_tail(a1), tail),
                 lambda kp: (3 - kp * kp,)))
            rejections.extend(rows)
            _ensure(survivors == [(0, 0, 3, 4)])
            families.append(_certified("0,4/with-surface"))
    return families, rejections


def _enum_44(b4_max, box):
    label = _skeleton_label((4, 4), ())
    cap = b4_cap((4, 4))

    def first_failure(n2, k1, k2):
        if abs(3 + k1) != abs(3 + k2):
            return ("index-consistency", "k' = (%d, %d) give indices %d vs %d",
                    (k1, k2, abs(3 + k1), abs(3 + k2)))
        if n2 > 0 and not (area_fits(3 + k1, 2) and area_fits(3 + k2, 2)):
            return "sphere-area-max", "k' = %d at an extreme does not divide the area 2", (k1,)
        if k1 == -1 and 2 + n2 > cap:
            return ("dh-k-bound", "b4 = %d needs a c2 split with a part > %d",
                    (2 + n2, K2_CAP))

    # the signature pins c2(min) + c2(max) = 2 + n2, so the localization
    # sum reduces to k1^2 + k2^2 = 2
    rows, survivors = _sweep(
        label, (range(0, max(0, b4_max - 2) + 1), range(-box, box + 1), range(-box, box + 1)),
        first_failure,
        ("abbv-vanishing", "e.g. k' = (%d, %d): squares sum to %d, not 2",
         lambda n2, k1, k2: (k1, k2, k1 * k1 + k2 * k2),
         lambda k1: (-1, 1) if k1 * k1 == 1 else ()))
    neg_top_n2 = max((n2 for n2, k1, _ in survivors if k1 == -1), default=-1)
    pos_ok = any(k1 != -1 for _, k1, _ in survivors)
    _ensure(pos_ok and neg_top_n2 == min(cap - 2, max(0, b4_max - 2)))
    return [_certified("4,4/negative", neg_top_n2), _certified("4,4/positive")], rows


_ENUMERATORS = {
    (0, 0): _enum_00,
    (0, 4): _enum_04,
    (0, 6): _enum_06,
    (2, 4): _enum_24,
    (4, 4): _enum_44,
}

ADMISSIBLE_SHAPES = tuple(_ENUMERATORS)
# the sweeps grow linearly in b4_max: enumerate_all ran 834, 3,354 and
# 27,994 rule chains and took 6, 14 and 88 ms at b4_max 30, 120 and this
# limit (Python 3.11, shared 2-vCPU VM)
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
