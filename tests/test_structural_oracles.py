"""The one-pass structural gate against the routes it replaced.

`validate` walks no component for its evidence: it formats what
`FixedPointData` gathered in its one pass (only the level-order detail
lists the components' levels), and only the detail of the verdict each
check reports; `FixedPointData.betti` adds each component's shifted Betti
numbers into one vector; the loader formats the path of the
failing node only, each parent prefixing its step on the way out. The
oracles below are the earlier routes, verbatim but for names: `validate`
with its passes over the components and both details of every check
formatted, the item helper that took both details, the normal-bundle
ladder that returned a reason for every component, the five-pass Betti
sum, and the loader that built the path of every node it read. The
loader keeps its own copies of the readers and name tables it shared with
the package, so a fault in one of those cannot pass both routes, and it
takes the one later fix: a header value that is a float or a bool is not
the integer it equals. Both routes must give the same items (id, verdict,
detail), Betti vectors and DataErrors (message and path).
"""

import copy
import json
import random
import re

from hypothesis import example, given, settings

from semifree8.classify import catalog, enumerate_all
from semifree8.dataio import DataError, dumps_data, loads_data
from semifree8.localization import (
    FourDimExtremalNormal,
    FourDimSplitNormal,
    PointNormal,
    SixDimNormal,
    SurfaceNormal,
)
from semifree8.model import (
    CheckItem,
    ComponentType,
    ConstraintReport,
    FixedComponent,
    FixedPointData,
    kirwan_betti,
    omega_coefficients,
    reverse_action,
    validate,
)

from test_dataset_values import oracle_interior, oracle_max, oracle_min
from test_far_end import PLANE_INSIDE
from test_report_digest import random_documents, single_edits
from test_robustness import PLANE_WITH_POINT_NORMAL, documents

# ----------------------------------------------------------------------
# the replaced routes
# ----------------------------------------------------------------------

def pass_fail(check_id, good, detail, fail_detail=None):
    if not good and fail_detail is not None:
        detail = fail_detail
    return CheckItem(check_id, "PASS" if good else "FAIL", detail)


def oracle_betti(data):
    return tuple(kirwan_betti(data, i) for i in (0, 2, 4, 6, 8))


def oracle_normal_matches(comp):
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


def oracle_validate(data):
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

    matches = [(c, oracle_normal_matches(c)) for c in data]
    rep.append(pass_fail(
        "normal-variant", all(good for _, (good, _) in matches),
        "all %d normal bundles well-typed" % len(data),
        "; ".join("%s: %s" % (c.type.value, why) for c, (good, why) in matches if not good)))

    n_min = sum(1 for c in data if c.lam == 0)
    rep.append(pass_fail("unique-minimum", n_min == 1, "one minimum", "%d candidate minima" % n_min))

    bv = oracle_betti(data)
    rep.append(pass_fail("unique-maximum", bv[4] == 1, "b8 = 1", "b8 = %d" % bv[4]))

    lo, hi = oracle_min(data), oracle_max(data)
    if lo is not None and hi is not None and lo is not hi:
        inner = oracle_interior(data)
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


def is_int(value):
    return not isinstance(value, bool) and isinstance(value, int)


def oracle_expect_int(value, path=""):
    if not is_int(value):
        raise DataError("expected an integer, got %r" % (value,), path)
    return value


ORACLE_TYPES = {t.value: t for t in ComponentType}
ORACLE_NORMALS = {"point": PointNormal, "surface": SurfaceNormal,
                  "fourdim_extremal": FourDimExtremalNormal,
                  "fourdim_split": FourDimSplitNormal, "sixdim": SixDimNormal}


def oracle_int_list(value, path, length=None):
    if not isinstance(value, list):
        raise DataError("expected a list, got %r" % (value,), path)
    if length is not None and len(value) != length:
        raise DataError("expected %d entries, got %d" % (length, len(value)), path)
    for i, v in enumerate(value):
        oracle_expect_int(v, "%s[%d]" % (path, i))
    return value


def oracle_summands(value, path):
    if not isinstance(value, list) or len(value) != 3:
        raise DataError("surface normals need exactly 3 summands", path)
    for i, pair in enumerate(value):
        oracle_int_list(pair, "%s[%d]" % (path, i), 2)
    return tuple(tuple(pair) for pair in value)


ORACLE_FIELDS = {"summands": oracle_summands, "c1": oracle_expect_int,
                 "c2": oracle_expect_int, "minus": oracle_int_list, "plus": oracle_int_list}


def oracle_parse_normal(node, path):
    if not isinstance(node, dict):
        raise DataError("expected an object, got %r" % (node,), path)
    kind = node.get("kind")
    if not isinstance(kind, str) or kind not in ORACLE_NORMALS:
        raise DataError("unknown normal kind %r" % (kind,), path + ".kind")
    cls = ORACLE_NORMALS[kind]
    args = [ORACLE_FIELDS[name](node.get(name), "%s.%s" % (path, name)) for name in cls._fields]
    try:
        return cls(*args)
    except ValueError as exc:
        raise DataError(str(exc), path)


def oracle_parse_component(node, path):
    if not isinstance(node, dict):
        raise DataError("expected an object, got %r" % (node,), path)
    tname = node.get("type")
    if not isinstance(tname, str) or tname not in ORACLE_TYPES:
        raise DataError("unknown component type %r (expected one of %s)"
                        % (tname, ", ".join(sorted(ORACLE_TYPES))), path + ".type")
    weights = oracle_int_list(node.get("weights"), path + ".weights", 4)
    normal = oracle_parse_normal(node.get("normal"), path + ".normal")
    try:
        return FixedComponent(ORACLE_TYPES[tname], tuple(weights), normal)
    except ValueError as exc:
        raise DataError(str(exc), path)


def oracle_parse_document(doc):
    if not isinstance(doc, dict):
        raise DataError("top level must be an object", "")
    if not is_int(doc.get("dimension")) or doc.get("dimension") != 8:
        raise DataError("only dimension 8 is supported, got %r"
                        % (doc.get("dimension"),), "dimension")
    if not is_int(doc.get("b2")) or doc.get("b2") != 1:
        raise DataError("only b2 = 1 is supported, got %r"
                        % (doc.get("b2"),), "b2")
    comps = doc.get("components")
    if not isinstance(comps, list) or not comps:
        raise DataError("components must be a non-empty list", "components")
    return FixedPointData(tuple(oracle_parse_component(node, "components[%d]" % i)
                                for i, node in enumerate(comps)))


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------

def items(rep):
    return [(it.id, it.verdict, it.detail) for it in rep]


def check_structure(data):
    """Both routes on the data as given, reversed, and rebuilt from its
    components in reverse order."""
    for d in (data, reverse_action(data), FixedPointData(data.components[::-1])):
        assert d.betti == oracle_betti(d)
        assert items(validate(d)) == items(oracle_validate(d))


def load_both(doc):
    """What both loaders make of the document, which must agree: the data,
    or the DataError's message, path and text."""
    text = json.dumps(doc)
    try:
        want = oracle_parse_document(json.loads(text))
    except DataError as exc:
        want = (exc.args[0], exc.path, str(exc))
    try:
        got = loads_data(text)
    except DataError as exc:
        got = (exc.args[0], exc.path, str(exc))
    assert got == want
    return got


def test_component_constants():
    dims = {"point": 0, "cp1": 1, "cp2": 2, "p1xp1": 2, "cp3": 3}
    for t in ComponentType:
        assert t.complex_dim == dims[t.value] == len(t.betti) - 1
    for data in catalog().values():
        for c in data:
            assert c.complex_dim == dims[c.type.value]
            assert c.lam == sum(1 for w in c.weights if w < 0)
            assert "complex_dim" not in repr(c) and c == FixedComponent(c.type, c.weights, c.normal)


def test_catalog_against_oracle():
    for data in catalog().values():
        check_structure(data)


def test_family_members_against_oracle():
    seen = 0
    for result in enumerate_all(14).values():
        for fam in result.families:
            for n2 in range(fam.n2_min, fam.n2_max + 1):
                check_structure(fam.instantiate(n2))
                seen += 1
    assert seen == 25


def test_edits_and_random_documents_against_oracle():
    docs = [json.loads(dumps_data(data)) for data in catalog().values()]
    docs += [edit for doc in docs for edit in single_edits(doc)]
    docs += list(random_documents(seed=2, count=600))
    failed = set()
    for doc in docs:
        data = load_both(doc)
        check_structure(data)
        failed.update(it.id for it in validate(data).failures)
    assert len(failed) == 10


@settings(max_examples=200, deadline=None)
@given(documents)
@example(PLANE_INSIDE)
@example(PLANE_WITH_POINT_NORMAL)
def test_loadable_documents_against_oracle(doc):
    data = load_both(doc)
    if isinstance(data, FixedPointData):
        check_structure(data)


# values that break a node of a document in every way the loader names
BROKEN = ("x", 1.5, True, None, [], {}, [1, 2, 3, 4, 5], [1, "a", 2, 3], 7, -3,
          {"kind": "zz"}, [[1, 1], [2]], [[1, -1]] * 3, [[0, 1], [0, True], [0, -1]])


def nodes(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from nodes(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from nodes(value, path + (i,))


def test_malformed_documents_against_oracle():
    rng = random.Random(3)
    raised = set()
    for doc in random_documents(seed=4, count=2000):
        for _ in range(rng.randint(1, 2)):
            path = rng.choice(list(nodes(doc))[1:])
            node = doc
            for key in path[:-1]:
                node = node[key]
            if rng.random() < 0.15 and isinstance(node, dict):
                del node[path[-1]]
            else:
                node[path[-1]] = copy.deepcopy(rng.choice(BROKEN))
        got = load_both(doc)
        if not isinstance(got, FixedPointData):
            raised.add(re.sub(r"\[\d+\]", "[]", got[1]))
    assert {"dimension", "b2", "components", "components[]", "components[].type",
            "components[].weights", "components[].weights[]", "components[].normal",
            "components[].normal.kind", "components[].normal.c1", "components[].normal.minus",
            "components[].normal.minus[]", "components[].normal.summands",
            "components[].normal.summands[]", "components[].normal.summands[][]"} <= raised
