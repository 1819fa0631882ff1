"""No loadable document crashes verification.

Random documents with mismatched types, weights and normal kinds either
fail to load with a DataError or yield a report, a fixed point class, a
Fano index or a ClassifyError from `index_from_extremal` (as given and
reversed), and a `verify` exit code of 0, 1 or 2 with nothing on stderr
but one `error:` line. A traceback is never an exit code.
"""

import contextlib
import io
import json
import os
import re
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from semifree8 import cli
from semifree8 import model
from semifree8.classify import (
    ClassifyError,
    _gap_empty,
    catalog,
    index_candidates,
    index_from_extremal,
    match_fp_class,
    sphere_constraints,
    sphere_index_rules,
    verification_report,
)
from semifree8.dataio import DataError, dumps_data, loads_data
from semifree8.dh import total_volume
from semifree8.model import (
    RULES,
    ConstraintReport,
    IllTypedError,
    dim_pair,
    oriented,
    reverse_action,
)

TYPES = ("point", "cp1", "cp2", "p1xp1", "cp3")
FP_CLASSES = {"a", "b", "c", "d", "unclassified"}

small = st.integers(min_value=-3, max_value=3)
weight = st.sampled_from((-1, 0, 1))


def _int_list(min_size, max_size):
    return st.lists(small, min_size=min_size, max_size=max_size)


normals = st.one_of(
    st.just({"kind": "point"}),
    st.fixed_dictionaries({"kind": st.just("surface"),
                           "summands": st.lists(st.tuples(small, weight).map(list),
                                                min_size=3, max_size=3)}),
    st.fixed_dictionaries({"kind": st.just("fourdim_extremal"), "c1": small, "c2": small}),
    st.fixed_dictionaries({"kind": st.just("fourdim_split"),
                           "minus": _int_list(1, 2), "plus": _int_list(1, 2)}),
    st.fixed_dictionaries({"kind": st.just("sixdim"), "c1": small}),
)

components = st.fixed_dictionaries({
    "type": st.sampled_from(TYPES),
    "weights": st.lists(weight, min_size=4, max_size=4),
    "normal": normals,
})

documents = st.fixed_dictionaries({
    "dimension": st.just(8),
    "b2": st.just(1),
    "components": st.lists(components, min_size=1, max_size=5),
})

# a plane carrying point normal data: once a traceback with exit code 1
PLANE_WITH_POINT_NORMAL = {"dimension": 8, "b2": 1, "components": [
    {"type": "cp2", "weights": [0, 0, 1, 1], "normal": {"kind": "point"}},
    {"type": "point", "weights": [-1, -1, -1, -1], "normal": {"kind": "point"}},
]}


def _verify(text):
    """Exit code, stdout and stderr of `semifree8 verify` on the text."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", path])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(documents)
@example(PLANE_WITH_POINT_NORMAL)
def test_loadable_documents_never_crash(doc):
    text = json.dumps(doc)
    try:
        data = loads_data(text)
    except DataError:
        return
    assert isinstance(verification_report(data), ConstraintReport)
    assert match_fp_class(data) in FP_CLASSES
    for d in (data, reverse_action(data)):
        try:
            assert type(index_from_extremal(d)) is int
        except ClassifyError:
            pass
    code, _, err = _verify(text)
    assert code in (0, 1, 2)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)


def test_plane_with_point_normal_exits_1():
    code, out, err = _verify(json.dumps(PLANE_WITH_POINT_NORMAL))
    assert (code, err) == (1, "")
    assert "FAIL normal-variant" in out
    assert ("INFO typed-rules: %s (not applied: normal-variant failed)"
            % RULES["typed-rules"]) in out
    assert "abbv-vanishing" not in out


def test_plane_with_point_normal_has_no_fano_index():
    # the plane's Chern data gives no coefficient to read the index off, and
    # the structural gate refuses the data, as given and reversed, by the
    # check it fails before any index is read
    data = loads_data(json.dumps(PLANE_WITH_POINT_NORMAL))
    for d in (data, reverse_action(data)):
        with pytest.raises(IllTypedError,
                           match="^fano-index not applied: normal-variant failed$"):
            index_from_extremal(d)


def test_sphere_rules_on_data_without_oriented_extremes():
    # a plane typed component with four nonzero weights: as given the plane
    # is the unique minimum, reversed nothing is a unique maximum; the sphere
    # and index rules read normal data, so they refuse it by the check it fails
    data = loads_data(json.dumps({"dimension": 8, "b2": 1, "components": [
        {"type": "cp2", "weights": [1, 1, 1, 1],
         "normal": {"kind": "fourdim_extremal", "c1": -1, "c2": 4}},
        {"type": "point", "weights": [-1, -1, -1, -1], "normal": {"kind": "point"}},
    ]}))
    with pytest.raises(ClassifyError, match="^sphere rules not applied: weight-zeros failed$"):
        sphere_constraints(data)
    with pytest.raises(IllTypedError, match="^index rules not applied: weight-zeros failed$"):
        sphere_index_rules(data)
    assert match_fp_class(data) == "unclassified"
    assert verification_report(data).items[-1].id == "typed-rules"
    # well typed, with two minima: no orientation, so no sphere rule applies
    two_minima = loads_data(json.dumps({"dimension": 8, "b2": 1, "components": [
        {"type": "point", "weights": [1, 1, 1, 1], "normal": {"kind": "point"}},
        {"type": "point", "weights": [1, 1, 1, 1], "normal": {"kind": "point"}},
        {"type": "point", "weights": [-1, -1, -1, -1], "normal": {"kind": "point"}},
    ]}))
    assert two_minima.well_typed and oriented(two_minima) is None
    assert sphere_constraints(two_minima).items == []
    assert sphere_index_rules(two_minima).items == []


# as given, a plane is the unique minimum under a sphere maximum, shape
# (2,4); reversed, a six-dimensional minimum sits under a plane maximum,
# shape (4,6): the reversal is upside down too, which only data whose types
# contradict their weights can be
UPSIDE_DOWN_BOTH_WAYS = {"dimension": 8, "b2": 1, "components": [
    {"type": "cp2", "weights": [0, 0, 0, 1],
     "normal": {"kind": "fourdim_extremal", "c1": 0, "c2": 0}},
    {"type": "cp3", "weights": [-1, -1, 0, 0], "normal": {"kind": "sixdim", "c1": 1}},
    {"type": "cp2", "weights": [-1, 0, 1, 1],
     "normal": {"kind": "fourdim_extremal", "c1": 0, "c2": 0}},
    {"type": "cp1", "weights": [-1, -1, -1, 1],
     "normal": {"kind": "surface", "summands": [[0, -1], [0, -1], [0, 1]]}},
]}


def test_data_whose_reversal_is_upside_down_too(monkeypatch):
    data = loads_data(json.dumps(UPSIDE_DOWN_BOTH_WAYS))
    rev = reverse_action(data)
    assert (dim_pair(data), dim_pair(rev)) == (((2, 4), True), ((4, 6), True))
    # oriented reverses once and returns the reversal as it is, upside down
    reversals = []
    monkeypatch.setattr(model, "reverse_action",
                        lambda d: reversals.append(d) or reverse_action(d))
    assert oriented(data) == rev and oriented(rev) == data
    assert reversals == [data, rev]
    monkeypatch.undo()
    for d in (data, rev):
        assert not verification_report(d).ok
        why = re.escape(" not applied: %s failed" % ", ".join(d.structural_failures))
        with pytest.raises(IllTypedError, match="^index rules%s$" % why):
            sphere_index_rules(d)
        with pytest.raises(IllTypedError, match="^fano-index%s$" % why):
            index_candidates(d)
        assert total_volume(d) is None
        assert match_fp_class(d) == "unclassified"
    for doc in (UPSIDE_DOWN_BOTH_WAYS, json.loads(dumps_data(rev))):
        code, out, err = _verify(json.dumps(doc))
        assert (code, err) == (1, "") and "INFO typed-rules" in out


def test_mismatched_component_is_flagged_once():
    # a plane carrying line-bundle data with c1 = -5 would read as a
    # nonpositive symplectic restriction; normal-variant flags it, and
    # monotone-positive skips it
    data = loads_data(json.dumps({"dimension": 8, "b2": 1, "components": [
        {"type": "cp2", "weights": [0, 0, 1, 1], "normal": {"kind": "sixdim", "c1": -5}},
        {"type": "point", "weights": [-1, -1, -1, -1], "normal": {"kind": "point"}},
    ]}))
    verdicts = {it.id: it.verdict for it in verification_report(data)}
    assert verdicts["normal-variant"] == "FAIL"
    assert verdicts["monotone-positive"] == "PASS"


def test_quadric_with_plane_data_is_not_the_x8_family():
    doc = json.loads(dumps_data(catalog()["x8-six-points"]))
    doc["components"][0]["type"] = "p1xp1"
    assert match_fp_class(loads_data(json.dumps(doc))) == "unclassified"


@settings(max_examples=200, deadline=None)
@given(documents)
def test_gap_test_equals_the_scan_over_components(doc):
    try:
        data = loads_data(json.dumps(doc))
    except DataError:
        return
    levels = sorted({c.level for c in data})
    probes = {0} | {v + d for v in levels for d in (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1)}
    for a in probes:
        for b in probes:
            assert _gap_empty(levels, a, b) == (not any(a < c.level < b for c in data))


def test_many_interior_spheres_verify_in_linear_time():
    # an isolated minimum, 20,000 Morse-index-2 spheres on one level and a
    # plane maximum: each sphere asks whether a level lies below it, and a
    # scan over the components for each sphere made this quadratic
    sphere = {"type": "cp1", "weights": [0, -1, 1, 1],
              "normal": {"kind": "surface", "summands": [[0, -1], [1, 1], [1, 1]]}}
    data = loads_data(json.dumps({"dimension": 8, "b2": 1, "components": [
        {"type": "point", "weights": [1, 1, 1, 1], "normal": {"kind": "point"}},
        *[sphere] * 20000,
        {"type": "cp2", "weights": [0, 0, -1, -1],
         "normal": {"kind": "fourdim_extremal", "c1": 3, "c2": 3}},
    ]}))
    start = time.perf_counter()
    rep = verification_report(data)
    assert time.perf_counter() - start < 10
    assert sum(it.id == "surface-degree-relation" for it in rep) == 20000
