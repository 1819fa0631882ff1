"""Case analysis: rules, per-shape enumeration, catalog, Fano filter."""

import hashlib
import json

import pytest

from semifree8 import enumeration
from semifree8.classify import (
    _FAMILIES,
    ADMISSIBLE_SHAPES,
    ClassifyError,
    Family,
    FanoFamilyRecord,
    admissible_dim_pairs,
    catalog,
    classify_fano,
    default_fano_table,
    enumerate_all,
    enumerate_case,
    fano_table_hash,
    index_candidates,
    index_from_extremal,
    match_fp_class,
    sphere_constraints,
    sphere_index_rules,
    verification_report,
)
from semifree8.dataio import dumps_data
from semifree8.fano import _INDEX_WITNESS
from semifree8.model import (
    RULES,
    ComponentType,
    FixedPointData,
    cp2_extremal,
    cp3_extremal,
    fourdim_interior,
    fp_equivalent,
    point_component,
    reverse_action,
    surface_component,
)


def _family(shape, key):
    hits = [f for f in enumerate_case(shape).families if f.key == key]
    assert len(hits) == 1, "no unique family %s in shape %s" % (key, shape)
    return hits[0]


def _rule_ids(result):
    return {r.rule_id for r in result.rejections}


# ----------------------------------------------------------------------
# shape admissibility
# ----------------------------------------------------------------------

def test_admissible_shapes():
    table = admissible_dim_pairs()
    admissible = tuple(sorted(s for s, a in table.items() if a.admissible))
    assert admissible == ADMISSIBLE_SHAPES


def test_rejected_shapes_carry_budget_traces():
    table = admissible_dim_pairs()
    for shape in ((2, 6), (4, 6), (6, 6)):
        ids = {it.id for it in table[shape].trace if it.verdict == "FAIL"}
        assert ids == {"betti-budget-b2"}
    for shape in ((0, 2), (2, 2)):
        ids = {it.id for it in table[shape].trace if it.verdict == "FAIL"}
        assert ids == {"betti-budget-b6"}


def test_enumerate_rejects_inadmissible_shape():
    with pytest.raises(ClassifyError, match="not admissible"):
        enumerate_case((2, 6))
    with pytest.raises(ClassifyError):
        enumerate_case((3, 4))


def test_enumerate_refuses_non_integers():
    for shape, b4_max in (((0.9, 4.2), 14), (("0", 4), 14), ((0, 4), 14.5)):
        with pytest.raises(TypeError):
            enumerate_case(shape, b4_max)


# ----------------------------------------------------------------------
# per-shape enumeration
# ----------------------------------------------------------------------

def test_shape_00_unique_family():
    result = enumerate_case((0, 0))
    assert [f.key for f in result.families] == ["0,0"]
    fam = result.families[0]
    assert (fam.iota, fam.b4_base, fam.n2_max) == (4, 2, 0)
    assert {"interior-bundle-halves", "signature-self-intersection",
            "b4-positive", "lambda2-needs-4dim-extremal"} <= _rule_ids(result)
    assert verification_report(fam.instantiate()).ok


def test_bundle_halves_checks_every_interior_fourdim_component():
    # two interior quadric surfaces between isolated extremes; the bad one
    # sorts after the good one, so a check of the first alone passes
    good = fourdim_interior(ComponentType.P1XP1, (1, 1), (1, 1))
    bad = fourdim_interior(ComponentType.P1XP1, (1, 2), (1, 1))
    data = FixedPointData((point_component((1, 1, 1, 1)), good, bad,
                           point_component((-1, -1, -1, -1))))
    assert data.shape == (0, 0) and data.fourdim == (good, bad)
    want = ("FAIL interior-bundle-halves: %s (tangent class (2, 2) halves to (1, 1), "
            "bundles (1, 2) and (1, 1))" % RULES["interior-bundle-halves"])
    lines = verification_report(data).lines()
    assert [line for line in lines if "interior-bundle-halves" in line] == [want]
    # all good: the PASS detail is the first component's
    other = fourdim_interior(ComponentType.P1XP1, (1, 1), (1, 1))
    both = FixedPointData((point_component((1, 1, 1, 1)), good, other,
                           point_component((-1, -1, -1, -1))))
    assert [line for line in verification_report(both).lines()
            if "interior-bundle-halves" in line] == [
        "PASS interior-bundle-halves: %s (tangent class (2, 2) halves to (1, 1), "
        "bundles (1, 1) and (1, 1))" % RULES["interior-bundle-halves"]]


def test_shape_06_unique_family():
    result = enumerate_case((0, 6))
    assert [f.key for f in result.families] == ["0,6"]
    fam = result.families[0]
    assert (fam.iota, fam.b4_base, fam.n2_max) == (5, 1, 0)
    # the exclusion rule is load-bearing here: it kills the m = 2 branch
    t31 = [r for r in result.rejections
           if r.rule_id == "lambda2-needs-4dim-extremal"]
    assert t31 and "m = 2" in t31[0].detail


def test_shape_24_unique_family():
    result = enumerate_case((2, 4))
    assert [f.key for f in result.families] == ["2,4"]
    fam = result.families[0]
    assert (fam.iota, fam.b4_base) == (5, 1)
    assert dict(fam.fixed) == {"max c1": 2, "max c2": 1, "min degree sum": 3}
    assert {"index-consistency", "sphere-area-max"} <= _rule_ids(result)
    data = fam.instantiate(degrees=(0, 1, 2))
    assert verification_report(data).ok


def test_shape_04_two_families():
    result = enumerate_case((0, 4))
    keys = {f.key for f in result.families}
    assert keys == {"0,4/no-surface", "0,4/with-surface"}
    ns = _family((0, 4), "0,4/no-surface")
    assert (ns.iota, ns.b4_base, ns.n2_min, ns.n2_max) == (2, 1, 0, 6)
    ws = _family((0, 4), "0,4/with-surface")
    assert (ws.iota, ws.b4_base, ws.n2_max) == (3, 2, 0)
    assert dict(ws.fixed) == {"max c1": 0, "max c2": 2, "surface a1": 3}
    assert {"index-cap-point", "dh-k-bound", "index-parity-surface",
            "surface-degree-relation"} <= _rule_ids(result)


def test_shape_44_two_families():
    result = enumerate_case((4, 4))
    neg = _family((4, 4), "4,4/negative")
    pos = _family((4, 4), "4,4/positive")
    assert (neg.iota, neg.b4_base, neg.n2_min, neg.n2_max) == (2, 2, 0, 12)
    assert (pos.iota, pos.b4_base, pos.n2_max) == (4, 2, 0)
    assert {"abbv-vanishing", "index-consistency", "sphere-area-max"} \
        <= _rule_ids(result)
    assert verification_report(neg.instantiate(12)).ok
    assert verification_report(pos.instantiate(split=(0, 2))).ok


def test_family_instantiation_guards():
    neg = _family((4, 4), "4,4/negative")
    with pytest.raises(ClassifyError):
        neg.instantiate(13)
    with pytest.raises(ClassifyError):
        neg.instantiate(4, split=(1, 1))
    # the split must have two parts, not just the right sum
    with pytest.raises(ClassifyError):
        neg.instantiate(6, split=(8,))
    with pytest.raises(ClassifyError):
        neg.instantiate(6, split=(3, 3, 2))
    with pytest.raises(ClassifyError):
        _family((4, 4), "4,4/positive").instantiate(split=(2,))
    f24 = _family((2, 4), "2,4")
    with pytest.raises(ClassifyError):
        f24.instantiate(degrees=(1, 1, 2))


@pytest.mark.parametrize("key, choices, message", [
    ("0,4/with-surface", {"tail": (1, 2)}, "positive-weight degrees must sum to 4"),
    ("0,4/with-surface", {"tail": (2, 1, 1)}, "positive-weight degrees must sum to 4"),
    ("2,4", {"degrees": (1, 2)}, "minimum degrees must be three integers summing to 3"),
    ("4,4/positive", {"split": (0, 1)}, "c2 split must be two integers summing to b4 = 2"),
    ("0,4/no-surface", {"tail": (2, 2)}, "no free choices in this family"),
    ("0,0", {"split": (1, 1)}, "this family has no free parameters"),
    ("0,6", {"degrees": (1, 1, 1)}, "this family has no free parameters"),
])
def test_each_builder_refuses_malformed_choices(key, choices, message):
    # a choice of the wrong length or sum, or any choice where a family has
    # none, is refused by name; none is cut or padded into a member
    with pytest.raises(ClassifyError, match="^%s$" % message):
        _FAMILIES[key].instantiate(**choices)


def test_b4_cutoff_respected_even_with_roomy_box():
    for shape, result in enumerate_all(b4_max=30).items():
        for fam in result.families:
            assert fam.b4_base + fam.n2_max <= 14, (shape, fam.key)


def test_family_literals_match_their_members():
    # each family's index and b4, read off its member at n2_min, hold for
    # every member the b4 <= 14 sweep certifies: the index is constant in
    # n2 and b4 grows by one per Morse-index-4 point; the shape literal is
    # each member's shape. Neither derived fact is stored on the record
    members = 0
    for result in enumerate_all(14).values():
        for f in result.families:
            assert not {"iota", "b4_base"} & set(vars(f)), f.key
            for n2 in range(f.n2_min, f.n2_max + 1):
                member = f.instantiate(n2)
                assert index_from_extremal(member) == f.iota, (f.key, n2)
                assert member.betti[2] == f.b4(n2) == f.b4_base + n2, (f.key, n2)
                assert member.shape == f.shape, (f.key, n2)
                members += 1
    assert members == 25


# ----------------------------------------------------------------------
# rules on concrete data
# ----------------------------------------------------------------------

def test_index_from_extremal_on_catalog():
    expected = {
        "p4-isolated-min": 5,
        "p4-sphere-min": 5,
        "q4-interior-quadric": 4,
        "q4-two-planes": 4,
        "w5-surface-and-plane": 3,
        "x8-six-points": 2,
    }
    for name, data in catalog().items():
        assert index_from_extremal(data) == expected[name]


@pytest.mark.parametrize("name", ["p4-sphere-min", "q4-two-planes", "x8-six-points"])
def test_fano_index_info_names_the_minimum_where_both_extremes_agree(name):
    # both extremes read the index; the INFO item names the first
    # candidate, the minimum
    data = catalog()[name]
    assert [source for source, _ in index_candidates(data)] == ["minimum", "maximum"]
    assert [it.detail for it in sphere_index_rules(data) if it.id == "fano-index"] == [
        "index %d from the minimum" % index_from_extremal(data)]


def test_index_rule_error_cases():
    # no rule: isolated extremes, two interior 4-dim components
    quad = fourdim_interior(ComponentType.P1XP1, (1, 1), (1, 1))
    plane = fourdim_interior(ComponentType.CP2, (1,), (2,))
    data = FixedPointData((point_component((1, 1, 1, 1)), quad, plane,
                           point_component((-1, -1, -1, -1))))
    with pytest.raises(ClassifyError, match="no Fano-index rule"):
        index_from_extremal(data)
    # inconsistent extremes: sphere says 2, plane says 5
    data = FixedPointData((
        surface_component(((0, 1), (0, 1), (0, 1))),
        cp2_extremal(-1, 2, 1),
    ))
    with pytest.raises(ClassifyError, match="disagree"):
        index_from_extremal(data)


def test_sphere_rules_fire_on_x8():
    rep = sphere_constraints(catalog()["x8-six-points"])
    ids = {it.id for it in rep}
    assert {"sphere-area-max", "sphere-area-min", "sphere-span-min"} <= ids
    assert rep.ok


def test_sphere_rule_rejects_bad_area():
    # area 2 not realizable when the maximum restricts to 3 * generator
    data = FixedPointData((
        cp2_extremal(1, -1, 4),
        *[point_component((-1, -1, 1, 1)) for _ in range(6)],
        cp2_extremal(-1, 0, 4),
    ))
    rep = sphere_constraints(data)
    assert any(it.id == "sphere-area-max" and it.verdict == "FAIL" for it in rep)


def test_surface_relation_detects_wrong_degrees():
    data = FixedPointData((
        point_component((1, 1, 1, 1)),
        surface_component(((2, -1), (2, 1), (2, 1))),
        cp2_extremal(-1, 0, 2),
    ))
    rep = sphere_constraints(data)
    assert any(it.id == "surface-degree-relation" and it.verdict == "FAIL"
               for it in rep)


def test_index_parity_rule_on_w5():
    rep = sphere_index_rules(catalog()["w5-surface-and-plane"])
    assert any(it.id == "index-parity-surface" and it.verdict == "PASS"
               for it in rep)


def test_index_cap_rule_rejects_positive_c1():
    data = FixedPointData((
        point_component((1, 1, 1, 1)),
        point_component((-1, 1, 1, 1)),
        cp2_extremal(-1, 1, 1),
    ))
    rep = sphere_index_rules(data)
    assert any(it.id == "index-cap-point" and it.verdict == "FAIL" for it in rep)


# ----------------------------------------------------------------------
# catalog and FP matching
# ----------------------------------------------------------------------

# the catalog as literal datasets, and the class of each entry: the oracle
# for the catalog, whose entries are built by the enumerated families
def _catalog_oracle():
    return {
        "p4-isolated-min": FixedPointData((
            point_component((1, 1, 1, 1)),
            cp3_extremal(-1, 1),
        )),
        "p4-sphere-min": FixedPointData((
            surface_component(((1, 1), (1, 1), (1, 1))),
            cp2_extremal(-1, 2, 1),
        )),
        "q4-interior-quadric": FixedPointData((
            point_component((1, 1, 1, 1)),
            fourdim_interior(ComponentType.P1XP1, (1, 1), (1, 1)),
            point_component((-1, -1, -1, -1)),
        )),
        "q4-two-planes": FixedPointData((
            cp2_extremal(1, 1, 1),
            cp2_extremal(-1, 1, 1),
        )),
        "w5-surface-and-plane": FixedPointData((
            point_component((1, 1, 1, 1)),
            surface_component(((3, -1), (2, 1), (2, 1))),
            cp2_extremal(-1, 0, 2),
        )),
        "x8-six-points": FixedPointData((
            cp2_extremal(1, -1, 4),
            *[point_component((-1, -1, 1, 1)) for _ in range(6)],
            cp2_extremal(-1, -1, 4),
        )),
    }


_CASE_OF = {
    "p4-isolated-min": "a",
    "p4-sphere-min": "a",
    "q4-interior-quadric": "b",
    "q4-two-planes": "b",
    "w5-surface-and-plane": "c",
    "x8-six-points": "d",
}


def test_catalog_is_the_literal_oracle():
    got, want = catalog(), _catalog_oracle()
    assert list(got) == list(want)
    for name, data in want.items():
        assert dumps_data(got[name]) == dumps_data(data), name
        assert match_fp_class(data) == _CASE_OF[name], name
        assert match_fp_class(reverse_action(data)) == _CASE_OF[name], name


def test_catalog_runs_no_sweep(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the catalog ran the enumeration")
    for name in ("enumerate_case", "_sweep", "_certified", "_interior_skeletons"):
        monkeypatch.setattr(enumeration, name, refuse)
    assert list(catalog()) == list(_CASE_OF)


def test_catalog_verifies_and_matches():
    for name, data in catalog().items():
        assert verification_report(data).ok, name
        assert match_fp_class(data) == _CASE_OF[name]
        assert match_fp_class(reverse_action(data)) == _CASE_OF[name]


def test_catalog_pairwise_inequivalent():
    entries = list(catalog().items())
    for i, (name_a, a) in enumerate(entries):
        for name_b, b in entries[i + 1:]:
            assert not fp_equivalent(a, b), (name_a, name_b)


def test_x8_family_matches_modulo_split():
    fam = _family((4, 4), "4,4/negative")
    assert match_fp_class(fam.instantiate(6, split=(2, 6))) == "d"
    assert match_fp_class(fam.instantiate(5)) == "unclassified"


def test_unknown_data_unclassified():
    fam = _family((0, 4), "0,4/no-surface")
    assert match_fp_class(fam.instantiate(2)) == "unclassified"


# ----------------------------------------------------------------------
# the Fano family table filter
# ----------------------------------------------------------------------

def test_fano_survivors():
    result = classify_fano()
    assert result.survivors == ("P4", "Q4", "W5", "X8m")


def test_fano_rejection_arithmetic():
    traces = dict(classify_fano().traces)

    def volume_detail(name):
        hits = [it.detail for it in traces[name] if it.id == "volume-match"]
        assert len(hits) == 1
        return hits[0]

    assert "352 and 288, target 256" in volume_detail("X9m")
    assert "224 and 160, target 192" in volume_detail("X7m")
    assert "384 and 320, target 288" in volume_detail("V18")
    assert "224 matches the two-plane pattern" in volume_detail("X8m")
    q = [it for it in traces["Q1Q2"] if it.id == "finite-automorphisms"]
    assert q and q[0].verdict == "FAIL"


def test_fano_classification_permutation_stable():
    records = list(default_fano_table())
    shuffled = records[::-1]
    assert classify_fano(shuffled) == classify_fano(records)


def test_fano_table_requires_all_families():
    short = [r for r in default_fano_table() if r.name != "Q4"]
    with pytest.raises(ClassifyError, match="Q4"):
        classify_fano(short)


def test_fano_genus_mismatch_is_flagged_not_fatal():
    records = [r if r.name != "X9m" else
               FanoFamilyRecord("X9m", 2, 4, 250, genus=9)
               for r in default_fano_table()]
    result = classify_fano(records)
    traces = dict(result.traces)
    assert any(it.id == "degree-genus" and it.verdict == "WARN"
               for it in traces["X9m"])
    assert "X9m" not in result.survivors


def test_fano_altered_b4_changes_the_verdict():
    # the volume filter trusts the record: with b4 = 6 the two-plane
    # pattern gives 352 - 96 = 256 and X9m would squeak through
    records = [r if r.name != "X9m" else
               FanoFamilyRecord("X9m", 2, 6, 256, genus=9)
               for r in default_fano_table()]
    assert "X9m" in classify_fano(records).survivors


def test_fano_index_out_of_range_rejected():
    records = list(default_fano_table()) + [FanoFamilyRecord("HYPO", 6, 1, 999)]
    result = classify_fano(records)
    assert "HYPO" not in result.survivors
    traces = dict(result.traces)
    assert any(it.id == "index-range" and it.verdict == "FAIL"
               for it in traces["HYPO"])


def test_index_range_is_the_realized_indices():
    realized = {f.iota for f in _FAMILIES.values()}
    assert realized == {2, 3, 4, 5}
    assert set(_INDEX_WITNESS) == {i for i in realized if i >= 3}
    for index in (1, 6):
        records = list(default_fano_table()) + [FanoFamilyRecord("HYPO", index, 1, 9)]
        assert [it.detail for it in dict(classify_fano(records).traces)["HYPO"]
                if it.id == "index-range"] == ["index %d is outside 2..5" % index]


def test_index_range_follows_the_family_builders(monkeypatch):
    # a family whose builder realizes index 1 (two extremal planes with c1
    # coefficient -2, whose omega is 3 - 2 = 1) brings index 1 into range
    records = list(default_fano_table()) + [FanoFamilyRecord("HYPO", 1, 2, 9)]
    default = classify_fano(records)
    assert [it.detail for it in dict(default.traces)["HYPO"] if it.id == "index-range"] == [
        "index 1 is outside 2..5"]

    def two_planes(n2):
        return FixedPointData((cp2_extremal(1, -2, 1), cp2_extremal(-1, -2, 1)))

    monkeypatch.setitem(_FAMILIES, "index-1", Family(
        key="index-1", shape=(4, 4), summary="two planes", fixed=(), free=(),
        builder=two_planes))
    assert (_FAMILIES["index-1"].iota, _FAMILIES["index-1"].b4_base) == (1, 2)
    widened = classify_fano(records)
    assert widened.survivors == default.survivors + ("HYPO",)
    assert dict(widened.traces)["HYPO"] == ()
    records[-1] = FanoFamilyRecord("HYPO", 6, 2, 9)
    assert [it.detail for it in dict(classify_fano(records).traces)["HYPO"]] == [
        "index 6 is outside 1..5"]


@pytest.mark.parametrize("name, index, b4, pinned", [
    ("W5", 3, 5, 2),
    ("Q4", 4, 7, 2),
    ("P4", 5, 3, 1),
])
def test_index_witness_pins_b4(name, index, b4, pinned):
    # the b4 each witnessing pattern pins for index 3, 4 and 5
    assert not [it for _, items in classify_fano().traces for it in items
                if it.verdict == "WARN"]
    records = [FanoFamilyRecord(r.name, r.fano_index, b4, r.c1_fourth, r.genus,
                                r.finite_automorphisms) if r.name == name else r
               for r in default_fano_table()]
    assert [r.fano_index for r in records if r.name == name] == [index]
    result = classify_fano(records)
    warns = [it.detail for it in dict(result.traces)[name]
             if it.id == "index-range" and it.verdict == "WARN"]
    assert warns == ["that pattern pins b4 = %d, record has b4 = %d" % (pinned, b4)]
    assert name in result.survivors


def test_table_hash_is_frozen():
    assert fano_table_hash() == (
        "e661168bf4295831e5840503b59fd277c2f12b7eb5b1cb4e6bbf198548433f66")


def test_table_hash_matches_hashlib():
    # the built-in sha256 gives hashlib's digest of the canonical blob, for
    # the default table and for a reordered table with one record edited
    table = default_fano_table()
    edited = [FanoFamilyRecord(r.name, r.fano_index, r.b4 + 1, r.c1_fourth, r.genus,
                               r.finite_automorphisms) if r.name == "W5" else r
              for r in reversed(table)]
    digests = []
    for records in (table, edited):
        doc = sorted(({name: getattr(r, name) for name in r._fields} for r in records),
                     key=lambda row: row["name"])
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        digests.append(hashlib.sha256(blob).hexdigest())
        assert fano_table_hash(records) == digests[-1]
    assert fano_table_hash() == digests[0] != digests[1]
