"""The package's value types against frozen dataclasses of the same fields.

Every record type is a plain class on `semifree8.record.Record`. The oracle
is the formula a frozen dataclass would give, built here with
`dataclasses.make_dataclass` from the field list stated below: repr text,
hash, equality, `NotImplemented` against another class, no ordering, and
no assignment or deletion of any attribute. `Family.builder` is a field
that neither equality nor repr sees, as `field(compare=False, repr=False)`
stated it.
"""

import copy
import dataclasses
import pickle

import pytest

from semifree8 import classify
from semifree8.classify import (
    EnumerationResult,
    Family,
    FanoClassification,
    FanoFamilyRecord,
    Rejection,
    ShapeAssessment,
    admissible_dim_pairs,
    catalog,
    classify_fano,
    default_fano_table,
    enumerate_case,
    sphere_constraints,
    sphere_index_rules,
    verification_report,
)
from semifree8.dh import DHPiece, DHProfile, dh_profile, positivity_check
from semifree8.localization import (
    FourDimExtremalNormal,
    FourDimSplitNormal,
    PointNormal,
    SixDimNormal,
    SurfaceNormal,
)
from semifree8.model import (
    RULES,
    CheckItem,
    ConstraintReport,
    FixedComponent,
    FixedPointData,
    oriented,
    point_component,
    signature_check,
    validate,
)
from semifree8.record import set_field


def _x8():
    return catalog()["x8-six-points"]


def _table_with(name, **changes):
    out = []
    for r in default_fano_table():
        fields = {f: getattr(r, f) for f in FIELDS[FanoFamilyRecord]}
        if r.name == name:
            fields.update(changes)
        out.append(FanoFamilyRecord(**fields))
    return out


# the fields of each type, in order, as its dataclass declared them
FIELDS = {
    FixedComponent: ("type", "weights", "normal"),
    FixedPointData: ("components",),
    CheckItem: ("id", "verdict", "detail"),
    PointNormal: (),
    SurfaceNormal: ("summands",),
    FourDimExtremalNormal: ("c1", "c2"),
    FourDimSplitNormal: ("minus", "plus"),
    SixDimNormal: ("c1",),
    DHPiece: ("lo", "hi", "poly"),
    DHProfile: ("pieces", "warnings"),
    ShapeAssessment: ("shape", "admissible", "trace"),
    Family: ("key", "shape", "summary", "fixed", "free", "builder", "n2_max"),
    Rejection: ("candidate", "rule_id", "detail"),
    EnumerationResult: ("shape", "b4_max", "families", "rejections"),
    FanoFamilyRecord: ("name", "fano_index", "b4", "c1_fourth", "genus",
                       "finite_automorphisms"),
    FanoClassification: ("survivors", "traces", "table_hash"),
}

# (type, an instance, an unequal instance of the same type or None)
CASES = [
    (FixedComponent, lambda: point_component((1, 1, 1, 1)),
     lambda: point_component((-1, 1, 1, 1))),
    (FixedPointData, lambda: catalog()["q4-two-planes"], lambda: catalog()["q4-interior-quadric"]),
    (CheckItem, lambda: CheckItem("semi-free", "PASS", "4 weights checked"),
     lambda: CheckItem("semi-free", "FAIL", "4 weights checked")),
    (PointNormal, PointNormal, None),
    (SurfaceNormal, lambda: SurfaceNormal(((1, 1), (1, 1), (1, 1))),
     lambda: SurfaceNormal(((3, -1), (2, 1), (2, 1)))),
    (FourDimExtremalNormal, lambda: FourDimExtremalNormal(-1, 4),
     lambda: FourDimExtremalNormal(-1, 5)),
    (FourDimSplitNormal, lambda: FourDimSplitNormal((1, 1), (1, 1)),
     lambda: FourDimSplitNormal((1, 0), (0, 1))),
    (SixDimNormal, lambda: SixDimNormal(1), lambda: SixDimNormal(2)),
    (DHPiece, lambda: dh_profile(_x8()).pieces[0], lambda: dh_profile(_x8()).pieces[1]),
    (DHProfile, lambda: dh_profile(_x8()), lambda: dh_profile(catalog()["w5-surface-and-plane"])),
    (ShapeAssessment, lambda: admissible_dim_pairs()[(0, 4)],
     lambda: admissible_dim_pairs()[(2, 6)]),
    (Family, lambda: enumerate_case((0, 4)).families[0],
     lambda: enumerate_case((0, 4)).families[1]),
    (Rejection, lambda: enumerate_case((4, 4)).rejections[0],
     lambda: enumerate_case((4, 4)).rejections[1]),
    (EnumerationResult, lambda: enumerate_case((0, 6)), lambda: enumerate_case((2, 4))),
    (FanoFamilyRecord, lambda: default_fano_table()[0], lambda: default_fano_table()[1]),
    (FanoClassification, classify_fano, lambda: classify_fano(_table_with("Q4", b4=7))),
]


def oracle_type(cls):
    """A frozen dataclass with cls's name and fields."""
    return dataclasses.make_dataclass(cls.__qualname__, [
        (name, object, dataclasses.field(compare=False, repr=False))
        if (cls, name) == (Family, "builder") else (name, object)
        for name in FIELDS[cls]], frozen=True)


def test_every_record_type_is_covered():
    assert [cls for cls, _, _ in CASES] == list(FIELDS) and len(FIELDS) == 16


@pytest.mark.parametrize("cls, make, make_other", CASES, ids=[c.__name__ for c, _, _ in CASES])
def test_record_semantics(cls, make, make_other):
    oracle = oracle_type(cls)

    def twin(rec):
        return oracle(**{name: getattr(rec, name) for name in FIELDS[cls]})

    rec = make()
    assert type(rec) is cls
    fresh = cls(**{name: getattr(rec, name) for name in FIELDS[cls]})
    assert fresh is not rec

    assert repr(rec) == repr(twin(rec)) == repr(fresh)
    assert repr(rec) == "%s(%s)" % (cls.__qualname__, ", ".join(
        "%s=%r" % (name, getattr(rec, name)) for name in FIELDS[cls] if name != "builder"))
    assert hash(rec) == hash(twin(rec)) == hash(fresh)
    assert rec == fresh and not rec != fresh

    # another class with the same fields, and any other object, is unequal
    assert rec.__eq__(twin(rec)) is NotImplemented
    assert rec.__eq__(object()) is NotImplemented
    assert rec != twin(rec) and not rec == twin(rec)
    # so is the plain tuple of its field values
    values = tuple(getattr(rec, name) for name in FIELDS[cls])
    assert rec.__eq__(values) is NotImplemented
    assert rec != values and not rec == values
    with pytest.raises(TypeError):
        rec < fresh

    if make_other is not None:
        other = make_other()
        assert (rec == other) is (twin(rec) == twin(other)) is False
        assert rec != other

    before = repr(rec)
    for name in FIELDS[cls] + ("lam", "extremes", "unknown"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == before


@pytest.mark.parametrize("cls, make, make_other", CASES, ids=[c.__name__ for c, _, _ in CASES])
def test_copies_and_pickles_are_equal(cls, make, make_other):
    rec = make()
    for copied in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(copied) is cls and copied == rec and repr(copied) == repr(rec)


def test_report_copies_and_pickles_read_the_same():
    report = verification_report(_x8())
    for copied in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert copied.lines() == report.lines()


@pytest.mark.parametrize("name", sorted(catalog()))
def test_a_report_is_the_list_of_its_items(name):
    """A report is the list of every rule's items in the order the rules
    ran, and compares, copies and pickles as that list."""
    data = catalog()[name]
    report, up = verification_report(data), oriented(data)
    assert isinstance(report, list) and type(report) is ConstraintReport
    head = validate(data)
    n = len(head)
    assert report[:n] == head
    assert [it.id for it in report[n:n + 3]] == [
        "betti-vector", "abbv-vanishing", "signature-self-intersection"]
    assert report[n + 2] == signature_check(data)
    assert report[n + 3:-1] == [
        *classify._lambda2_exclusion(data), *classify._bundle_halves(data),
        *sphere_constraints(up), *sphere_index_rules(up), *positivity_check(dh_profile(data))]
    assert report[-1].id == "total-volume"
    assert list(report) == report and len(report) == len(report.lines())
    for copied in (copy.copy(report), pickle.loads(pickle.dumps(report))):
        assert type(copied) is ConstraintReport and copied == report
        assert copied is not report and repr(copied) == repr(report)
    with pytest.raises(TypeError):
        hash(report)
    assert not ConstraintReport() and ConstraintReport().ok


def test_no_applicable_sphere_rule_gives_one_info_item():
    data = catalog()["p4-isolated-min"]
    assert sphere_constraints(oriented(data)) == [CheckItem(
        "sphere-rules", "INFO", "no sphere rule applies to this configuration")]
    assert [it for it in verification_report(data) if it.id.startswith("sphere")] == [
        CheckItem("sphere-rules", "INFO", "no sphere rule applies to this configuration")]


def test_family_builder_is_not_compared():
    family = enumerate_case((0, 0)).families[0]
    fields = {name: getattr(family, name) for name in FIELDS[Family]}
    other = Family(**dict(fields, builder=lambda n2: None))
    assert other == family and hash(other) == hash(family) and repr(other) == repr(family)
    assert Family(**dict(fields, n2_max=1)) != family


def test_keyword_defaults():
    assert FanoFamilyRecord("P4", 5, 1, 625) == FanoFamilyRecord(
        "P4", 5, 1, 625, genus=0, finite_automorphisms=False)
    assert CheckItem("semi-free", "PASS").detail == ""
    family = enumerate_case((0, 0)).families[0]
    assert family.n2_max == 0 and family.n2_min == 0
    assert Family(*[getattr(family, n) for n in FIELDS[Family][:-1]]) == family


# (a record, the values its __init__ derives from its fields)
DERIVED = [
    (lambda: point_component((-1, -1, 1, 1)), ("lam", "level", "complex_dim")),
    (lambda: SurfaceNormal(((3, -1), (2, 1), (2, 1))), ("first_chern", "chern", "fingerprint")),
    (lambda: FourDimExtremalNormal(-1, 4), ("first_chern", "chern", "ruled_k2",
                                            "fingerprint")),
    (lambda: FourDimSplitNormal((1, 0), (0, 1)), ("first_chern", "chern", "c2", "fingerprint")),
    (lambda: SixDimNormal(1), ("first_chern", "chern", "fingerprint")),
    (lambda: catalog()["q4-two-planes"], ("extremes", "interior", "betti")),
    (lambda: enumerate_case((4, 4)).rejections[0], ("rule",)),
]


def test_precomputed_component_values_are_not_fields():
    comp = point_component((-1, -1, 1, 1))
    assert (comp.lam, comp.level) == (2, 0)
    assert "lam" not in repr(comp) and hash(comp) == hash((comp.type, comp.weights,
                                                           comp.normal))
    for make, names in DERIVED:
        rec = make()
        cls = type(rec)
        fields = {name: getattr(rec, name) for name in FIELDS[cls]}
        fresh = cls(**fields)
        # set when built, before anything reads them
        assert set(names) <= set(vars(fresh)) - set(FIELDS[cls])
        # a twin whose derived values are all replaced is still the same record
        twin = cls(**fields)
        for name in names:
            set_field(twin, name, object())
            with pytest.raises(AttributeError):
                setattr(fresh, name, None)
            assert "%s=" % name not in repr(fresh)
        assert twin == fresh == rec and hash(twin) == hash(fresh) == hash(rec)
        assert hash(fresh) == hash(tuple(fields.values()))
        assert repr(twin) == repr(fresh) == repr(rec)
    # a check item's statement is read from the registry when it is built
    # and held in no instance dict: the item is one allocation
    item = CheckItem("semi-free", "PASS")
    assert item.rule == RULES[item.id] and "rule=" not in repr(item)
    with pytest.raises(AttributeError):
        item.rule = None
    with pytest.raises(AttributeError):
        del item.rule
    assert not hasattr(item, "__dict__")


# the types whose fields Record's own constructor binds (Rejection and
# DHProfile then derive one value from them)
SHARED = [DHPiece, DHProfile, ShapeAssessment, Family, Rejection, EnumerationResult,
          FanoFamilyRecord, FanoClassification]


@pytest.mark.parametrize("cls", SHARED, ids=[c.__name__ for c in SHARED])
def test_shared_constructor_binds_or_refuses(cls):
    rec = {c: make for c, make, _ in CASES}[cls]()
    names = FIELDS[cls]
    values = [getattr(rec, name) for name in names]
    assert cls(*values) == rec == cls(values[0], **dict(zip(names[1:], values[1:])))
    required = [name for name in names if name not in ("n2_max", "genus", "finite_automorphisms")]
    with pytest.raises(TypeError, match="missing the field %r" % required[-1]):
        cls(*values[:len(required) - 1])
    with pytest.raises(TypeError, match="missing the field %r" % names[0]):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match="takes %d fields but %d were given"
                       % (len(names), len(names) + 1)):
        cls(*values, None)
    with pytest.raises(TypeError, match="unknown field 'unknown'"):
        cls(*values, unknown=None)
    with pytest.raises(TypeError, match="multiple values for field %r" % names[0]):
        cls(*values, **{names[0]: values[0]})


def test_fano_record_optional_fields_take_their_defaults():
    rec = FanoFamilyRecord("Q1Q2", 3, 8, 324, genus=5, finite_automorphisms=True)
    for name, default in (("genus", 0), ("finite_automorphisms", False)):
        fields = {f: getattr(rec, f) for f in FIELDS[FanoFamilyRecord] if f != name}
        assert getattr(FanoFamilyRecord(**fields), name) == default
        assert FanoFamilyRecord(**fields) == FanoFamilyRecord(**dict(fields, **{name: default}))
