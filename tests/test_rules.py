"""The rule registry: every emitted check id has its one statement there,
every registered statement is emitted somewhere, unknown ids raise."""

import pytest

from semifree8.classify import (
    Rejection,
    admissible_dim_pairs,
    catalog,
    classify_fano,
    enumerate_all,
    verification_report,
)
from semifree8.dh import b4_bound_check
from semifree8.localization import PointNormal
from semifree8.model import (
    RULES,
    CheckItem,
    ComponentType,
    FixedComponent,
    FixedPointData,
    pass_fail,
    point_component,
)


def _emitted():
    """(id, statement) of every item the package emits on its own data."""
    items = []
    for data in catalog().values():
        items.extend(verification_report(data))
    # a plane carrying point normal data fails normal-variant, so the
    # rules that read typed normal data are reported as not applied
    items.extend(verification_report(FixedPointData((
        FixedComponent(ComponentType.CP2, (0, 0, 1, 1), PointNormal()),
        point_component((-1, -1, -1, -1))))))
    rejections = []
    for result in enumerate_all(14).values():
        rejections.extend(result.rejections)
        for family in result.families:
            for n2 in range(family.n2_min, family.n2_max + 1):
                items.extend(verification_report(family.instantiate(n2)))
    for assessment in admissible_dim_pairs().values():
        items.extend(assessment.trace)
    for _, trace in classify_fano().traces:
        items.extend(trace)
    for b4, shape, split in ((7, (0, 4), None), (8, (0, 4), None), (14, (4, 4), None),
                             (14, (4, 4), (7, 7)), (3, (2, 4), None)):
        items.append(b4_bound_check(b4, shape, split))
    return ({(it.id, it.rule) for it in items}
            | {(rej.rule_id, rej.rule) for rej in rejections})


def test_registry_is_exactly_what_is_emitted():
    pairs = _emitted()
    assert {check_id for check_id, _ in pairs} == set(RULES)
    assert all(RULES[check_id] == rule for check_id, rule in pairs)


def test_statements_are_distinct():
    assert len(set(RULES.values())) == len(RULES)


def test_unknown_id_raises():
    with pytest.raises(ValueError, match="unknown check id"):
        CheckItem("no-such-rule", "PASS")
    with pytest.raises(ValueError, match="unknown check id"):
        pass_fail("no-such-rule", True, "")
    with pytest.raises(ValueError, match="unknown check id"):
        Rejection("candidate", "no-such-rule", "detail")


def test_rule_is_read_from_the_registry():
    item = CheckItem("abbv-vanishing", "PASS", "")
    assert item.rule == RULES["abbv-vanishing"]
    assert item.line() == "PASS abbv-vanishing: " + RULES["abbv-vanishing"]
