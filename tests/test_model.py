"""Structural validation, Betti numbers, reversal, FP equivalence."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from semifree8.classify import catalog
from semifree8.localization import (
    FourDimExtremalNormal,
    FourDimSplitNormal,
    PointNormal,
    SixDimNormal,
    SurfaceNormal,
)
from semifree8.model import (
    ComponentType,
    FixedComponent,
    FixedPointData,
    betti_vector,
    cp2_extremal,
    cp3_extremal,
    dim_pair,
    fourdim_interior,
    fp_equivalent,
    kirwan_betti,
    point_component,
    reverse_action,
    surface_component,
    validate,
)


def _verdict(report, check_id):
    hits = [it.verdict for it in report if it.id == check_id]
    assert hits, "no check with id %s in %s" % (check_id, [it.id for it in report])
    return hits[0]


def test_catalog_entries_validate():
    for name, data in catalog().items():
        rep = validate(data)
        assert rep.ok, "%s: %s" % (name, [it.line() for it in rep.failures])


def test_betti_vectors_of_catalog():
    expected = {
        "p4-isolated-min": (1, 1, 1, 1, 1),
        "p4-sphere-min": (1, 1, 1, 1, 1),
        "q4-interior-quadric": (1, 1, 2, 1, 1),
        "q4-two-planes": (1, 1, 2, 1, 1),
        "w5-surface-and-plane": (1, 1, 2, 1, 1),
        "x8-six-points": (1, 1, 8, 1, 1),
    }
    for name, data in catalog().items():
        assert betti_vector(data) == expected[name]


def test_semi_free_rejects_weight_two():
    data = FixedPointData((
        FixedComponent(ComponentType.POINT, (2, 1, 1, 1), PointNormal()),
        point_component((-1, -1, -1, -1)),
    ))
    assert _verdict(validate(data), "semi-free") == "FAIL"


def test_weight_zero_count_must_match_dimension():
    data = FixedPointData((
        FixedComponent(ComponentType.CP2, (0, 1, 1, 1), FourDimExtremalNormal(1, 1)),
        cp2_extremal(-1, 1, 1),
    ))
    assert _verdict(validate(data), "weight-zeros") == "FAIL"


def test_normal_variant_mismatch_detected():
    data = FixedPointData((
        FixedComponent(ComponentType.CP2, (0, 0, 1, 1), PointNormal()),
        cp2_extremal(-1, 1, 1),
    ))
    assert _verdict(validate(data), "normal-variant") == "FAIL"


def test_two_minima_rejected():
    data = FixedPointData((
        point_component((1, 1, 1, 1)),
        point_component((1, 1, 1, 1)),
        point_component((-1, -1, -1, -1)),
    ))
    assert _verdict(validate(data), "unique-minimum") == "FAIL"


def test_second_betti_budget_enforced():
    # two Morse-index-2 points give b2 = 2
    data = FixedPointData((
        point_component((1, 1, 1, 1)),
        point_component((-1, 1, 1, 1)),
        point_component((-1, 1, 1, 1)),
        cp2_extremal(-1, -1, 2),
    ))
    assert _verdict(validate(data), "kirwan-b2") == "FAIL"


def test_monotone_positivity_rejects_negative_restriction():
    # maximum with c1 = -4 restricts the symplectic class to -1 < 0
    data = FixedPointData((
        point_component((1, 1, 1, 1)),
        point_component((-1, 1, 1, 1)),
        cp2_extremal(-1, -4, 1),
    ))
    assert _verdict(validate(data), "monotone-positive") == "FAIL"


def test_kirwan_betti_shifts_by_morse_index():
    data = catalog()["x8-six-points"]
    assert kirwan_betti(data, 0) == 1
    assert kirwan_betti(data, 2) == 1
    assert kirwan_betti(data, 4) == 1 + 6 + 1  # both planes plus six points
    assert kirwan_betti(data, 10) == 0


def test_dim_pair_normalizes_orientation():
    data = catalog()["p4-isolated-min"]
    assert dim_pair(data) == ((0, 6), False)
    assert dim_pair(reverse_action(data)) == ((0, 6), True)


def test_reverse_action_is_an_involution():
    for data in catalog().values():
        assert reverse_action(reverse_action(data)) == data


def test_reversal_preserves_betti_and_validation():
    for data in catalog().values():
        rev = reverse_action(data)
        assert betti_vector(rev) == betti_vector(data)
        assert validate(rev).ok


def test_fp_equivalence_ignores_component_order():
    a = FixedPointData((point_component((1, 1, 1, 1)), cp3_extremal(-1, 1)))
    b = FixedPointData((cp3_extremal(-1, 1), point_component((1, 1, 1, 1))))
    assert fp_equivalent(a, b)


def test_fp_equivalence_allows_quadric_factor_swap():
    base = (point_component((1, 1, 1, 1)), point_component((-1, -1, -1, -1)))
    a = FixedPointData(base + (fourdim_interior(ComponentType.P1XP1, (1, 2), (3, 4)),))
    b = FixedPointData(base + (fourdim_interior(ComponentType.P1XP1, (2, 1), (4, 3)),))
    c = FixedPointData(base + (fourdim_interior(ComponentType.P1XP1, (2, 1), (3, 4)),))
    assert fp_equivalent(a, b)
    assert not fp_equivalent(a, c)


def test_fp_equivalence_sees_degree_splits():
    a = FixedPointData((surface_component(((1, 1), (1, 1), (1, 1))),
                        cp2_extremal(-1, 2, 1)))
    b = FixedPointData((surface_component(((0, 1), (1, 1), (2, 1))),
                        cp2_extremal(-1, 2, 1)))
    assert not fp_equivalent(a, b)


@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=3, max_size=3),
       st.integers(min_value=0, max_value=3))
def test_surface_levels_track_weights(degrees, lam):
    signs = [-1] * lam + [1] * (3 - lam)
    comp = surface_component(tuple(zip(degrees, signs)))
    assert comp.level == -sum(signs)
    assert comp.lam == lam
    assert comp.complex_dim == 1


# every public constructor with one integer replaced by a non-integer, which
# must raise rather than be truncated or parsed
NON_INTEGERS = (0.9, 2.7, "3", Fraction(1, 2))
BUILDS = {
    "FixedComponent": lambda x: FixedComponent(ComponentType.POINT, (x, 1, 1, 1), PointNormal()),
    "point_component": lambda x: point_component((x, 1, 1, 1)),
    "surface_component": lambda x: surface_component(((x, -1), (1, 1), (1, 1))),
    "cp2_extremal": lambda x: cp2_extremal(1, x, 3),
    "cp2_extremal-c2": lambda x: cp2_extremal(1, 2, x),
    "cp3_extremal": lambda x: cp3_extremal(1, x),
    "fourdim_interior": lambda x: fourdim_interior(ComponentType.CP2, (x,), (1,)),
    "SurfaceNormal": lambda x: SurfaceNormal(((1, x), (1, 1), (1, 1))),
    "FourDimExtremalNormal": lambda x: FourDimExtremalNormal(-1, x),
    "FourDimSplitNormal": lambda x: FourDimSplitNormal((1,), (x,)),
    "SixDimNormal": lambda x: SixDimNormal(x),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_constructors_take_integers_only(name):
    build = BUILDS[name]
    assert build(1) == build(True)      # bool is an integer; it stays 1
    for value in NON_INTEGERS:
        with pytest.raises(TypeError):
            build(value)


def test_constructors_keep_integer_data():
    assert point_component((0, 1, 1, 1)).weights == (0, 1, 1, 1)
    assert cp2_extremal(1, 2, 3).normal == FourDimExtremalNormal(2, 3)
    assert cp3_extremal(-1, 4).normal.c1 == 4
    comp = surface_component(((2, 1), (0, -1), (1, 1)))
    assert comp.normal.summands == ((0, -1), (1, 1), (2, 1))
    assert comp.weights == (-1, 0, 1, 1)
