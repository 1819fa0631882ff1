"""Closed-form localization contributions against the series oracle.

Every closed form is swept against an independent computation: invert the
equivariant Euler class as an exact Laurent series over the component's
cohomology ring, extract the degree minus-four coefficient, integrate.
The closed forms return ints and the oracle Fractions, which compare
exactly.
"""

from itertools import product

import pytest

from semifree8.classify import catalog, enumerate_all
from semifree8.localization import (
    FourDimExtremalNormal,
    FourDimSplitNormal,
    PointNormal,
    SixDimNormal,
    SurfaceNormal,
    abbv_sum,
    abbv_terms,
    contribution,
    contribution_series_oracle,
)
from semifree8.model import FixedComponent, FixedPointData, IllTypedError


def _point_weights(lam):
    return tuple([-1] * lam + [1] * (4 - lam))


def test_isolated_points_all_morse_indices():
    for lam in range(5):
        w = _point_weights(lam)
        got = contribution(w, PointNormal())
        assert got == (-1) ** lam
        assert got == contribution_series_oracle(w, PointNormal())


def test_surfaces_sweep():
    for lam in range(4):
        signs = [-1] * lam + [1] * (3 - lam)
        for degrees in product(range(-5, 6), repeat=3):
            summands = tuple(zip(degrees, signs))
            normal = SurfaceNormal(summands)
            weights = (0,) + tuple(signs)
            got = contribution(weights, normal)
            neg = sum(d for d, w in normal.summands if w < 0)
            pos = sum(d for d, w in normal.summands if w > 0)
            assert got == -((-1) ** lam) * (pos - neg)
            assert got == contribution_series_oracle(weights, normal)


def test_fourdim_extremal_sweep_and_sign_invariance():
    for c1 in range(-5, 6):
        for c2 in range(-5, 6):
            normal = FourDimExtremalNormal(c1, c2)
            lo = contribution((0, 0, 1, 1), normal)
            hi = contribution((0, 0, -1, -1), normal)
            assert lo == hi == c1 * c1 - c2
            assert lo == contribution_series_oracle((0, 0, 1, 1), normal)
            assert hi == contribution_series_oracle((0, 0, -1, -1), normal)


def test_fourdim_extremal_sign_invariance_wide():
    for c1 in range(-10, 11):
        for c2 in range(-10, 11):
            normal = FourDimExtremalNormal(c1, c2)
            assert (contribution((0, 0, 1, 1), normal)
                    == contribution((0, 0, -1, -1), normal))


def test_fourdim_split_spot_checks():
    cases = [
        ("cp2", (1,), (1,)),
        ("cp2", (-2,), (3,)),
        ("p1xp1", (1, 1), (1, 1)),
        ("p1xp1", (0, 2), (-1, 3)),
        ("p1xp1", (2, -1), (1, 0)),
    ]
    for kind, minus, plus in cases:
        normal = FourDimSplitNormal(minus, plus)
        weights = (0, 0, -1, 1)
        got = contribution(weights, normal)
        assert got == contribution_series_oracle(weights, normal)


def test_fourdim_interior_quadric_frozen():
    # u = v = (1,1) on the quadric surface: integral of u^2 - uv + v^2 is 2
    normal = FourDimSplitNormal((1, 1), (1, 1))
    assert contribution((0, 0, -1, 1), normal) == -2


def test_sixdim_sweep():
    for m in range(-3, 4):
        normal = SixDimNormal(m)
        for weights in ((0, 0, 0, 1), (0, 0, 0, -1)):
            got = contribution(weights, normal)
            assert got == -m ** 3
            assert got == contribution_series_oracle(weights, normal)


def test_surface_contribution_reversal_invariant():
    # negating all weights (action reversal) preserves each contribution
    for lam in range(4):
        signs = [-1] * lam + [1] * (3 - lam)
        for degrees in product(range(-4, 5), repeat=3):
            normal = SurfaceNormal(tuple(zip(degrees, signs)))
            flipped = SurfaceNormal(tuple((d, -w) for d, w in normal.summands))
            assert (contribution((0,) + tuple(signs), normal)
                    == contribution((0,) + tuple(-s for s in signs), flipped))


def test_abbv_sum_duck_typing():
    class Comp:
        def __init__(self, weights, normal):
            self.weights = weights
            self.normal = normal

    comps = [Comp(_point_weights(0), PointNormal()),
             Comp(_point_weights(4), PointNormal())]
    assert abbv_sum(comps) == 2


def test_abbv_refuses_ill_typed_data_by_name():
    # the sphere of W5 on weights (0, -1, -1, 1) fails normal-variant; the
    # closed form would raise a bare ValueError on its normal data, and
    # the same components as a plain list are refused as the dataset they
    # form
    comps = tuple(FixedComponent(c.type, (0, -1, -1, 1), c.normal) if c.lam == 1 else c
                  for c in catalog()["w5-surface-and-plane"])
    data = FixedPointData(comps)
    assert data.structural_failures == ("normal-variant",)
    for reader in (abbv_terms, abbv_sum):
        for given in (data, list(comps)):
            with pytest.raises(IllTypedError,
                               match="^abbv-vanishing not applied: normal-variant failed$"):
                reader(given)
    # a well-typed list gets its terms in its own order
    w5 = list(catalog()["w5-surface-and-plane"])
    assert abbv_terms(w5[::-1]) == abbv_terms(w5)[::-1] != abbv_terms(w5)


def test_closed_forms_are_ints_on_the_catalog_and_every_family_member():
    datasets = list(catalog().values())
    datasets += [family.instantiate(n2)
                 for result in enumerate_all(14).values()
                 for family in result.families
                 for n2 in range(family.n2_min, family.n2_max + 1)]
    kinds = set()
    for data in datasets:
        for comp in data:
            got = contribution(comp.weights, comp.normal)
            assert type(got) is int, comp
            assert got == contribution_series_oracle(comp.weights, comp.normal), comp
            kinds.add(comp.normal.kind)
    # every closed form is reached
    assert kinds == {"point", "surface", "fourdim_extremal", "fourdim_split", "sixdim"}
    for name, data in catalog().items():
        total = abbv_sum(data)
        assert type(total) is int and total == 0, name
