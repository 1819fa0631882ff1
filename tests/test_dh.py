"""Push-forward density profiles: formulas, seams, volumes, positivity."""

from fractions import Fraction

import pytest

from semifree8 import dh
from semifree8.classify import enumerate_case
from semifree8.classify import FanoFamilyRecord, classify_fano, default_fano_table
from semifree8.dh import (
    K2_CAP,
    DHPiece,
    b4_bound_check,
    b4_cap,
    dh_after_lam1_point,
    dh_from_ring,
    dh_isolated_min,
    dh_near_cp2,
    dh_profile,
    half_volume_cp2,
    half_volume_isolated_pair,
    positivity_check,
    total_volume,
)
from semifree8.localization import SurfaceNormal
from semifree8.model import (
    RULES,
    ComponentType,
    FixedComponent,
    FixedPointData,
    cp2_extremal,
    point_component,
)
from semifree8.polynomial import Poly, count_roots_open, positive_on_open


def test_density_formula_matches_ring_computation():
    for k2 in range(-20, 21):
        assert dh_near_cp2(k2) == dh_from_ring(k2)


def test_density_near_plane_frozen():
    assert dh_near_cp2(4) == Poly([0, 12, 6, -3])
    assert dh_isolated_min() == Poly([0, 0, 0, 1])
    assert dh_after_lam1_point() == Poly([0, 0, 0, 1]) - Poly([0, 0, 0, 1]).compose_linear(1, -2)


def test_half_volumes_frozen():
    for k2 in range(-3, 9):
        assert half_volume_cp2(k2) == 176 - 16 * k2
    assert half_volume_isolated_pair() == 240


def oracle_half_volume_cp2(k2):
    """Four times the ruled density integrated over the first two units."""
    return 4 * dh_near_cp2(k2).integrate(0, 2)


def oracle_half_volume_isolated_pair():
    """Four times the cubic density up to the index-2 point at distance 2,
    plus the blow-up density on the next two units."""
    return 4 * (dh_isolated_min().integrate(0, 2) + dh_after_lam1_point().integrate(2, 4))


def test_half_volumes_against_density_integrals():
    for k2 in range(-20, 21):
        assert half_volume_cp2(k2) == oracle_half_volume_cp2(k2)
        assert half_volume_cp2(k2) == 4 * dh_from_ring(k2).integrate(0, 2)
    assert half_volume_isolated_pair() == oracle_half_volume_isolated_pair()


def test_pattern_volumes_against_closed_forms():
    # the two index-2 volumes the Fano filter compares against, in closed
    # form: isolated minimum plus plane (416 - 16*b4) and two planes
    # (352 - 16*b4, whatever the split)
    for b4 in range(1, 15):
        assert half_volume_isolated_pair() + half_volume_cp2(b4) == 416 - 16 * b4
        for kmin in range(b4 + 1):
            assert half_volume_cp2(kmin) + half_volume_cp2(b4 - kmin) == 352 - 16 * b4
    for b4 in range(1, 20):
        rec = FanoFamilyRecord("T", 2, b4, 0)
        table = default_fano_table() + (rec,)
        detail = [it.detail for name, items in classify_fano(table).traces if name == "T"
                  for it in items if it.id == "volume-match"][0]
        assert detail.startswith("candidate volumes %d and %d, target 0"
                                 % (416 - 16 * b4, 352 - 16 * b4))
        assert ("needs b4 <= 7" in detail) == (b4 > 7)


def test_density_caps():
    assert (K2_CAP, b4_cap((0, 4)), b4_cap((4, 4))) == (7, 7, 14)
    assert b4_cap((0, 0)) is None and b4_cap((2, 4)) is None
    assert positive_on_open(dh_near_cp2(K2_CAP), 0, 2)[0]
    assert not positive_on_open(dh_near_cp2(K2_CAP + 1), 0, 2)[0]


def test_total_volume_of_families():
    no_surface = [f for f in enumerate_case((0, 4)).families
                  if f.key == "0,4/no-surface"][0]
    for n2 in range(no_surface.n2_min, no_surface.n2_max + 1):
        b4 = 1 + n2
        assert total_volume(no_surface.instantiate(n2)) == 416 - 16 * b4

    negative = [f for f in enumerate_case((4, 4)).families
                if f.key == "4,4/negative"][0]
    for n2 in range(negative.n2_min, negative.n2_max + 1):
        b4 = 2 + n2
        assert total_volume(negative.instantiate(n2)) == 352 - 16 * b4

    positive = [f for f in enumerate_case((4, 4)).families
                if f.key == "4,4/positive"][0]
    assert total_volume(positive.instantiate()) is None


def test_total_volume_wants_one_index_2_point_among_points():
    fam = [f for f in enumerate_case((0, 4)).families if f.key == "0,4/no-surface"][0]
    comps = list(fam.instantiate(2))
    assert total_volume(FixedPointData(comps)) == 416 - 16 * 3
    sphere = FixedComponent(ComponentType.CP1, (-1, -1, 0, 1),
                            SurfaceNormal([(1, -1), (1, -1), (1, 1)]))
    for extra in (point_component((-1, -1, -1, 1)),     # an interior index 6
                  point_component((-1, 1, 1, 1)),       # a second index 2
                  sphere):                              # an index-4 sphere
        assert total_volume(FixedPointData(comps + [extra])) is None


def test_blow_up_piece_wants_a_lone_index_2_point_on_the_wall():
    # an isolated minimum at -4 and a point maximum at 4; the wall at -2
    # holds one index-2 point, then two
    ends = [point_component((1, 1, 1, 1)), point_component((-1, -1, -1, -1))]
    lone, pair = (dh_profile(FixedPointData(ends + [point_component((-1, 1, 1, 1))] * n))
                  for n in (1, 2))
    assert [(pc.lo, pc.hi) for pc in lone.pieces] == [(-4, -2), (-2, 1), (1, 4)]
    assert lone.pieces[1].poly == dh_after_lam1_point().compose_linear(1, 4)
    assert [(pc.lo, pc.hi) for pc in pair.pieces] == [(-4, -2), (-2, 4)]


def test_volume_is_reversal_invariant():
    from semifree8.model import reverse_action
    fam = [f for f in enumerate_case((4, 4)).families if f.key == "4,4/negative"][0]
    data = fam.instantiate(6)
    assert total_volume(data) == total_volume(reverse_action(data)) == 224


def test_profile_continuous_for_balanced_split():
    fam = [f for f in enumerate_case((4, 4)).families if f.key == "4,4/negative"][0]
    profile = dh_profile(fam.instantiate(6))  # split (4, 4)
    assert [(p.lo, p.hi) for p in profile.pieces] == [(-2, 0), (0, 2)]
    assert not profile.warnings
    assert positivity_check(profile).ok


def test_profile_warns_on_value_jump():
    fam = [f for f in enumerate_case((4, 4)).families if f.key == "4,4/negative"][0]
    profile = dh_profile(fam.instantiate(6, split=(3, 5)))
    assert any("32" in w.detail and "16" in w.detail for w in profile.warnings)


def test_seam_level_is_exact():
    # half a sum of levels: an int when integral, else a Fraction, never
    # the float that true division of two ints gives
    for s, want in ((4, 2), (-6, -3), (5, Fraction(5, 2)), (-1, Fraction(-1, 2)),
                    (Fraction(3, 2) + Fraction(5, 2), 2), (Fraction(1, 2) + 1, Fraction(3, 4))):
        got = dh._half(s)
        assert got == want and type(got) is type(want), (s, got)


def test_half_level_seam_against_the_fraction_route():
    # an isolated minimum at 0 pins (0, 3) and a plane maximum at 4 pins
    # (2, 4): the seam falls at 5/2, where the two values are compared as
    # integer pairs and written as their Fractions would be
    below = (1, 0, 0, 3, dh_isolated_min, ())
    above = (-1, -4, -4, -2, dh_near_cp2, (2,))
    dh.clear_caches()
    profile = dh._profile(below, above)
    seam = Fraction(5, 2)
    lo_poly, hi_poly = dh_isolated_min(), dh_near_cp2(2).compose_linear(-1, 4)
    assert profile.pieces == (DHPiece(0, seam, lo_poly), DHPiece(seam, 4, hi_poly))
    assert type(profile.pieces[0].hi) is Fraction
    assert [w.detail for w in profile.warnings] == [
        "the two extremal formulas disagree on a shared wall-free interval; "
        "truncating both at level 5/2",
        "density value jumps at level 5/2: %s from below vs %s from above"
        % (lo_poly(seam), hi_poly(seam))]
    assert (lo_poly(seam), hi_poly(seam)) == (Fraction(125, 8), Fraction(225, 8))
    assert positivity_check(profile).lines()[0] == (
        "PASS dh-positivity: %s (L^3 on (0, 5/2): no interior roots and value 125/64 at 5/4)"
        % RULES["dh-positivity"])


def test_profile_warns_for_isolated_minimum_family():
    fam = [f for f in enumerate_case((0, 4)).families if f.key == "0,4/no-surface"][0]
    profile = dh_profile(fam.instantiate(3))
    assert [(p.lo, p.hi) for p in profile.pieces] == [(-4, -2), (-2, 0), (0, 2)]
    assert profile.warnings  # 56 from below vs 24 from above
    rep = positivity_check(profile)
    assert rep.ok
    assert any(it.verdict == "WARN" for it in rep)


def test_positivity_boundary_of_the_k_bound():
    ok7, _ = positive_on_open(dh_near_cp2(7), 0, 2)
    ok8, detail = positive_on_open(dh_near_cp2(8), 0, 2)
    assert ok7
    assert not ok8 and "root" in detail


def test_positivity_fails_loudly_past_the_bound():
    data = FixedPointData((
        cp2_extremal(1, -1, 7),
        *[point_component((-1, -1, 1, 1)) for _ in range(13)],
        cp2_extremal(-1, -1, 8),
    ))
    rep = positivity_check(dh_profile(data))
    assert not rep.ok


def test_b4_bound_lines():
    assert b4_bound_check(14, (4, 4), split=(7, 7)).verdict == "PASS"
    assert b4_bound_check(15, (4, 4), split=(7, 8)).verdict == "FAIL"
    assert b4_bound_check(7, (0, 4)).verdict == "PASS"
    assert b4_bound_check(8, (0, 4)).verdict == "FAIL"


def test_b4_bound_wants_a_split_in_two():
    # (7, 7, 0) passed as "both parts <= 7", (14,) failed as "both parts not
    # <= 7" and () raised ValueError from max()
    for b4, split in ((14, (7, 7, 0)), (14, (14,)), (0, ())):
        item = b4_bound_check(b4, (4, 4), split=split)
        assert (item.verdict, item.detail) == ("FAIL", "split %s is not two parts" % (split,))
    item = b4_bound_check(14, (4, 4), split=(7, 8))
    assert (item.verdict, item.detail) == ("FAIL", "split (7, 8) does not sum to b4 = 14")


def test_b4_bound_refuses_non_integers():
    # each of these passed, or failed as "b4 = 7 > 7", as its truncation
    for args in ((3, (0.5, 4.9)), (7.5, (0, 4)), (8, (4, 4), (4.5, 3.5)), (3, ("0", 4))):
        with pytest.raises(TypeError):
            b4_bound_check(*args)


def test_sturm_chain_root_counting():
    p = Poly([-2, 0, 1])  # x^2 - 2
    assert count_roots_open(p, 0, 2) == 1
    assert count_roots_open(p, 2, 3) == 0
    assert count_roots_open(p * p, 0, 2) == 1  # squarefree reduction

    q = Poly([0, -12, 0, 1])  # x^3 - 12x, roots 0 and +-sqrt(12)
    assert count_roots_open(q, -4, 4) == 3
    assert count_roots_open(q, Fraction(1, 2), 4) == 1


def test_positive_on_open_allows_endpoint_roots():
    p = Poly([0, 1])  # x, zero exactly at the endpoint
    ok, _ = positive_on_open(p, 0, 2)
    assert ok
    ok, _ = positive_on_open(p, -1, 2)
    assert not ok
