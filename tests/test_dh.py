"""Push-forward density profiles: formulas, seams, volumes, positivity."""

from fractions import Fraction

from semifree8.classify import enumerate_case
from semifree8.classify import FanoFamilyRecord, classify_fano, default_fano_table
from semifree8.dh import (
    K2_CAP,
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
from semifree8.model import cp2_extremal, point_component, FixedPointData
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
