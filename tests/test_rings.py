"""Cohomology ring arithmetic against frozen hand computations."""

import doctest
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from semifree8 import polynomial, rings
from semifree8.localization import FourDimExtremalNormal, PointNormal
from semifree8.polynomial import Poly
from semifree8.rings import (
    LaurentSeries,
    equivariant_euler,
    ring_cpn,
    ring_p1xp1,
    ring_point,
    ring_projectivized,
)


def test_cp2_frozen_integral():
    # (1 + h)(1 + 2h) h has top coefficient 1*2 + 1 + 2 = 3 on h^2
    h = ring_cpn(2).gen(0)
    assert ((1 + h) * (1 + 2 * h) * h).integrate() == 3


def test_cp1_cube():
    h = ring_cpn(1).gen(0)
    assert ((1 + h) ** 3).integrate() == 3


def test_p1xp1_frozen_integrals():
    r = ring_p1xp1()
    x, y = r.gen(0), r.gen(1)
    assert ((x + y) ** 2).integrate() == 2
    assert ((x * 2 + y * 2) ** 2).integrate() == 8
    assert (x * x).integrate() == 0 and (y * y).integrate() == 0
    assert (x * y).integrate() == 1


def test_projectivized_integrals():
    for k2 in (-3, 0, 1, 8):
        r = ring_projectivized(k2)
        eta, xi = r.gen(0), r.gen(1)
        assert (eta * eta * xi).integrate() == 1
        assert (eta * xi * xi).integrate() == 1
        assert (xi ** 3).integrate() == 1 - k2


def test_projectivized_refuses_non_integers():
    assert ring_projectivized(True).k2 == 1     # bool is an integer; it stays 1
    for k2 in (2.7, "3", Fraction(1, 2)):
        with pytest.raises(TypeError):
            ring_projectivized(k2)


def test_point_ring():
    r = ring_point()
    assert r.one().integrate() == 1
    assert (r.one() * 5).integrate() == 5


def test_cpn_bad_dimension():
    for n in (0, 5):
        try:
            ring_cpn(n)
        except ValueError:
            continue
        raise AssertionError("ring_cpn(%d) should not exist" % n)


def test_polynomial_coefficients_allowed():
    # ring classes with polynomial coefficients integrate to polynomials
    r = ring_projectivized(4)
    eta, xi = r.gen(0), r.gen(1)
    x = Poly.x()
    el = (eta * 2 + xi * x) ** 3
    val = el.integrate()
    assert val == Poly([0, 12, 6, -3])


@pytest.mark.parametrize("value", [0, 3, -2, Fraction(1, 2)])
def test_a_constant_hashes_like_its_value(value):
    # a constant equals its value, so the two hash alike and make one set member
    r = ring_cpn(2)
    for constant in (Poly((value,)), r.scalar(value), r.scalar(Poly((value,)))):
        assert constant == value
        assert hash(constant) == hash(value)
        assert len({constant, value}) == 1
    assert len({Poly(()), 0, r.zero()}) == 1


def test_equal_classes_of_two_rings_hash_alike():
    # classes compare by their terms, so h on CP2 equals h on CP3
    h2, h3 = ring_cpn(2).gen(0), ring_cpn(3).gen(0)
    assert h2 == h3 and hash(h2) == hash(h3) and len({h2, h3}) == 1


def test_classes_of_two_rings_do_not_add():
    with pytest.raises(ValueError, match=r"^elements of different rings: <ring CP1> vs <ring CP2>$"):
        ring_cpn(1).gen(0) + ring_cpn(2).gen(0)


def test_a_negative_power_is_refused():
    with pytest.raises(ValueError, match="^nonnegative integer power required$"):
        ring_cpn(2).gen(0) ** -1


def test_a_float_coefficient_is_refused():
    r = ring_cpn(2)
    with pytest.raises(TypeError, match=r"^coefficient must be int, Fraction or Poly, got 0\.5$"):
        r.scalar(0.5)
    with pytest.raises(TypeError, match=r"^coefficient must be int, Fraction or Poly, got 0\.5$"):
        LaurentSeries.monomial(r, 0, 0.5)


def test_a_float_operand_is_refused_as_a_coefficient():
    # an operand is lifted to a class the way a scalar is, so a float
    # meets the coefficient check rather than an attribute lookup
    h = ring_cpn(2).gen(0)
    for op in (lambda: h + 0.5, lambda: h - 0.5, lambda: h * 0.5, lambda: 0.5 * h):
        with pytest.raises(TypeError, match="^coefficient must be int, Fraction or Poly"):
            op()


def test_the_zero_series_has_no_inverse():
    with pytest.raises(ZeroDivisionError, match="^cannot invert the zero series$"):
        LaurentSeries(ring_cpn(2), {}).inverse()


def _series(ring, coeffs):
    return LaurentSeries(ring, {k: c if isinstance(c, rings.RingClass) else ring.scalar(c)
                                for k, c in coeffs.items()})


@pytest.mark.parametrize("lead", [2, -3, Fraction(1, 2), ring_cpn(2).one() + ring_cpn(2).gen(0)])
def test_a_leading_coefficient_other_than_a_sign_is_refused(lead):
    series = _series(ring_cpn(2), {1: lead, 0: ring_cpn(2).gen(0)})
    with pytest.raises(ValueError, match=r"^leading coefficient must be \+-1 for inversion$"):
        series.inverse()


@pytest.mark.parametrize("ring, coeffs", [
    # t + 1 over a point: the truncated series was t^-1, and the product 1 + t^-1
    (ring_point(), {1: 1, 0: 1}),
    # t^2 + 3t over CP2: the product with the truncated series was 1 + 27 t^-3
    (ring_cpn(2), {2: 1, 1: 3}),
    # a degree-0 part beside a nilpotent one is refused as well
    (ring_cpn(2), {1: -1, 0: ring_cpn(2).one() + ring_cpn(2).gen(0)}),
])
def test_a_series_with_a_lower_degree_zero_part_is_refused(ring, coeffs):
    with pytest.raises(ValueError, match="degree-0 part"):
        _series(ring, coeffs).inverse()


@pytest.mark.parametrize("coeffs", [
    {1: 1, 0: ring_cpn(2).gen(0)},
    {2: -1, 1: 3 * ring_cpn(2).gen(0), 0: ring_cpn(2).gen(0) ** 2},
    {1: 1, -1: 5 * ring_cpn(2).gen(0) ** 2},
])
def test_an_admitted_series_times_its_inverse_is_one(coeffs):
    series = _series(ring_cpn(2), coeffs)
    assert (series * series.inverse()).terms == {0: 1}
    assert (series.inverse() * series).terms == {0: 1}


def test_euler_class_with_weights_beyond_a_sign():
    # sum_i c_i(N) (w t)^(2 - i) at w = 2 with c(N) = 1 - h + 3h^2
    h = ring_cpn(2).gen(0)
    e = equivariant_euler((0, 0, 2, 2), FourDimExtremalNormal(-1, 3))
    assert e.ring is ring_cpn(2)
    assert e.terms == {2: 4, 1: -2 * h, 0: 3 * h * h}
    # over a point the Euler class is the product of the weights times t^4
    assert equivariant_euler((2, 2, 2, 2), PointNormal()).terms == {4: 16}
    assert equivariant_euler((-3, 2, 2, 2), PointNormal()).terms == {4: -24}


def test_doctests_run_clean():
    for mod in (rings, polynomial):
        result = doctest.testmod(mod)
        assert result.failed == 0


small_ints = st.integers(min_value=-9, max_value=9)


@given(st.lists(small_ints, min_size=3, max_size=3),
       st.lists(small_ints, min_size=3, max_size=3),
       st.lists(small_ints, min_size=3, max_size=3))
def test_cp2_ring_axioms(ca, cb, cc):
    r = ring_cpn(2)
    h = r.gen(0)

    def mk(cs):
        return r.one() * cs[0] + h * cs[1] + h * h * cs[2]

    a, b, c = mk(ca), mk(cb), mk(cc)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(st.lists(small_ints, min_size=4, max_size=4),
       st.lists(small_ints, min_size=4, max_size=4))
def test_p1xp1_ring_axioms(ca, cb):
    r = ring_p1xp1()
    x, y = r.gen(0), r.gen(1)

    def mk(cs):
        return r.one() * cs[0] + x * cs[1] + y * cs[2] + x * y * cs[3]

    a, b = mk(ca), mk(cb)
    assert a * b == b * a
    assert (a + b) * (a - b) == a * a - b * b


@given(st.lists(small_ints, min_size=1, max_size=5),
       st.lists(small_ints, min_size=1, max_size=5))
def test_poly_product_rule(ca, cb):
    p, q = Poly(ca), Poly(cb)
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@given(st.lists(small_ints, min_size=1, max_size=4), small_ints, small_ints,
       st.integers(min_value=-5, max_value=5))
def test_poly_compose_linear(cs, a, b, t):
    p = Poly(cs)
    assert p.compose_linear(a, b)(Fraction(t)) == p(Fraction(a * t + b))
