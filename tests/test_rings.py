"""Cohomology ring arithmetic against frozen hand computations."""

import doctest
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from semifree8 import polynomial, rings
from semifree8.polynomial import Poly
from semifree8.rings import ring_cpn, ring_p1xp1, ring_point, ring_projectivized


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
