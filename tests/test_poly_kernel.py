"""Evaluation and linear composition on integers, against the Fraction route.

`Poly.__call__` and `Poly.compose_linear` scale p to integer numerators q
over one common denominator den and write a*x + b as (A*x + B)/D; then
p(a*x + b) = sum_i q_i D^(n-i) (A*x + B)^i / (den * D^n). The oracle below
is the route they replaced: Horner's rule on `Fraction` coefficients and on
`Poly` objects. The two must agree coefficient for coefficient, and the
results must keep `Fraction` values.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from semifree8.polynomial import Poly


# ----------------------------------------------------------------------
# the Fraction oracle
# ----------------------------------------------------------------------

def oracle_call(p, at):
    at = Fraction(at)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * at + c
    return acc


def oracle_compose_linear(p, a, b):
    lin = Poly((Fraction(b), Fraction(a)))
    acc = Poly()
    for c in reversed(p.coeffs):
        acc = acc * lin + c
    return acc


# ----------------------------------------------------------------------
# rational polynomials of degree <= 6, and a, b with real denominators
# ----------------------------------------------------------------------

def rationals(lo, hi, den=12):
    return st.one_of(st.integers(lo, hi),
                     st.builds(Fraction, st.integers(lo, hi), st.integers(1, den)))


polys = st.builds(Poly, st.lists(st.one_of(st.just(0), rationals(-30, 30, den=35)),
                                 max_size=7))
scalars = st.one_of(st.just(0), rationals(-9, 9))


@settings(max_examples=400, deadline=None)
@given(polys, scalars, scalars, rationals(-20, 20, den=16))
@example(Poly(), Fraction(3, 4), Fraction(-5, 6), Fraction(1, 3))            # zero polynomial
@example(Poly([Fraction(1, 2), 3, Fraction(-7, 9)]), 0, Fraction(5, 6), 2)   # a = 0
@example(Poly([0, 12, 6, -3]), -1, Fraction(7, 3), Fraction(-1, 2))          # negative a
@example(Poly([0, 0, 0, 1]), 1, -2, 5)                                       # integer route
@example(Poly([Fraction(1, 6)] * 7), Fraction(-2, 15), Fraction(9, 10), Fraction(15, 16))
def test_integer_kernel_matches_fraction_oracle(p, a, b, t):
    got = p.compose_linear(a, b)
    assert got.coeffs == oracle_compose_linear(p, a, b).coeffs
    assert all(type(c) is Fraction for c in got.coeffs)
    value = p(t)
    assert type(value) is Fraction
    assert value == oracle_call(p, t)
    assert got(t) == oracle_call(p, Fraction(a) * Fraction(t) + Fraction(b))


def test_degree_drops_when_a_vanishes():
    p = Poly([1, Fraction(1, 2), Fraction(1, 3)])
    assert p.compose_linear(0, 3) == Poly([Fraction(11, 2)])
    assert p.compose_linear(0, 0) == Poly([1])
    assert Poly().compose_linear(2, 1) == Poly()
    assert Poly()(Fraction(5, 7)) == 0
