"""The integer `Poly` against the Fraction route it replaced.

`Poly` stores integer numerators over one common denominator.
`Poly.__call__` and `Poly.compose_linear` work over that denominator den
and write a*x + b as (A*x + B)/D; then p(a*x + b) = sum_i q_i D^(n-i)
(A*x + B)^i / (den * D^n). The oracle below is the route they replaced:
Horner's rule on `Fraction` coefficients and on `Poly` objects, and the
old tuple of trimmed `Fraction` coefficients with the `fmt` that read it.
The two must agree coefficient for coefficient, on equality, hashing,
printing and degree, and the results must keep `Fraction` values.
`count_roots_open` and `isolate_root` each build the Sturm chain of the
polynomial they are given, and no `Poly` keeps one; the density layer,
which shares its profiles, builds chains for each piece of a profile once
per process.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from semifree8 import dh, polynomial
from semifree8.classify import enumerate_case
from semifree8.dh import dh_profile, positivity_check
from semifree8.polynomial import Poly, count_roots_open, isolate_root, positive_on_open


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


def oracle_coeffs(cs):
    """The coefficients the old `Poly` stored: Fractions, trailing zeros cut."""
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def oracle_fmt(coeffs, var="x"):
    """The old `Poly.fmt`, on a tuple of Fraction coefficients."""
    if not coeffs:
        return "0"
    bits = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            bits.append(str(c))
        else:
            head = "" if c == 1 else ("-" if c == -1 else str(c) + "*")
            bits.append("%s%s" % (head, var if i == 1 else "%s^%d" % (var, i)))
    return " + ".join(bits).replace("+ -", "- ")


def oracle_add(a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return oracle_coeffs(x + y for x, y in zip(a, b))


def oracle_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return oracle_coeffs(out)


# ----------------------------------------------------------------------
# rational polynomials of degree <= 6, and a, b with real denominators
# ----------------------------------------------------------------------

def rationals(lo, hi, den=12):
    return st.one_of(st.integers(lo, hi),
                     st.builds(Fraction, st.integers(lo, hi), st.integers(1, den)))


coefficient_lists = st.lists(st.one_of(st.just(0), rationals(-30, 30, den=35)), max_size=7)
polys = st.builds(Poly, coefficient_lists)
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


@settings(max_examples=400, deadline=None)
@given(coefficient_lists, coefficient_lists, rationals(-9, 9))
@example([], [0, 0], 1)                                          # two zero polynomials
@example([Fraction(1, 2), 0, 0], [Fraction(1, 2)], Fraction(-1, 2))  # trailing zeros
@example([0, 1, -1, Fraction(-1, 3)], [2, -1], -1)               # heads 1, -1 and -1/3
@example([Fraction(7, 35), Fraction(14, 35)], [Fraction(1, 5), Fraction(2, 5)], 3)
def test_representation_matches_fraction_oracle(ca, cb, k):
    p, q = Poly(ca), Poly(cb)
    want_p, want_q = oracle_coeffs(ca), oracle_coeffs(cb)
    assert p.coeffs == want_p and all(type(c) is Fraction for c in p.coeffs)
    assert p.degree == len(want_p) - 1
    assert bool(p) == bool(want_p)
    assert p.fmt() == oracle_fmt(want_p) and p.fmt("L") == oracle_fmt(want_p, "L")
    assert repr(p) == "Poly(%s)" % oracle_fmt(want_p)
    # equality and hashing follow the coefficients, whatever route built them
    assert (p == q) == (want_p == want_q)
    same = (p * k + q - q) * (1 / Fraction(k)) if k else Poly(want_p + (0,))
    assert same == p and hash(same) == hash(p)
    assert Poly(want_p) == p and hash(Poly(want_p)) == hash(p)
    if p.degree <= 0:       # a constant equals, and hashes as, its number
        const = want_p[0] if want_p else 0
        assert p == const and hash(p) == hash(const)
    # arithmetic on numerators against the Fraction lists
    assert (p + q).coeffs == oracle_add(want_p, want_q)
    assert (-p).coeffs == oracle_coeffs(-c for c in want_p)
    assert (p - q).coeffs == oracle_add(want_p, [-c for c in want_q])
    assert (p * q).coeffs == oracle_mul(want_p, want_q)
    assert (p * k).coeffs == oracle_coeffs(c * k for c in want_p)
    assert p.derivative().coeffs == oracle_coeffs(c * i for i, c in enumerate(want_p) if i)


def test_constructor_rejects_other_types():
    for bad in (0.5, "1", None, Poly([1])):
        with pytest.raises(TypeError, match="expected int or Fraction"):
            Poly([1, bad])
    for den in (0, -3):
        with pytest.raises(ValueError, match="den must be a positive integer"):
            Poly([1], den)


def test_numerators_over_a_denominator():
    assert Poly([2, 4, 0], 8) == Poly([Fraction(1, 4), Fraction(1, 2)])
    assert Poly([Fraction(3, 2), 6], 9).coeffs == (Fraction(1, 6), Fraction(2, 3))
    assert Poly([0, 0], 5) == Poly() == 0 and Poly([7], 7) == 1


# ----------------------------------------------------------------------
# positivity witnesses: integer pairs against Fraction arithmetic
# ----------------------------------------------------------------------

def fraction_witness(p, a, b):
    """positive_on_open's verdict and detail with the midpoint and the value
    there formed as Fractions, as the route it replaced did."""
    a, b = Fraction(a), Fraction(b)
    if not p:
        return False, "identically zero"
    if count_roots_open(p, a, b):
        return False, "vanishes in the interior, root inside [%s, %s]" % isolate_root(p, a, b)
    mid = (a + b) / 2
    value = oracle_call(p, mid)
    if value > 0:
        return True, "no interior roots and value %s at %s" % (value, mid)
    return False, "value %s at %s" % (value, mid)


@settings(max_examples=400, deadline=None)
@given(polys, rationals(-20, 20, den=16), rationals(1, 30, den=9))
@example(Poly([-1]), 0, 1)                                    # a negative value, FAIL
@example(Poly([Fraction(-7, 3), 0, 1]), Fraction(-1, 2), 1)   # negative throughout (-1/2, 1/2)
@example(Poly([0, 1]), -1, 2)                                 # an interior root, FAIL
@example(Poly(), Fraction(1, 3), 1)                           # identically zero
@example(Poly([0, 0, 0, 1]), 0, 3)                            # integral midpoint and value
@example(Poly([1, Fraction(-1, 6)]), Fraction(-5, 4), Fraction(7, 3))
def test_positivity_witness_matches_fraction_route(p, a, width):
    b = a + width
    assert positive_on_open(p, a, b) == fraction_witness(p, a, b)


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 12))
@example(0, 7)
@example(-6, 4)
def test_ratio_text_is_the_fraction_text(n, d):
    assert polynomial.fmt_ratio(n, d) == str(Fraction(n, d))
    p = Poly([n, 1, -d])
    assert Fraction(*p.ratio_at(n, d)) == p(Fraction(n, d))


# ----------------------------------------------------------------------
# one Sturm chain per call
# ----------------------------------------------------------------------

def count_chain_builds(monkeypatch):
    builds = []
    build = polynomial._sturm_chain

    def counting(p):
        builds.append(p)
        return build(p)
    monkeypatch.setattr(polynomial, "_sturm_chain", counting)
    return builds


def test_interior_root_builds_one_chain(monkeypatch):
    builds = count_chain_builds(monkeypatch)
    p = Poly([0, 1]) * Poly([1, -2, 1]) * Poly([-3, 1])     # x (x-1)^2 (x-3)
    assert positive_on_open(p, 0, 2) == (
        False, "vanishes in the interior, root inside [31/32, 1]")
    assert builds == [p, p]       # count_roots_open, then isolate_root
    # each later call builds the chain of the polynomial it is given
    assert count_roots_open(p, -1, 4) == 3
    assert isolate_root(p, 2, 4) == (Fraction(95, 32), Fraction(3))
    assert builds == [p] * 4
    assert Poly.__slots__ == ("_num", "_den")     # no chain is kept on a Poly
    # an interval already narrow enough isolates with no chain
    assert isolate_root(p, Fraction(31, 32), 1) == (Fraction(31, 32), Fraction(1))
    assert len(builds) == 4


def test_failing_density_piece_builds_one_chain(monkeypatch):
    fam = [f for f in enumerate_case((4, 4)).families if f.key == "4,4/negative"][0]
    data = fam.instantiate(12, split=(8, 6))        # k2 = 8 passes K2_CAP
    dh._profile.cache_clear()       # no profile built by an earlier test
    builds = count_chain_builds(monkeypatch)
    profile = dh_profile(data)      # certifies its pieces
    report = positivity_check(profile)
    verdicts = [it.verdict for it in report if it.id == "dh-positivity"]
    assert sorted(verdicts) == ["FAIL", "PASS"]
    assert "vanishes in the interior" in " ".join(it.detail for it in report)
    # one chain to count the roots of each piece, and one more to isolate
    # the failing piece's interior root
    assert len(profile.pieces) == 2 and len(builds) == 3
    # the density layer shares its profiles: the same profile again, and
    # that of an equal dataset built afresh, build no further chain
    assert positivity_check(profile).lines() == report.lines()
    assert positivity_check(dh_profile(fam.instantiate(12, split=(8, 6)))).lines() == report.lines()
    assert len(builds) == 3
