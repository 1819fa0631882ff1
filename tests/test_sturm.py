"""The integer Sturm kernel against the Fraction route it replaced.

`semifree8.polynomial` counts and isolates roots on primitive integer
coefficient lists and builds one chain per call. The oracle below is
the classical route on `Poly` objects with Fraction coefficients: a monic
Euclidean gcd, the square-free part by long division, the roots on the
endpoints divided out, and the chain of negated remainders rebuilt for
every bisection step. The two must agree on the root count, on every
isolating interval and on every positivity verdict and witness string.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from semifree8.polynomial import Poly, count_roots_open, isolate_root, positive_on_open


# ----------------------------------------------------------------------
# the Fraction oracle
# ----------------------------------------------------------------------

def poly_divmod(a, b):
    q, r = Poly(), a
    while r and r.degree >= b.degree:
        term = Poly((0,) * (r.degree - b.degree) + (r.coeffs[-1] / b.coeffs[-1],))
        q, r = q + term, r - b * term
    return q, r


def poly_gcd(a, b):
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a * (1 / a.coeffs[-1]) if a else a


def squarefree_part(p):
    if not p or p.degree == 0:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    return poly_divmod(p, g)[0]


def sturm_chain(p):
    chain = [p, p.derivative()]
    while chain[-1]:
        chain.append(-poly_divmod(chain[-2], chain[-1])[1])
    chain.pop()
    return chain


def variations(chain, at):
    signs = [1 if v > 0 else -1 for v in (q(at) for q in chain) if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def oracle_count(p, a, b):
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("need a < b")
    q = squarefree_part(p)
    if not q:
        raise ValueError("zero polynomial has no isolated roots")
    for r in (a, b):
        while q.degree > 0 and q(r) == 0:
            q = poly_divmod(q, Poly((-r, 1)))[0]
    if q.degree <= 0:
        return 0
    chain = sturm_chain(q)
    return variations(chain, a) - variations(chain, b)


def oracle_isolate(p, a, b, width=Fraction(1, 32)):
    a, b = Fraction(a), Fraction(b)
    while b - a > width:
        m = (a + b) / 2
        if oracle_count(p, a, m) > 0 or squarefree_part(p)(m) == 0:
            b = m
        else:
            a = m
    return a, b


def oracle_positive(p, a, b):
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("need a < b")
    if not p:
        return False, "identically zero"
    if oracle_count(p, a, b):
        lo, hi = oracle_isolate(p, a, b)
        return False, "vanishes in the interior, root inside [%s, %s]" % (lo, hi)
    mid = (a + b) / 2
    v = p(mid)
    if v > 0:
        return True, "no interior roots and value %s at %s" % (v, mid)
    return False, "value %s at %s" % (v, mid)


def outcome(f, *args):
    try:
        return "returns", f(*args)
    except ValueError as exc:
        return "raises", type(exc).__name__, str(exc)


# ----------------------------------------------------------------------
# polynomials of degree <= 6 with roots planted where bisection looks
# ----------------------------------------------------------------------

def rationals(lo, hi, den=6):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, den))


@st.composite
def cases(draw):
    a = draw(rationals(-12, 12))
    b = a + draw(rationals(1, 48, den=4))
    # an odd multiple of (b - a) / 2^j: a midpoint some bisection step visits
    midpoint = st.builds(lambda j, k: a + (b - a) * Fraction((2 * k + 1) % 2 ** j, 2 ** j),
                         st.integers(1, 6), st.integers(0, 31))
    root = st.one_of(st.just(a), st.just(b), midpoint, rationals(-20, 20))
    p = Poly([draw(rationals(-6, 6, den=5))])     # negative or zero leads too
    # a sparse factor: irrational and complex roots, and degree gaps in the chain
    extra = Poly(draw(st.lists(st.one_of(st.just(0), st.integers(-9, 9)), max_size=5)))
    if extra:
        p = p * extra
    for r, mult in draw(st.lists(st.tuples(root, st.integers(1, 3)), max_size=4)):
        if p.degree + mult > 6:
            break
        for _ in range(mult):
            p = p * Poly([-r, 1])
    return p, a, b


@settings(max_examples=300, deadline=None)
@given(cases())
@example((Poly([-2, 1]), Fraction(0), Fraction(4)))                   # root at the first midpoint
@example((Poly([1, -2, 1]) * Poly([-3, 1]), Fraction(0), Fraction(4)))  # (x-1)^2 (x-3)
@example((Poly([0, 0, 0, -1]), Fraction(0), Fraction(2)))             # triple root at a, lc < 0
@example((Poly([0, 5, 0, 0, -4]), Fraction(-1), Fraction(6)))         # remainder degree drops by 2
@example((Poly([7]), Fraction(-1), Fraction(1)))                      # constant
@example((Poly(), Fraction(-1), Fraction(1)))                         # zero
def test_integer_kernel_matches_fraction_oracle(case):
    p, a, b = case
    assert outcome(count_roots_open, p, a, b) == outcome(oracle_count, p, a, b)
    assert outcome(isolate_root, p, a, b) == outcome(oracle_isolate, p, a, b)
    assert outcome(positive_on_open, p, a, b) == outcome(oracle_positive, p, a, b)


def test_repeated_and_endpoint_roots():
    p = Poly([1, -2, 1]) * Poly([-3, 1]) * Poly([0, 1])   # x (x-1)^2 (x-3)
    assert count_roots_open(p, 0, 3) == 1
    assert count_roots_open(p, -1, 4) == 3
    assert isolate_root(p, 0, 2) == (Fraction(31, 32), Fraction(1))
    assert positive_on_open(Poly([0, 0, 1]), 0, 1) == (
        True, "no interior roots and value 1/4 at 1/2")
