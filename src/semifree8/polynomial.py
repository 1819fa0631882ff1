"""Dense univariate polynomials over the rationals, and exact positivity.

`Poly` keeps fractions.Fraction coefficients; evaluation, linear
composition and the Sturm root count behind `positive_on_open` run on
Python integers. No float is used and nothing is cached across calls.

Evaluation and composition scale p by the least common denominator den of
its coefficients to integer numerators q = den * p, and work over that one
denominator: p(n/d) = d^deg * q(n/d) / (den * d^deg), and with
a*x + b = (A*x + B)/D, p(a*x + b) = sum_i q_i D^(deg-i) (A*x + B)^i /
(den * D^deg), by Horner's rule on integer coefficient lists.

For the root count p is scaled by a positive integer to primitive integer
coefficients; a primitive pseudo-remainder gcd with p' and an exact division
give its square-free part q. The chain of q is built with sign-preserving
pseudo-remainders (multiply by |lc|, negate, divide out the positive
content), so each member is a positive multiple of the classical one. The
sign at n/d is that of sum c_i n^i d^(deg - i). The variation count V is
right-continuous at the roots of q, so V(a) - V(m) counts the roots in
(a, m]: `isolate_root` builds the chain once per (p, a, b) and bisects on it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ISOLATION_WIDTH = Fraction(1, 32)     # isolate_root's target width


def _frac(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError("expected int or Fraction, got %r" % (v,))


class Poly:
    """Polynomial in one variable, coefficients listed lowest degree first.

    >>> p = Poly([0, 12, 6, 1])     # 12x + 6x^2 + x^3
    >>> p(2)
    Fraction(56, 1)
    >>> p.degree
    3
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def x(cls):
        return cls((0, 1))

    @property
    def degree(self):
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Poly(a)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly((other,)).__neg__())

    def __rsub__(self, other):
        return Poly((other,)) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if not self or not other:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("nonnegative integer power required")
        r = Poly((1,))
        for _ in range(n):
            r = r * self
        return r

    def _numerators(self):
        """(q, den): the integer numerators over the least common
        denominator, so that den * p = q."""
        den = lcm(*(c.denominator for c in self.coeffs))
        return [c.numerator * (den // c.denominator) for c in self.coeffs], den

    def __call__(self, at):
        at = _frac(at)
        q, den = self._numerators()
        n, d = at.numerator, at.denominator
        return Fraction(_value_times_den(q, n, d), den * d ** max(self.degree, 0))

    def compose_linear(self, a, b):
        """Return p(a*x + b), over one common denominator (module docstring)."""
        a, b = _frac(a), _frac(b)
        if not self:
            return Poly()
        q, den = self._numerators()
        d = lcm(a.denominator, b.denominator)
        lin_a, lin_b = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
        acc, dk = [q[-1]], 1
        for c in reversed(q[:-1]):      # acc * (A*x + B) + c * D^k
            dk *= d
            nxt = [lin_b * v for v in acc] + [0]
            for i, v in enumerate(acc, 1):
                nxt[i] += lin_a * v
            nxt[0] += c * dk
            acc = nxt
        return Poly(tuple(Fraction(v, den * dk) for v in acc))

    def derivative(self):
        return Poly(tuple(c * i for i, c in enumerate(self.coeffs) if i))

    def integrate(self, a, b):
        """Definite integral over [a, b], exact."""
        anti = Poly((0,) + tuple(c / (i + 1) for i, c in enumerate(self.coeffs)))
        return anti(b) - anti(a)

    def fmt(self, var="x"):
        if not self:
            return "0"
        bits = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                bits.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else str(c) + "*")
                bits.append("%s%s" % (head, var if i == 1 else "%s^%d" % (var, i)))
        out = " + ".join(bits)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return "Poly(%s)" % self.fmt()


# ----------------------------------------------------------------------
# Sturm root counting on integer coefficient lists (lowest degree first)
# ----------------------------------------------------------------------

def _primitive(cs):
    """cs divided by its positive content."""
    g = gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _prem(a, b):
    """The remainder of a by b, times a positive integer."""
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(a) >= len(b):
        c, k = sign * a[-1], len(a) - len(b)
        a = [scale * x for x in a[:-1]]     # the top term cancels
        for i, bc in enumerate(b[:-1]):
            a[k + i] -= c * bc
        while a and not a[-1]:
            a.pop()
    return a


def _sturm_seq(q):
    """Sturm chain of q if q is square-free; it ends in gcd(q, q')."""
    seq = [q]
    r = _primitive([i * c for i, c in enumerate(q)][1:])
    while r:
        seq.append(r)
        r = _primitive([-c for c in _prem(seq[-2], r)])
    return seq


def _sturm_chain(p):
    """Sturm chain of the square-free part of p."""
    if not p:
        raise ValueError("zero polynomial has no isolated roots")
    q = _primitive(p._numerators()[0])
    seq = _sturm_seq(q)
    g, n = seq[-1], len(seq[-1]) - 1
    if not n:
        return seq
    # exact division q / g; integral by Gauss's lemma, g being primitive
    quo = [0] * (len(q) - n)
    for k in range(len(quo) - 1, -1, -1):
        quo[k] = c = q[k + n] // g[-1]
        q = q[:k] + [x - c * y for x, y in zip(q[k:], g)]
    return _sturm_seq(quo)


def _value_times_den(cs, n, d):
    """d^deg * cs(n/d), which has the sign of cs(n/d) as d > 0."""
    acc, dk = 0, 1
    for c in reversed(cs):
        acc = acc * n + c * dk
        dk *= d
    return acc


def _sign_changes(chain, x):
    n, d = x.numerator, x.denominator
    signs = [v > 0 for v in (_value_times_den(cs, n, d) for cs in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def count_roots_open(p, a, b):
    """Number of distinct real roots of p strictly inside (a, b)."""
    a, b = _frac(a), _frac(b)
    if not a < b:
        raise ValueError("need a < b")
    chain = _sturm_chain(p)
    # V(a) - V(b) counts the roots in (a, b], so a root at b is taken off
    at_b = not _value_times_den(chain[0], b.numerator, b.denominator)
    return _sign_changes(chain, a) - _sign_changes(chain, b) - at_b


def isolate_root(p, a, b):
    """Shrink (a, b), known to contain a root of p, to width <= ISOLATION_WIDTH."""
    a, b = _frac(a), _frac(b)
    if b - a <= ISOLATION_WIDTH:
        return a, b
    chain = _sturm_chain(p)
    va = _sign_changes(chain, a)
    while b - a > ISOLATION_WIDTH:
        m = (a + b) / 2
        vm = _sign_changes(chain, m)
        if va > vm:
            b = m
        else:
            a, va = m, vm
    return a, b


def positive_on_open(p, a, b):
    """Decide p > 0 on all of the open interval (a, b).

    Returns (verdict, detail). Zeroes at the closed endpoints are allowed,
    an interior zero or sign change is not. The detail string carries a
    witness: either the sample value at the midpoint or an isolating
    interval for an interior root.
    """
    a, b = _frac(a), _frac(b)
    if not a < b:
        raise ValueError("need a < b")
    if not p:
        return False, "identically zero"
    if count_roots_open(p, a, b):
        lo, hi = isolate_root(p, a, b)
        return False, "vanishes in the interior, root inside [%s, %s]" % (lo, hi)
    mid = (a + b) / 2
    v = p(mid)
    if v > 0:
        return True, "no interior roots and value %s at %s" % (v, mid)
    return False, "value %s at %s" % (v, mid)
