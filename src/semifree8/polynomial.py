"""Dense univariate polynomials over the rationals, and exact positivity.

A `Poly` is integer numerators q over one positive denominator den, in
lowest terms. Everything below runs on Python integers and no float is
used. A rational argument is an int or a `fractions.Fraction`. The
rational API (`coeffs`, `__call__`, `integrate`, `isolate_root`) returns
`Fraction`s and imports `fractions` where it builds one; `positive_on_open`
forms its midpoint and the value there as integer pairs (`ratio_at`) and
writes them as `str(Fraction)` does (`fmt_ratio`, which `fmt` shares), so
an interval with no interior root is decided without loading `fractions`.
Nothing is cached here: `count_roots_open` and `isolate_root` each build
the Sturm chain of the polynomial they are given. Sharing is the density layer's
(`semifree8.dh`): it builds each profile once per process, certifying its
pieces then, so a profile met again builds no chain.

p(n/d) = d^deg * q(n/d) / (den * d^deg), and with a*x + b = (A*x + B)/D,
p(a*x + b) = sum_i q_i D^(deg-i) (A*x + B)^i / (den * D^deg), by Horner's
rule on integer coefficient lists.

For the root count q is divided by its content; a primitive
pseudo-remainder gcd with q' and an exact division give its square-free
part. Its chain is built with sign-preserving pseudo-remainders (multiply
by |lc|, negate, divide out the positive content), so each member is a
positive multiple of the classical one. The sign at n/d (d > 0) is that of
sum c_i n^i d^(deg - i). The variation count V is right-continuous at the
roots, so V(a) - V(m) counts the roots in (a, m]: `isolate_root` bisects
on integer numerators over a doubling denominator.
"""

import sys
from itertools import zip_longest
from math import gcd, lcm

ISOLATION_WIDTH = (1, 32)     # isolate_root's target width, numerator over denominator


def _is_rational(v):
    """v is an int or a Fraction; a Fraction exists only once fractions is loaded."""
    if isinstance(v, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(v, fractions.Fraction)


def _rational(v):
    if _is_rational(v):
        return v
    raise TypeError("expected int or Fraction, got %r" % (v,))


def fmt_ratio(n, d):
    """n/d, d > 0, as str(Fraction(n, d)) writes it."""
    g = gcd(n, d)
    return "%d" % (n // g) if g == d else "%d/%d" % (n // g, d // g)


class Poly:
    """Polynomial in one variable, coefficients listed lowest degree first.

    >>> p = Poly([0, 12, 6, 1])     # 12x + 6x^2 + x^3
    >>> p(2)
    Fraction(56, 1)
    >>> p.degree
    3
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=(), den=1):
        """sum_i coeffs[i] x^i / den; ints or Fractions over a positive int."""
        if den < 1:
            raise ValueError("den must be a positive integer")
        cs = [_rational(c) for c in coeffs]
        lc = lcm(*(c.denominator for c in cs))
        num = [c.numerator * (lc // c.denominator) for c in cs]
        while num and not num[-1]:
            num.pop()
        g = gcd(den * lc, *num)
        self._num, self._den = tuple(v // g for v in num), den * lc // g

    @property
    def coeffs(self):
        """The Fraction coefficients, lowest degree first, built on each read."""
        from fractions import Fraction
        return tuple(Fraction(v, self._den) for v in self._num)

    @classmethod
    def x(cls):
        return cls((0, 1))

    @property
    def degree(self):
        # degree of the zero polynomial is -1 by convention
        return len(self._num) - 1

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if not _is_rational(other):
                return NotImplemented
            other = Poly((other,))
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        if len(self._num) < 2:      # a constant hashes like the number it equals
            if self._den == 1:
                return hash(sum(self._num))
            from fractions import Fraction
            return hash(Fraction(self._num[0], self._den))
        return hash((self._num, self._den))

    def __neg__(self):
        return Poly([-v for v in self._num], self._den)

    def __add__(self, other):
        if _is_rational(other):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        pairs = zip_longest(self._num, other._num, fillvalue=0)
        return Poly([x * other._den + y * self._den for x, y in pairs], self._den * other._den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly((other,)).__neg__())

    def __rsub__(self, other):
        return Poly((other,)) - self

    def __mul__(self, other):
        if _is_rational(other):
            return Poly([v * other.numerator for v in self._num], self._den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        out = [0] * (len(self._num) + len(other._num) - 1)
        for i, a in enumerate(self._num):
            for j, b in enumerate(other._num):
                out[i + j] += a * b
        return Poly(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("nonnegative integer power required")
        r = Poly((1,))
        for _ in range(n):
            r = r * self
        return r

    def __call__(self, at):
        from fractions import Fraction
        return Fraction(*self.ratio_at(_rational(at).numerator, at.denominator))

    def ratio_at(self, n, d):
        """p(n/d), d > 0, as an integer pair (numerator, positive
        denominator), not reduced."""
        return _value_times_den(self._num, n, d), self._den * d ** max(self.degree, 0)

    def compose_linear(self, a, b):
        """Return p(a*x + b), over one common denominator (module docstring)."""
        a, b, q = _rational(a), _rational(b), self._num
        d = lcm(a.denominator, b.denominator)
        lin_a, lin_b = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
        acc, dk = list(q[-1:]), 1
        for c in reversed(q[:-1]):      # acc * (A*x + B) + c * D^k
            dk *= d
            nxt = [lin_b * v for v in acc] + [0]
            for i, v in enumerate(acc, 1):
                nxt[i] += lin_a * v
            nxt[0] += c * dk
            acc = nxt
        return Poly(acc, self._den * dk)

    def derivative(self):
        return Poly([i * v for i, v in enumerate(self._num)][1:], self._den)

    def integrate(self, a, b):
        """Definite integral over [a, b], exact."""
        anti = Poly((0,) + tuple(c / (i + 1) for i, c in enumerate(self.coeffs)))
        return anti(b) - anti(a)

    def fmt(self, var="x"):
        bits = []
        for i, v in enumerate(self._num):
            if v:
                c = fmt_ratio(v, self._den)
                mono = "" if i == 0 else (var if i == 1 else "%s^%d" % (var, i))
                head = {"1": "", "-1": "-"}.get(c, c + "*") if mono else c
                bits.append(head + mono)
        return " + ".join(bits).replace("+ -", "- ") or "0"

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
    q = _primitive(list(p._num))
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


def _sign_changes(chain, n, d):
    changes, last = 0, 0        # last: the latest nonzero value
    for cs in chain:
        v = _value_times_den(cs, n, d)
        if v:
            changes += v * last < 0
            last = v
    return changes


def count_roots_open(p, a, b):
    """Number of distinct real roots of p strictly inside (a, b)."""
    a, b = _rational(a), _rational(b)
    if not a < b:
        raise ValueError("need a < b")
    chain = _sturm_chain(p)
    # V(a) - V(b) counts the roots in (a, b], so a root at b is taken off
    at_b = not _value_times_den(chain[0], b.numerator, b.denominator)
    return (_sign_changes(chain, a.numerator, a.denominator)
            - _sign_changes(chain, b.numerator, b.denominator) - at_b)


def isolate_root(p, a, b):
    """Shrink (a, b), known to contain a root of p, to width <= ISOLATION_WIDTH."""
    a, b = _rational(a), _rational(b)
    d = lcm(a.denominator, b.denominator)
    lo, hi = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
    w, w_den = ISOLATION_WIDTH
    if (hi - lo) * w_den > w * d:
        chain = _sturm_chain(p)
        v_lo = _sign_changes(chain, lo, d)
        while (hi - lo) * w_den > w * d:
            lo, hi, d = 2 * lo, 2 * hi, 2 * d
            mid = (lo + hi) // 2
            v_mid = _sign_changes(chain, mid, d)
            if v_lo > v_mid:
                hi = mid
            else:
                lo, v_lo = mid, v_mid
    from fractions import Fraction
    return Fraction(lo, d), Fraction(hi, d)


def positive_on_open(p, a, b):
    """Decide p > 0 on all of the open interval (a, b).

    Returns (verdict, detail). Zeroes at the closed endpoints are allowed,
    an interior zero or sign change is not. The detail string carries a
    witness: either the sample value at the midpoint or an isolating
    interval for an interior root. The midpoint and the value there are
    integer pairs, written as their Fractions would be.
    """
    a, b = _rational(a), _rational(b)
    if not a < b:
        raise ValueError("need a < b")
    if not p:
        return False, "identically zero"
    if count_roots_open(p, a, b):
        lo, hi = isolate_root(p, a, b)
        return False, "vanishes in the interior, root inside [%s, %s]" % (lo, hi)
    n = a.numerator * b.denominator + b.numerator * a.denominator
    d = 2 * a.denominator * b.denominator
    v, v_den = p.ratio_at(n, d)
    witness = "value %s at %s" % (fmt_ratio(v, v_den), fmt_ratio(n, d))
    if v > 0:
        return True, "no interior roots and " + witness
    return False, witness
