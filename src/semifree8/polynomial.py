"""Dense univariate polynomials over the rationals.

Everything downstream (ring integrals, push-forward densities, positivity
certificates) must be exact, so coefficients are fractions.Fraction and
there is deliberately no float path anywhere. The positivity test at the
bottom is a Sturm-sequence root count with endpoint deflation; it decides
"p > 0 on the open interval (a, b)" exactly for the low-degree polynomials
this package produces.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError("expected int or Fraction, got %r" % (v,))


# ----------------------------------------------------------------------
# the polynomial class
# ----------------------------------------------------------------------

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

    def __call__(self, at):
        at = _frac(at)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * at + c
        return acc

    def compose_linear(self, a, b):
        """Return p(a*x + b)."""
        lin = Poly((_frac(b), _frac(a)))
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * lin + c
        return acc

    def derivative(self):
        return Poly(tuple(c * i for i, c in enumerate(self.coeffs) if i))

    def antiderivative(self):
        return Poly((Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(self.coeffs)))

    def integrate(self, a, b):
        """Definite integral over [a, b], exact."""
        anti = self.antiderivative()
        return anti(b) - anti(a)

    def shift_up(self, k):
        """Multiply by x^k."""
        if not self:
            return self
        return Poly((Fraction(0),) * k + self.coeffs)

    def divmod_by(self, other):
        if not isinstance(other, Poly) or not other:
            raise ZeroDivisionError("polynomial division by zero")
        q = Poly()
        r = self
        dlead = other.coeffs[-1]
        while r and r.degree >= other.degree:
            k = r.degree - other.degree
            c = r.coeffs[-1] / dlead
            q = q + Poly((c,)).shift_up(k)
            r = r - other * Poly((c,)).shift_up(k)
        return q, r

    def __floordiv__(self, other):
        return self.divmod_by(other)[0]

    def __mod__(self, other):
        return self.divmod_by(other)[1]

    def monic(self):
        if not self:
            return self
        return self * (1 / self.coeffs[-1])

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
# gcd / square-free part / Sturm sequences
# ----------------------------------------------------------------------

def poly_gcd(a, b):
    while b:
        a, b = b, a % b
    return a.monic() if a else a


def squarefree_part(p):
    if not p or p.degree == 0:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    return p // g


def sturm_chain(p):
    chain = [p, p.derivative()]
    while chain[-1]:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _variations(chain, at):
    signs = []
    for q in chain:
        v = q(at)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_roots_open(p, a, b):
    """Number of distinct real roots of p strictly inside (a, b)."""
    a, b = _frac(a), _frac(b)
    if not a < b:
        raise ValueError("need a < b")
    q = squarefree_part(p)
    if not q:
        raise ValueError("zero polynomial has no isolated roots")
    # peel off roots sitting exactly on an endpoint
    for r in (a, b):
        while q.degree > 0 and q(r) == 0:
            q = q // Poly((-r, 1))
    if q.degree <= 0:
        return 0
    chain = sturm_chain(q)
    return _variations(chain, a) - _variations(chain, b)


def isolate_root(p, a, b, width=Fraction(1, 32)):
    """Shrink (a, b), known to contain a root of p, to width <= `width`."""
    a, b = _frac(a), _frac(b)
    while b - a > width:
        m = (a + b) / 2
        if count_roots_open(p, a, m) > 0 or squarefree_part(p)(m) == 0:
            b = m
        else:
            a = m
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
    n = count_roots_open(p, a, b)
    if n:
        lo, hi = isolate_root(p, a, b)
        return False, "vanishes in the interior, root inside [%s, %s]" % (lo, hi)
    mid = (a + b) / 2
    v = p(mid)
    if v > 0:
        return True, "no interior roots and value %s at %s" % (v, mid)
    return False, "value %s at %s" % (v, mid)
