"""Exact cohomology rings of the fixed-component types.

Four families cover everything this package meets: complex projective
spaces CP^n (n <= 4), the product of two projective lines, a point, and
the ring of a projectivized rank-2 bundle over CP^2 which shows up as the
reduced space near a four-dimensional extremum. All generators sit in
real degree 2. Elements are dictionaries mapping exponent tuples to
coefficients with hand-coded reduction rules; there is no general
Groebner machinery because none is needed.

Coefficients are Fraction by default. A polynomial coefficient (the
adjoined variable of :mod:`semifree8.polynomial`) is allowed so that
push-forward densities can be computed symbolically, e.g.

>>> R = ring_projectivized(0)
>>> from semifree8.polynomial import Poly
>>> w = 2 * R.gen(0) + Poly.x() * R.gen(1)    # 2*eta + x*xi
>>> (w ** 3).integrate().fmt()
'12*x + 6*x^2 + x^3'
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

from .polynomial import Poly


def _coeff(v):
    if isinstance(v, (Fraction, Poly)):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError("coefficient must be int, Fraction or Poly, got %r" % (v,))


class GradedRing:
    """Base class: a graded ring with degree-2 generators and an integral.

    Subclasses fill in the generator names, the complex top degree and two
    hooks: ``reduce_mono`` rewrites one monomial into a dict of reduced
    monomials with integer multipliers, and ``integral_mono`` pairs a
    reduced top-degree monomial with the fundamental class.
    """

    gens: tuple = ()
    top: int = 0
    name: str = "?"

    def zero(self):
        return RingClass(self, {})

    def one(self):
        return self.scalar(1)

    def scalar(self, c):
        c = _coeff(c)
        if not c:
            return self.zero()
        return RingClass(self, {(0,) * len(self.gens): c})

    def gen(self, i):
        mono = tuple(1 if j == i else 0 for j in range(len(self.gens)))
        return RingClass(self, {mono: Fraction(1)})

    def reduce_mono(self, mono):
        raise NotImplementedError

    def integral_mono(self, mono):
        raise NotImplementedError

    def __repr__(self):
        return "<ring %s>" % self.name


def _accumulate(store, ring, mono, coeff):
    if not coeff:
        return
    for red, mult in ring.reduce_mono(mono).items():
        cur = store.get(red)
        new = coeff * mult if cur is None else cur + coeff * mult
        if new:
            store[red] = new
        elif red in store:
            del store[red]


class RingClass:
    """An element of a GradedRing, kept in reduced form."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    def _check(self, other):
        if other.ring is not self.ring and repr(other.ring) != repr(self.ring):
            raise ValueError("elements of different rings: %s vs %s" % (self.ring, other.ring))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = self.ring.scalar(other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            new = out.get(m, Fraction(0)) + c
            if new:
                out[m] = new
            elif m in out:
                del out[m]
        return RingClass(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return RingClass(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = self.ring.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = _coeff(other)
            return RingClass(self.ring, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                _accumulate(out, self.ring, mono, c1 * c2)
        return RingClass(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("nonnegative integer power required")
        r = self.ring.one()
        for _ in range(n):
            r = r * self
        return r

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = self.ring.scalar(other)
        if not isinstance(other, RingClass):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.name, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def graded_piece(self, k):
        """The part in complex degree k (real degree 2k)."""
        return RingClass(self.ring, {m: c for m, c in self.terms.items() if sum(m) == k})

    def integrate(self):
        """Pair the top-degree part with the fundamental class.

        Lower-degree terms integrate to zero, so inhomogeneous input is
        fine (the total-class convention used by the localization module).
        """
        total = Fraction(0)
        for m, c in self.terms.items():
            if sum(m) == self.ring.top:
                total = total + c * self.ring.integral_mono(m)
        return total

    def fmt(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda mo: (sum(mo), mo)):
            c = self.terms[m]
            names = "*".join(
                g if e == 1 else "%s^%d" % (g, e)
                for g, e in zip(self.ring.gens, m) if e
            )
            cs = c.fmt() if isinstance(c, Poly) else str(c)
            if "+" in cs or "- " in cs:
                cs = "(%s)" % cs
            bits.append(cs if not names else ("%s" % names if cs == "1" else "%s*%s" % (cs, names)))
        return " + ".join(bits)

    def __repr__(self):
        return "<%s in %s>" % (self.fmt(), self.ring.name)


# ----------------------------------------------------------------------
# the four ring families
# ----------------------------------------------------------------------

class _CPn(GradedRing):
    def __init__(self, n):
        if not 1 <= n <= 4:
            raise ValueError("projective space dimension out of range: %d" % n)
        self.n = n
        self.gens = ("h",)
        self.top = n
        self.name = "CP%d" % n

    def reduce_mono(self, mono):
        return {} if mono[0] > self.n else {mono: 1}

    def integral_mono(self, mono):
        assert mono == (self.n,)
        return Fraction(1)


class _P1xP1(GradedRing):
    gens = ("x", "y")
    top = 2
    name = "P1xP1"

    def reduce_mono(self, mono):
        return {} if mono[0] > 1 or mono[1] > 1 else {mono: 1}

    def integral_mono(self, mono):
        assert mono == (1, 1)
        return Fraction(1)


class _Point(GradedRing):
    gens = ()
    top = 0
    name = "point"

    def reduce_mono(self, mono):
        return {mono: 1}

    def integral_mono(self, mono):
        return Fraction(1)


class _Projectivized(GradedRing):
    """H*(P(E)) for a rank-2 bundle over CP^2 with c1(E) = -h, c2(E) = k2.

    Generators: eta (pullback of the CP^2 hyperplane class) and xi (the
    fiberwise relative class), subject to eta^3 = 0 and
    xi^2 = eta*xi - k2*eta^2. Basis: eta^i xi^j with i <= 2, j <= 1, and
    the fiber integral gives integral(eta^2 xi) = 1.

    >>> R = ring_projectivized(8)
    >>> (R.gen(1) ** 3).integrate()
    Fraction(-7, 1)
    """

    gens = ("eta", "xi")
    top = 3

    def __init__(self, k2):
        self.k2 = index(k2)
        self.name = "P(E)/CP2[k2=%d]" % self.k2

    def reduce_mono(self, mono):
        out = {}
        work = [(mono, 1)]
        while work:
            (i, j), mult = work.pop()
            if i > 2:
                continue
            if j <= 1:
                cur = out.get((i, j), 0) + mult
                if cur:
                    out[(i, j)] = cur
                elif (i, j) in out:
                    del out[(i, j)]
                continue
            # xi^2 -> eta*xi - k2*eta^2
            work.append(((i + 1, j - 1), mult))
            work.append(((i + 2, j - 2), -self.k2 * mult))
        return out

    def integral_mono(self, mono):
        assert mono == (2, 1)
        return Fraction(1)


_point_ring = _Point()
_p1xp1_ring = _P1xP1()
_cpn_rings = {}


def ring_point():
    return _point_ring


def ring_cpn(n):
    if n not in _cpn_rings:
        _cpn_rings[n] = _CPn(n)
    return _cpn_rings[n]


def ring_p1xp1():
    return _p1xp1_ring


def ring_projectivized(k2):
    return _Projectivized(k2)
