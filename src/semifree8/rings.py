"""Exact cohomology rings of the fixed-component types.

Four families cover everything this package meets: complex projective
spaces CP^n (n <= 4), the product of two projective lines, a point, and
the ring of a projectivized rank-2 bundle over CP^2 which shows up as
the reduced space near a four-dimensional extremum. The first three are
truncated: each generator vanishes above a fixed power, so one class
serves them. All generators sit in real degree 2. Elements are
dictionaries mapping exponent tuples to coefficients with hand-coded
reduction rules; there is no general Groebner machinery because none is
needed. Each rule is stated once: a ring's ``reduce_mono`` rewrites a
monomial into reduced ones, and its ``top_mono`` names the one reduced
monomial of top degree, which integrates to 1, so an integral is that
monomial's coefficient; ``RingClass`` drops zero terms when it is built,
and lifts a scalar operand (and refuses a class of another ring) in one
helper.

Coefficients are Fraction by default. A polynomial coefficient (the
adjoined variable of :mod:`semifree8.polynomial`) is allowed so that
push-forward densities can be computed symbolically, e.g.

>>> R = ring_projectivized(0)
>>> from semifree8.polynomial import Poly
>>> w = 2 * R.gen(0) + Poly.x() * R.gen(1)    # 2*eta + x*xi
>>> (w ** 3).integrate().fmt()
'12*x + 6*x^2 + x^3'

The rings also carry the localization oracle: ``LaurentSeries`` over a
component ring, the equivariant Euler class of a normal bundle
(``equivariant_euler``, one formula over the per-weight Chern classes
that every normal variant states as ``chern``), and
``contribution_series_oracle``, which inverts that class and reads off
the t^-4 coefficient. The inversion is exact, not truncated: after
factoring out the leading unit the remainder is nilpotent, so the
geometric series ends after at most dim_C(F) + 1 terms, and ``inverse``
refuses a series for which that fails. The closed forms
of :mod:`semifree8.localization` are the production route; this one
shares only the ``chern`` datum with them, and the tests hold the two
equal. No command runs the oracle, so no command compiles this module:
its public names still import from :mod:`semifree8.localization` (and
``contribution_series_oracle`` from the package), which load it on first
use.
"""

from fractions import Fraction
from itertools import product
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

    Subclasses fill in the generator names, ``top_mono``, the one reduced
    monomial of top degree, which integrates to 1, and one hook:
    ``reduce_mono`` rewrites one monomial into a dict of reduced monomials
    with integer multipliers.
    """

    gens: tuple = ()
    top_mono: tuple = ()
    name: str = "?"

    @property
    def top(self):
        """The complex top degree."""
        return sum(self.top_mono)

    def zero(self):
        return RingClass(self, {})

    def one(self):
        return self.scalar(1)

    def scalar(self, c):
        return RingClass(self, {(0,) * len(self.gens): _coeff(c)})

    def gen(self, i):
        mono = tuple(1 if j == i else 0 for j in range(len(self.gens)))
        return RingClass(self, {mono: Fraction(1)})

    def reduce_mono(self, mono):
        raise NotImplementedError

    def __repr__(self):
        return "<ring %s>" % self.name


class RingClass:
    """An element of a GradedRing, kept in reduced form. The constructor
    drops zero terms, so the operators accumulate without pruning."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    def _lift(self, other):
        """``other`` as a class of this ring: a scalar lifts to one, and a
        class of another ring is refused."""
        if not isinstance(other, RingClass):
            return self.ring.scalar(other)
        if other.ring is not self.ring and repr(other.ring) != repr(self.ring):
            raise ValueError("elements of different rings: %s vs %s" % (self.ring, other.ring))
        return other

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in self._lift(other).terms.items():
            out[m] = out.get(m, 0) + c
        return RingClass(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return RingClass(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other, out = self._lift(other), {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                for red, mult in self.ring.reduce_mono(mono).items():
                    out[red] = out.get(red, 0) + c1 * c2 * mult
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
        # equal classes hash alike: __eq__ compares the terms alone, so the
        # ring stays out of the hash, and a constant equals its scalar
        if not any(map(any, self.terms)):
            return hash(next(iter(self.terms.values()), 0))
        return hash(tuple(sorted(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def graded_piece(self, k):
        """The part in complex degree k (real degree 2k)."""
        return RingClass(self.ring, {m: c for m, c in self.terms.items() if sum(m) == k})

    def integrate(self):
        """Pair the top-degree part with the fundamental class: the
        coefficient of the ring's ``top_mono``, the one reduced monomial of
        top degree, which integrates to 1.

        Lower-degree terms integrate to zero, so inhomogeneous input is
        fine (the total-class convention used by the localization module).
        """
        return self.terms.get(self.ring.top_mono, Fraction(0))

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

class _Truncated(GradedRing):
    """Generators g_i cut off above degree caps[i], and the one top
    monomial, the product of the g_i^caps[i], integrating to 1: CP^n is one
    generator capped at n, P1xP1 two capped at 1, a point none."""

    def __init__(self, name, gens, caps):
        self.name = name
        self.gens = gens
        self.caps = self.top_mono = caps

    def reduce_mono(self, mono):
        return {} if any(e > c for e, c in zip(mono, self.caps)) else {mono: 1}


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
    top_mono = (2, 1)

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
                out[(i, j)] = out.get((i, j), 0) + mult
                continue
            # xi^2 -> eta*xi - k2*eta^2
            work.append(((i + 1, j - 1), mult))
            work.append(((i + 2, j - 2), -self.k2 * mult))
        return out


_point_ring = _Truncated("point", (), ())
_p1xp1_ring = _Truncated("P1xP1", ("x", "y"), (1, 1))
_cpn_rings = {}


def ring_point():
    return _point_ring


def ring_cpn(n):
    if not 1 <= n <= 4:
        raise ValueError("projective space dimension out of range: %d" % n)
    if n not in _cpn_rings:
        _cpn_rings[n] = _Truncated("CP%d" % n, ("h",), (n,))
    return _cpn_rings[n]


def ring_p1xp1():
    return _p1xp1_ring


def ring_projectivized(k2):
    return _Projectivized(k2)


# ----------------------------------------------------------------------
# Laurent series over a component ring, and the localization oracle
# ----------------------------------------------------------------------

class LaurentSeries:
    """Finite Laurent polynomial in the equivariant parameter t.

    Coefficients live in a fixed component ring. Only what the oracle
    needs: multiplication, inversion of units, coefficient extraction.
    """

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {k: v for k, v in terms.items() if v}

    @classmethod
    def monomial(cls, ring, power, coeff):
        return cls(ring, {power: coeff if isinstance(coeff, RingClass) else ring.scalar(coeff)})

    def coefficient(self, k):
        return self.terms.get(k, self.ring.zero())

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return LaurentSeries(self.ring, {k: v * other for k, v in self.terms.items()})
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = k1 + k2
                cur = out.get(k)
                out[k] = v1 * v2 if cur is None else cur + v1 * v2
        return LaurentSeries(self.ring, out)

    __rmul__ = __mul__

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, self.ring.zero()) + v
        return LaurentSeries(self.ring, out)

    def __sub__(self, other):
        return self + (other * Fraction(-1))

    def inverse(self):
        """Exact inverse of a unit series s*t^r*(1 - nilpotent): the leading
        coefficient s is +-1 and no lower coefficient has a degree-0 part.
        A series that is not of this form is refused, since the truncated
        geometric series below would not be its inverse."""
        if not self.terms:
            raise ZeroDivisionError("cannot invert the zero series")
        r = max(self.terms)
        s = self.terms[r]
        if s not in (self.ring.one(), -self.ring.one()):
            raise ValueError("leading coefficient must be +-1 for inversion")
        if any(c.graded_piece(0) for k, c in self.terms.items() if k < r):
            raise ValueError("a coefficient below the leading one has a degree-0 part,"
                             " so the series is not a unit times 1 - nilpotent")
        sgn = Fraction(1) if s == self.ring.one() else Fraction(-1)
        # n = 1 - sgn * t^-r * self has strictly positive ring degree,
        # hence is nilpotent and the geometric series below is exact
        unit = LaurentSeries.monomial(self.ring, -r, sgn) * self
        n = LaurentSeries.monomial(self.ring, 0, 1) - unit
        acc = LaurentSeries.monomial(self.ring, 0, 1)
        powr = LaurentSeries.monomial(self.ring, 0, 1)
        for _ in range(self.ring.top):
            powr = powr * n
            acc = acc + powr
        return LaurentSeries.monomial(self.ring, -r, sgn) * acc


def _graded_piece(ring, k, coords):
    """The class of complex degree k with coordinates ``coords`` in the
    degree-k monomials of a truncated ring, the higher powers of the first
    generator first (x before y on P1xP1)."""
    basis = [m for m in product(*(range(cap, -1, -1) for cap in ring.caps)) if sum(m) == k]
    if len(coords) != len(basis):
        raise ValueError("%d coordinates for the degree-%d classes of %s"
                         % (len(coords), k, ring.name))
    return RingClass(ring, {m: _coeff(c) for m, c in zip(basis, coords)})


def equivariant_euler(weights, normal):
    """The equivariant Euler class of the normal bundle, built exactly from
    the normal's ``chern``: e(N) = prod_w sum_i c_i(N_w) (w*t)^(r_w - i)
    over the distinct nonzero weights w, r_w the multiplicity of w (Bott-Tu,
    section 21). Raises ValueError when the parts do not match the distinct
    nonzero weights, or a part holds a class of degree above its rank."""
    # the component ring by the name the normal gives
    ring = next(r for r in (_point_ring, _p1xp1_ring, *map(ring_cpn, range(1, 5)))
                if r.name == normal.ring)
    distinct = sorted({w for w in weights if w})
    # a point states no parts: over it every c(N_w) is 1
    chern = normal.chern or ((),) * len(distinct)
    if len(chern) != len(distinct):
        raise ValueError("%d Chern parts for the nonzero weights %s" % (len(chern), distinct))
    out = LaurentSeries.monomial(ring, 0, 1)
    for w, part in zip(distinct, chern):
        rank = weights.count(w)
        if len(part) > rank:
            raise ValueError("a degree-%d class in the rank-%d part of weight %d"
                             % (len(part), rank, w))
        classes = [ring.one()] + [_graded_piece(ring, i, piece)
                                  for i, piece in enumerate(part, 1)]
        out = out * LaurentSeries(ring, {rank - i: c * w ** (rank - i)
                                         for i, c in enumerate(classes)})
    return out


def contribution_series_oracle(weights, normal):
    """Independent route: invert the equivariant Euler class, take t^-4.

    Returns a Fraction, which must equal the int of :func:`contribution`
    everywhere. Kept free of any reference to the closed forms.
    """
    e = equivariant_euler(weights, normal)
    inv = e.inverse()
    return inv.coefficient(-4).integrate()
