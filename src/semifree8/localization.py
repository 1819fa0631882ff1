"""Fixed-component contributions to the equivariant localization sum.

For a semi-free circle action on a closed 8-manifold the integral of 1
localizes to the fixed components, and each component F contributes the
integral over F of the inverse equivariant Euler class of its normal
bundle. Summed over all components this is zero. With weights in
{-1, 0, +1} every contribution is an integer multiple of t^-4, so the
vanishing is a statement about plain integers and this module computes
them two independent ways:

* closed forms, one per normal-bundle variant (the ``contribution``
  method of each normal class), each returning an ``int``, so that
  ``abbv_terms`` and ``abbv_sum`` do integer arithmetic only, and
* a series oracle that builds the equivariant Euler class exactly as a
  Laurent polynomial with coefficients in the component's cohomology
  ring and inverts it, returning a ``Fraction``.

This module holds the closed forms. The oracle lives in
:mod:`semifree8.rings`, next to the rings it reads (``LaurentSeries``,
``equivariant_euler`` and ``contribution_series_oracle``); those names
still import from here, which loads that module on first use, so importing
the package or running any command compiles only the closed forms. An int
and a Fraction compare exactly, so the two routes are held equal with
``==``. The one datum both routes share is each normal's ``chern``, its
total Chern class per weight (see ``_Normal``).

``abbv_terms`` is the public closed-form route, and reads of each
component only ``weights`` and ``normal``, after gating
``model.FixedComponent``s as the dataset they form. A well-typed
``model.FixedComponent`` stores the same closed form, computed once when
it is built, as ``abbv_term``; ``classify.verification_report`` reads those
stored terms instead of calling ``abbv_terms``.

The two routes are kept separate on purpose and tested against each
other; neither is ever defined in terms of the other.
"""

from operator import index

from .record import Record, serve_lazily, set_field

# the series oracle's names, served from semifree8.rings (see above)
__getattr__ = serve_lazily(globals(), dict.fromkeys((
    "LaurentSeries", "contribution_series_oracle", "equivariant_euler"), "rings"))


# ----------------------------------------------------------------------
# normal bundle data, one variant per fixed-component species
# ----------------------------------------------------------------------

class _Normal(Record):
    """The normal bundle N of a component splits by weight, and every
    variant is one datum: for each distinct nonzero weight w of its
    component, in ascending order, the total Chern class c(N_w), whose rank
    is the multiplicity of w. ``chern`` holds one part per weight, each the
    graded pieces c_1, c_2, ... of c(N_w) as coordinates in the monomials
    of that degree of the component ring that ``ring`` names. A point
    states no parts: over it every c(N_w) is 1. ``first_chern``, in the
    generator basis, is the sum of the c_1(N_w).

    Each variant sets those three in ``__init__`` and states its own data
    besides: the ``fingerprint`` tail, the closed-form ``contribution(lam)``
    for lam negative weights (an int) and ``reversed()`` for the circle
    running backwards, all for a well-typed component (the
    ``normal-variant`` rule). By default reversal keeps the data, and only
    an extremal plane pins the ruled density."""

    ruled_k2 = None

    def __init__(self, ring, *chern):
        set_field(self, "ring", ring)
        set_field(self, "chern", chern)
        set_field(self, "first_chern", tuple(map(sum, zip(*(part[0] for part in chern)))))

    def reversed(self):
        return self


class PointNormal(_Normal):
    """Normal bundle of an isolated fixed point: the weights say it all."""

    kind = "point"
    fingerprint = ("pt",)

    def __init__(self):
        super().__init__("point")

    def contribution(self, lam):
        """(-1)^lam, an int: the sign of the product of the four nonzero weights."""
        return (-1) ** lam


class SurfaceNormal(_Normal):
    """Rank-3 split normal bundle of a fixed 2-sphere.

    ``summands`` holds (degree, weight) pairs, weight -1 entries first.
    """

    _fields = ("summands",)
    kind = "surface"

    def __init__(self, summands):
        pairs = tuple(sorted(((index(a), index(w)) for a, w in summands),
                             key=lambda p: (p[1], p[0])))
        if len(pairs) != 3:
            raise ValueError("a fixed surface has a rank-3 normal bundle")
        if any(w not in (-1, 1) for _, w in pairs):
            raise ValueError("normal weights of a surface must be -1 or +1")
        set_field(self, "summands", pairs)
        set_field(self, "fingerprint", ("surf", pairs))
        # on CP^1 the total class of a weight is 1 + (its degree sum) u
        super().__init__("CP1", *[((sum(self.degrees_with_weight(w)),),)
                                  for w in sorted({w for _, w in pairs})])

    def degrees_with_weight(self, w):
        return tuple(a for a, wt in self.summands if wt == w)

    def contribution(self, lam):
        """-(-1)^lam (sum_pos a - sum_neg a), an int."""
        neg = self.degrees_with_weight(-1)
        if len(neg) != lam:
            raise ValueError("surface normal data does not match lam = %d" % lam)
        return -((-1) ** lam) * (sum(self.degrees_with_weight(1)) - sum(neg))

    def reversed(self):
        return SurfaceNormal(tuple((a, -w) for a, w in self.summands))


class FourDimExtremalNormal(_Normal):
    """Rank-2 normal bundle of an extremal 4-dim component, both weights equal.

    c1 is the coefficient of the component's positive degree-2 generator,
    c2 the integral of the second Chern class.
    """

    _fields = ("c1", "c2")
    kind = "fourdim_extremal"

    def __init__(self, c1, c2):
        c1, c2 = index(c1), index(c2)
        set_field(self, "c1", c1)
        set_field(self, "c2", c2)
        # c2 when the total class is 1 - h + c2*h^2, else None
        set_field(self, "ruled_k2", c2 if c1 == -1 else None)
        set_field(self, "fingerprint", ("ext", c1, c2))
        super().__init__("CP2", ((c1,), (c2,)))

    def contribution(self, lam):
        """c1^2 - c2, an int; the sign of the two equal weights drops out."""
        return self.c1 ** 2 - self.c2


def _pairing(a, b):
    """Integral of the product of two degree-2 classes in generator
    coordinates: h^2 = 1 on CP^2, xy = 1 and x^2 = y^2 = 0 on P1xP1."""
    return a[0] * b[0] if len(a) == 1 else a[0] * b[1] + a[1] * b[0]


class FourDimSplitNormal(_Normal):
    """L(-1) + L(+1) normal bundle of an interior 4-dim component.

    ``minus`` and ``plus`` are the first Chern classes of the two line
    bundles in the component's generator basis: one integer on CP^2, a
    bidegree pair on P1xP1.
    """

    _fields = ("minus", "plus")
    kind = "fourdim_split"

    def __init__(self, minus, plus):
        minus = tuple(index(v) for v in minus)
        plus = tuple(index(v) for v in plus)
        if len(minus) != len(plus) or len(minus) not in (1, 2):
            raise ValueError("split normal bundle needs two c1 vectors of length 1 or 2")
        set_field(self, "minus", minus)
        set_field(self, "plus", plus)
        # integral of c2 = c1(L-) c1(L+) over the component
        set_field(self, "c2", _pairing(minus, plus))
        # allows the factor swap on a quadric (a no-op on a plane)
        set_field(self, "fingerprint",
                  ("split",) + min((minus, plus), (minus[::-1], plus[::-1])))
        super().__init__("CP2" if len(minus) == 1 else "P1xP1", (minus,), (plus,))

    def contribution(self, lam):
        """-(u^2 - u v + v^2) integrated over the component, u = c1(L-),
        v = c1(L+): an int."""
        u, v = self.minus, self.plus
        return -(_pairing(u, u) - _pairing(u, v) + _pairing(v, v))

    def reversed(self):
        return FourDimSplitNormal(self.plus, self.minus)


class SixDimNormal(_Normal):
    """Line normal bundle of a 6-dim extremal component, c1 = c1 * generator."""

    _fields = ("c1",)
    kind = "sixdim"

    def __init__(self, c1):
        c1 = index(c1)
        set_field(self, "c1", c1)
        set_field(self, "fingerprint", ("six", c1))
        super().__init__("CP3", ((c1,),))

    def contribution(self, lam):
        """-c1^3, an int; again independent of the weight sign."""
        return -self.c1 ** 3


def contribution(weights, normal):
    """Closed-form localization contribution of one component, an int."""
    return normal.contribution(sum(1 for w in weights if w < 0))


# ----------------------------------------------------------------------
# the localization sum
# ----------------------------------------------------------------------

def abbv_terms(components):
    """Closed-form contribution of each component, in input order: ints.

    components is a dataset or any iterable of objects with ``weights``
    and ``normal``. A dataset that is not well typed raises IllTypedError
    (``model.require_well_typed``), and so do ``model.FixedComponent``s
    that form one: the closed forms hold only for the normal variant that
    fits its component."""
    from .model import FixedComponent, FixedPointData, require_well_typed

    comps = components
    if not isinstance(comps, FixedPointData):
        comps = tuple(comps)
        if all(isinstance(c, FixedComponent) for c in comps):
            # components are gated as the dataset they form, which fails the
            # same checks; a dataset is gated as it is
            components = FixedPointData(comps)
    if isinstance(components, FixedPointData):
        require_well_typed(components, "abbv-vanishing")
    return tuple(contribution(c.weights, c.normal) for c in comps)


def abbv_sum(components):
    """Sum of all localization contributions, an int; zero for realizable
    data. Ill-typed datasets are refused as in ``abbv_terms``."""
    return sum(abbv_terms(components))
