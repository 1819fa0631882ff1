"""The P4, Q4 and X8m catalog entries, derived from linear circle actions.

A weight vector w on C^5 (or C^6) acts on P4 (or on the quadric Q4 =
{x0x5 + x1x4 + x2x3 = 0} in P5, where every monomial of the equation has
the same weight chi). The fixed components are the projective spaces
P(V_w) of the weight spaces, and inside Q: P(V_w) itself when 2w != chi
(the equation vanishes on V_w), its quadric P(V_w) cut with Q when 2w =
chi. At a point of P(V_w) a direction in V_w' has weight w' - w, and
inside Q the normal line of Q, of weight chi - 2w, drops out. The normal
bundle of P(V_w) in the ambient P is the sum of O(1) (x) V_w' over w' !=
w, so a sphere has normal degrees 1, a CP3 has c1 = 1, an extremal plane
has c(N) = (1+h)^k, divided by c(O(2)) = 1 + 2h inside Q, and the
quadric surface has normal O(1,1) on each side.

The derived data must have the catalog entry's fingerprint exactly, not up
to reversal, so this also pins the sign convention of the weights.

X8m is the Grassmannian Gr(2,6) cut by four hyperplanes, here taken in
the summand V0 (x) V1 of the Pluecker space, with C^6 = V0 + V1 of
dimensions 3 and 3 and weights 0 and 1. A fixed 2-plane W is spanned by
weight vectors, its tangent space in Gr(2,6) is Hom(W, C^6/W), and each
hyperplane, a linear form of weight 1 on V0 (x) V1, drops one direction of
weight 1 - (weights of W). The fixed planes Gr(2,V0) and Gr(2,V1) lie in
every hyperplane; on each, with h the Pluecker class, W* has total class
1/(1 - h) = 1 + h + h^2, so the normal bundle has class (1 + h + h^2)^3 /
(1 + h)^4. The fixed P(V0) x P(V1) meets the four hyperplanes in the
points counted by the integral of (h1 + h2)^4.
"""

from math import comb

import pytest

from semifree8.classify import catalog
from semifree8.localization import (
    FourDimExtremalNormal,
    FourDimSplitNormal,
    PointNormal,
    SixDimNormal,
    SurfaceNormal,
)
from semifree8.model import ComponentType, FixedComponent, FixedPointData, fingerprint

Q4 = ((0, 5), (1, 4), (2, 3))   # the coordinate pairs of the quadric's monomials


def _times(a, b):
    """Product of two total Chern classes a0 + a1 h + a2 h^2, cut at h^2."""
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(3))


def _inverse(a):
    """1 / a for a total class a = 1 + a1 h + a2 h^2, cut at h^2."""
    return (1, -a[1], a[1] * a[1] - a[2])


def derived_data(weights, quadric=None):
    chi = None
    if quadric is not None:
        (chi,) = {weights[i] + weights[j] for i, j in quadric}
    comps = []
    for w in sorted(set(weights)):
        cut = 2 * w == chi                   # P(V_w) meets Q in a quadric
        tangent = [0] * (weights.count(w) - 1) + [v - w for v in weights if v != w]
        if chi is not None:
            tangent.remove(chi - 2 * w)
        normal = sorted(x for x in tangent if x)
        dim = len(tangent) - len(normal)
        if dim == 0:
            comps.append(FixedComponent(ComponentType.POINT, tangent, PointNormal()))
        elif dim == 1:
            comps.append(FixedComponent(ComponentType.CP1, tangent,
                                        SurfaceNormal([(1, x) for x in normal])))
        elif dim == 2 and cut:
            assert normal == [-1, 1]
            comps.append(FixedComponent(ComponentType.P1XP1, tangent,
                                        FourDimSplitNormal((1, 1), (1, 1))))
        elif dim == 2:
            assert len(set(normal)) == 1     # an extremal plane
            c = (1, 0, 0)
            for _ in range(len(normal) + (chi is not None)):
                c = _times(c, (1, 1, 0))
            if chi is not None:
                c = _times(c, (1, -2, 4))    # 1 / (1 + 2h)
            comps.append(FixedComponent(ComponentType.CP2, tangent,
                                        FourDimExtremalNormal(c[1], c[2])))
        else:
            assert dim == 3 and len(normal) == 1
            comps.append(FixedComponent(ComponentType.CP3, tangent, SixDimNormal(1)))
    return FixedPointData(comps)


@pytest.mark.parametrize("name, weights, quadric", [
    ("p4-isolated-min", (0, 1, 1, 1, 1), None),
    ("p4-sphere-min", (0, 0, 1, 1, 1), None),
    ("q4-two-planes", (0, 0, 0, 1, 1, 1), Q4),
    ("q4-interior-quadric", (0, 1, 1, 1, 1, 2), Q4),
])
def test_catalog_entry_from_linear_action(name, weights, quadric):
    data = derived_data(weights, quadric)
    assert fingerprint(data) == fingerprint(catalog()[name])


def grassmannian_section_data():
    """Fixed point data of Gr(2, V0 + V1) cut by four hyperplanes in V0 (x) V1."""
    weights = (0, 0, 0, 1, 1, 1)
    cw = (1, 1, 1)                                  # c(W*) = 1 / (1 - h)
    c = _times(_times(cw, cw), cw)                  # c(W* (x) V'), V' = C^3
    for _ in range(4):
        c = _times(c, _inverse((1, 1, 0)))          # minus O(1), four times
    points = comb(4, 2)         # (h1 + h2)^4 on P2 x P2: its h1^2 h2^2 term
    comps = []
    for span in ((0, 0), (0, 1), (1, 1)):           # the weights of W
        rest = list(weights)
        for w in span:
            rest.remove(w)
        tangent = [q - w for w in span for q in rest]
        for _ in range(4):
            tangent.remove(1 - sum(span))
        if span == (0, 1):
            comps += [FixedComponent(ComponentType.POINT, tangent, PointNormal())
                      for _ in range(points)]
        else:
            comps.append(FixedComponent(ComponentType.CP2, tangent,
                                        FourDimExtremalNormal(c[1], c[2])))
    return FixedPointData(comps), c, points


def test_x8_six_points_from_grassmannian_section():
    data, c, points = grassmannian_section_data()
    assert c == (1, -1, 4) and points == 6
    assert fingerprint(data) == fingerprint(catalog()["x8-six-points"])
