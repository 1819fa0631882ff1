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

W5 is Gr(2,5) cut by two such hyperplanes, with V0 and V1 of dimensions 2
and 3. Gr(2,V0) is a point; on the plane Gr(2,V1) the normal bundle is
W* (x) V0 minus two copies of O(1), of class (1 + h + h^2)^2 / (1 + h)^2.
At W = l0 + l1, with lines l0 in V0 and l1 in V1, the directions of weight
0 are the tangent space of P(V0) x P(V1), which the hyperplanes cut to the
curve C of two (1,1) divisors; the normal directions are Hom(l1, V0/l0)
of weight -1 and Hom(l0, V1/l1) of weight +1. Their Chern classes live in
Z[h1,h2]/(h1^2, h2^3), and degrees on C are integrals against (h1 + h2)^2.
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


def _section_tangent(weights, span, cuts):
    """Weights at a fixed 2-plane W, spanned by vectors of the weights in
    span, of Gr(2, C^n) cut by `cuts` hyperplanes of weight 1."""
    rest = list(weights)
    for w in span:
        rest.remove(w)
    tangent = [q - w for w in span for q in rest]
    for _ in range(cuts):
        tangent.remove(1 - sum(span))
    return tangent


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
        tangent = _section_tangent(weights, span, 4)
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


def _times2(a, b):
    """Product in Z[h1,h2]/(h1^2, h2^3), a class as {(i, j): coefficient of
    h1^i h2^j}."""
    out = {}
    for (i, j), x in a.items():
        for (k, m), y in b.items():
            if i + k < 2 and j + m < 3:
                out[i + k, j + m] = out.get((i + k, j + m), 0) + x * y
    return out


def w5_section_data():
    """Fixed point data of Gr(2, V0 + V1), dimensions 2 and 3, cut by two
    hyperplanes in V0 (x) V1."""
    weights = (0, 0, 1, 1, 1)
    cw = (1, 1, 1)                                  # c(W*) = 1 / (1 - h)
    c = _times(cw, cw)                              # c(W* (x) V0), V0 = C^2
    for _ in range(2):
        c = _times(c, _inverse((1, 1, 0)))          # minus O(1), twice
    # the curve: (h1 + h2)^2 on P(V0) x P(V1), integrated as its h1 h2^2 term
    h1, h2 = {(1, 0): 1}, {(0, 1): 1}
    curve = _times2({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1})
    h1_c, h2_c = (_times2(h, curve).get((1, 2), 0) for h in (h1, h2))
    q = _inverse((1, -1, 0))[1]     # c1(V/l) on P(V), as c(V/l) = 1 / (1 - h)
    down = h2_c + q * h1_c                          # c1(l1* (x) V0/l0) on C
    up = 2 * h1_c + q * h2_c                        # c1(l0* (x) V1/l1) on C
    # the split of the weight +1 bundle is not a Chern number: it rests on
    # T_P2 restricted to a conic being O(3) + O(3), so V1/l1 = T_P2(-1)
    # restricts to O(3 - h2.C) twice and l0* (x) V1/l1 to O(h1.C + 3 - h2.C)
    # twice
    tail = (h1_c + 3 - h2_c,) * 2
    assert sum(tail) == up
    comps = [
        FixedComponent(ComponentType.POINT, _section_tangent(weights, (0, 0), 2),
                       PointNormal()),
        FixedComponent(ComponentType.CP1, _section_tangent(weights, (0, 1), 2),
                       SurfaceNormal([(down, -1)] + [(a, 1) for a in tail])),
        FixedComponent(ComponentType.CP2, _section_tangent(weights, (1, 1), 2),
                       FourDimExtremalNormal(c[1], c[2])),
    ]
    return FixedPointData(comps), c, (h1_c, h2_c), (down, up)


def test_w5_surface_and_plane_from_grassmannian_section():
    data, c, (h1_c, h2_c), (down, up) = w5_section_data()
    assert c == (1, 0, 2)
    assert (h1_c, h2_c) == (1, 2) and (down, up) == (3, 4)
    assert [comp.weights for comp in data] == [(1, 1, 1, 1), (-1, 0, 1, 1), (-1, -1, 0, 0)]
    assert fingerprint(data) == fingerprint(catalog()["w5-surface-and-plane"])
