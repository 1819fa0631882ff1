"""The X8m matcher against the pattern it replaced.

`_is_x8_family` asks for a (4,4) shape, six interior components and X8m's
volume by halves, read from `total_volume`. The oracle is the earlier
route: it restates the pattern, two ruled planes whose c2 split sums to 8
and six interior points of Morse index 4.
"""

import json
from itertools import product

from hypothesis import given, settings

from semifree8.classify import _is_x8_family, catalog, enumerate_all
from semifree8.dataio import DataError, loads_data
from semifree8.dh import ruled_plane_k2
from semifree8.model import (
    ComponentType,
    FixedPointData,
    cp2_extremal,
    oriented,
    point_component,
    reverse_action,
)

from test_robustness import documents


def oracle_is_x8_family(data):
    data = oriented(data)
    if data is None or data.shape != (4, 4):
        return False
    (lo, hi), inner = data.extremes, data.interior
    if len(inner) != 6 or any(c.type is not ComponentType.POINT or c.lam != 2
                              for c in inner):
        return False
    k2s = (ruled_plane_k2(lo), ruled_plane_k2(hi))
    return None not in k2s and sum(k2s) == 8


def check_against_oracle(data):
    """The verdict on the data as given and reversed, after comparing both."""
    verdicts = []
    for d in (data, reverse_action(data)):
        got = _is_x8_family(d)
        assert got == oracle_is_x8_family(d), d
        verdicts.append(got)
    return verdicts


def test_catalog_against_oracle():
    verdicts = {name: check_against_oracle(data) for name, data in catalog().items()}
    assert verdicts.pop("x8-six-points") == [True, True]
    assert all(v == [False, False] for v in verdicts.values())


def test_family_members_over_splits_against_oracle():
    seen = matched = 0
    for result in enumerate_all(14).values():
        for fam in result.families:
            for n2 in range(fam.n2_min, fam.n2_max + 1):
                if fam.shape == (4, 4):
                    b4 = fam.b4(n2)
                    members = [fam.instantiate(n2, split=(a, b4 - a))
                               for a in range(-2, b4 + 3)]
                else:
                    members = [fam.instantiate(n2)]
                for data in members:
                    matched += sum(check_against_oracle(data))
                    seen += 1
    assert seen == 187
    # the b4 = 8 member of the negative (4,4) branch, at every split
    assert matched == 2 * 13


def test_two_planes_over_all_splits_against_oracle():
    # the family members all split b4 = 8 when six points sit inside; here
    # the planes take any c1 sign and any c2, so splits off 8 occur too
    index4, index2 = point_component((-1, -1, 1, 1)), point_component((-1, 1, 1, 1))
    insides = ((index4,) * 5, (index4,) * 6, (index4,) * 7, (index4,) * 5 + (index2,))
    matched = 0
    for c1s, c2s, inside in product(product((-1, 1), repeat=2),
                                    product(range(-2, 11), repeat=2), insides):
        data = FixedPointData((cp2_extremal(1, c1s[0], c2s[0]), *inside,
                               cp2_extremal(-1, c1s[1], c2s[1])))
        matched += sum(check_against_oracle(data))
    assert matched == 2 * 13      # c1 = -1 on both planes, six points, c2 summing to 8


@settings(max_examples=300, deadline=None)
@given(documents)
def test_loadable_documents_against_oracle(doc):
    try:
        data = loads_data(json.dumps(doc))
    except DataError:
        return
    check_against_oracle(data)
