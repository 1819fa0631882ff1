"""The per-dataset values, computed once, against the scans they replaced.

`FixedPointData` computes its unique minimum and maximum, its interior
components and its Betti vector once, as cached properties that are not
dataclass fields; `oriented` reads them on each call, reversing the action
only when `dim_pair` says so. The oracle is the earlier route: scan the
components on every call, and rebuild the reversed dataset for every
orientation. Equality, hashing, repr and the dataclass fields must not see
the cached values.
"""

import dataclasses
import gc
import json
import weakref

from hypothesis import example, given, settings

from semifree8.classify import catalog, enumerate_all, match_fp_class, verification_report
from semifree8.dataio import DataError, dumps_data, loads_data
from semifree8.model import (
    FixedPointData,
    betti_contribution,
    betti_vector,
    dim_pair,
    oriented,
    point_component,
    reverse_action,
)

from test_far_end import PLANE_INSIDE
from test_robustness import documents

# ----------------------------------------------------------------------
# the replaced scans
# ----------------------------------------------------------------------

def oracle_min(data):
    mins = [c for c in data if c.lam == 0]
    return mins[0] if len(mins) == 1 else None


def oracle_max(data):
    maxs = [c for c in data if c.lam == 4 - c.complex_dim]
    return maxs[0] if len(maxs) == 1 else None


def oracle_interior(data):
    lo, hi = oracle_min(data), oracle_max(data)
    return tuple(c for c in data if c is not lo and c is not hi)


def oracle_betti(data):
    return tuple(sum(betti_contribution(c.type, c.lam, i) for c in data)
                 for i in (0, 2, 4, 6, 8))


def oracle_oriented(data):
    lo, hi = oracle_min(data), oracle_max(data)
    if lo is None or hi is None:
        return None
    d1, d2 = 2 * lo.complex_dim, 2 * hi.complex_dim
    if d1 > d2:
        data = reverse_action(data)
    lo, hi = oracle_min(data), oracle_max(data)
    return None if lo is None or hi is None else (
        (min(d1, d2), max(d1, d2)), data, lo, hi, oracle_interior(data))


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------

def check_against_oracle(data):
    fresh = FixedPointData(data.components)
    for _ in range(2):      # the second round reads the cached values
        lo, hi = data.extremes
        assert lo is oracle_min(data) and hi is oracle_max(data)
        assert data.interior == oracle_interior(data)
        assert all(a is b for a, b in zip(data.interior, oracle_interior(data)))
        assert betti_vector(data) == oracle_betti(data)
        got, want = oriented(data), oracle_oriented(data)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0] and got[1] == want[1]
            assert got[2:] == want[2:]
            assert dim_pair(data) == (want[0], want[1] is not data)
            assert (got[1] is data) == (want[1] is data)
    # the cached values are invisible to the dataclass machinery
    assert [f.name for f in dataclasses.fields(data)] == ["components"]
    assert data == fresh and hash(data) == hash(fresh) and repr(data) == repr(fresh)
    assert repr(data) == "FixedPointData(components=%r)" % (data.components,)
    assert hash(data) == hash((data.components,))


# two minima under one maximum, and no minimum at all: the scans give None
# for the extreme that is not unique, and so must the cached values
TWO_MINIMA = FixedPointData((
    point_component((1, 1, 1, 1)),
    point_component((1, 1, 1, 1)),
    point_component((-1, -1, -1, -1)),
))
NO_MINIMUM = FixedPointData((
    point_component((-1, 1, 1, 1)),
    point_component((-1, -1, -1, -1)),
))


def test_catalog_against_oracle():
    for data in catalog().values():
        check_against_oracle(data)
        check_against_oracle(reverse_action(data))


def test_family_members_against_oracle():
    seen = 0
    for result in enumerate_all(14).values():
        for fam in result.families:
            for n2 in range(fam.n2_min, fam.n2_max + 1):
                data = fam.instantiate(n2)
                check_against_oracle(data)
                check_against_oracle(reverse_action(data))
                seen += 1
    assert seen == 25


def test_structurally_invalid_data_against_oracle():
    plane_inside = loads_data(json.dumps(PLANE_INSIDE))
    for data in (plane_inside, TWO_MINIMA, NO_MINIMUM):
        check_against_oracle(data)
        check_against_oracle(reverse_action(data))
    assert TWO_MINIMA.extremes == (None, TWO_MINIMA.components[-1])
    assert oriented(TWO_MINIMA) is None
    assert NO_MINIMUM.extremes[0] is None and oriented(NO_MINIMUM) is None
    assert plane_inside.extremes[1] is None and oriented(plane_inside) is None


@settings(max_examples=200, deadline=None)
@given(documents)
@example(PLANE_INSIDE)
def test_loadable_documents_against_oracle(doc):
    try:
        data = loads_data(json.dumps(doc))
    except DataError:
        return
    check_against_oracle(data)
    check_against_oracle(reverse_action(data))


def test_verified_data_is_freed_by_reference_counting():
    # nothing cached may refer back to its dataset: a value that did would
    # keep every verified dataset alive until the cyclic collector runs
    gc.disable()
    try:
        for entry in catalog().values():
            for build in (lambda: loads_data(dumps_data(entry)), lambda: reverse_action(entry)):
                data = build()
                verification_report(data)
                match_fp_class(data)
                assert oriented(data) is not None
                ref = weakref.ref(data)
                del data
                assert ref() is None
    finally:
        gc.enable()
