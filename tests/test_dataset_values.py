"""The per-dataset values, computed once, against the scans they replaced.

`FixedPointData` computes its unique minimum and maximum, its interior
components, its Betti vector, its sorted pair of extremal dimensions
(`shape`), its sorted distinct levels (`levels`), the evidence of the
structural checks (`off_weights`, `zeros_fit`, `mismatched`, `n_minima`,
`nonpositive`) and its Morse-index-4 points and four-dimensional
components (`lam2_points`, `fourdim`) when it is built, as attributes
that are not record fields; `dim_pair` and `oriented` read them on each
call, and `oriented` returns the dataset itself, or builds the reversed
dataset only when the minimum is the larger extreme. The oracle is the
earlier route: scan the components on every call (the Morse-index-4
points through the interior, as the rules filtered them, and in shape
(0,0) the four-dimensional components through the interior too), and
rebuild the reversed dataset for every orientation. Equality, hashing,
repr and the record fields must not see the stored values: a copy whose
stored values are overwritten still equals, hashes and prints as the
dataset.

The components of a dataset are sorted once by (level, type, weights,
repr of the normal), a key each component computes when it is built. The
oracle for that order is the same key formatted on every call.
"""

import gc
import itertools
import json
import weakref

from hypothesis import example, given, settings

from semifree8.classify import catalog, enumerate_all, match_fp_class, verification_report
from semifree8.dataio import DataError, dumps_data, loads_data
from semifree8.model import (
    ComponentType,
    FixedPointData,
    betti_contribution,
    betti_vector,
    dim_pair,
    fourdim_interior,
    oriented,
    point_component,
    reverse_action,
)
from semifree8.record import set_field

from test_far_end import PLANE_INSIDE
from test_report_digest import random_documents, single_edits
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


def oracle_shape(data):
    lo, hi = oracle_min(data), oracle_max(data)
    if lo is None or hi is None:
        return None
    return tuple(sorted((2 * lo.complex_dim, 2 * hi.complex_dim)))


def oracle_oriented(data):
    lo, hi = oracle_min(data), oracle_max(data)
    if lo is None or hi is None:
        return None
    if lo.complex_dim > hi.complex_dim:
        data = reverse_action(data)
    return None if oracle_shape(data) is None else data


def oracle_off_weights(data):
    return tuple(sorted({w for c in data for w in c.weights if w not in (-1, 0, 1)}))


def oracle_zeros_fit(data):
    return all(c.weights.count(0) == c.complex_dim for c in data)


def oracle_mismatched(data):
    return tuple(c for c in data if c.mismatch is not None)


def oracle_n_minima(data):
    return sum(1 for c in data if c.lam == 0)


def oracle_nonpositive(data):
    return tuple((c.type.value, c.omega) for c in data
                 if c.mismatch is None and c.type is not ComponentType.POINT
                 and any(e < 1 for e in c.omega))


def oracle_lam2_points(data):
    return tuple(c for c in oracle_interior(data)
                 if c.type is ComponentType.POINT and c.lam == 2)


def oracle_fourdim(data):
    return tuple(c for c in data if c.complex_dim == 2)


def oracle_sort_key(c):
    return (c.level, c.type.value, c.weights, repr(c.normal))


def check_order(components):
    """FixedPointData sorts `components`, given in any order, as the old
    key sorts them, down to which equal component lands where."""
    for given in (components, components[::-1], components[1::2] + components[::2]):
        got = FixedPointData(given).components
        want = sorted(given, key=oracle_sort_key)
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------

def same(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def check_against_oracle(data):
    check_order(data.components)
    fresh = FixedPointData(data.components)
    for _ in range(2):      # a second read finds the same values
        lo, hi = data.extremes
        assert lo is oracle_min(data) and hi is oracle_max(data)
        assert data.interior == oracle_interior(data)
        assert all(a is b for a, b in zip(data.interior, oracle_interior(data)))
        assert betti_vector(data) == oracle_betti(data)
        assert data.shape == oracle_shape(data)
        assert data.levels == tuple(sorted({c.level for c in data}))
        assert data.off_weights == oracle_off_weights(data)
        assert data.zeros_fit is oracle_zeros_fit(data)
        assert data.n_minima == oracle_n_minima(data)
        assert data.nonpositive == oracle_nonpositive(data)
        assert same(data.mismatched, oracle_mismatched(data))
        assert same(data.lam2_points, oracle_lam2_points(data))
        assert same(data.fourdim, oracle_fourdim(data))
        if data.shape == (0, 0):    # both extremes are points: the rules' interior filter
            assert same(data.fourdim, [c for c in oracle_interior(data) if c.complex_dim == 2])
        got, want = oriented(data), oracle_oriented(data)
        assert (got is None) == (want is None)
        if got is not None:
            assert got == want and (got is data) == (want is data)
            assert got.extremes == (oracle_min(want), oracle_max(want))
            assert got.interior == oracle_interior(want)
            assert got.shape == oracle_shape(want)
            assert dim_pair(data) == (oracle_shape(data), want is not data)
    # the stored values are invisible to the record machinery
    assert type(data)._fields == ("components",)
    assert data == fresh and hash(data) == hash(fresh) and repr(data) == repr(fresh)
    assert repr(data) == "FixedPointData(components=%r)" % (data.components,)
    assert hash(data) == hash((data.components,))
    set_field(fresh, "shape", (2, 2) if data.shape is None else None)
    set_field(fresh, "betti", (9, 9, 9, 9, 9))
    set_field(fresh, "levels", (99,))
    set_field(fresh, "off_weights", (7,))
    set_field(fresh, "zeros_fit", not data.zeros_fit)
    set_field(fresh, "n_minima", 99)
    for name in ("mismatched", "nonpositive", "lam2_points", "fourdim"):
        set_field(fresh, name, ("overwritten",))
    assert data == fresh and hash(data) == hash(fresh) and repr(data) == repr(fresh)


# two minima under one maximum, and no minimum at all: the scans give None
# for the extreme that is not unique, and so must the stored values
TWO_MINIMA = FixedPointData((
    point_component((1, 1, 1, 1)),
    point_component((1, 1, 1, 1)),
    point_component((-1, -1, -1, -1)),
))
NO_MINIMUM = FixedPointData((
    point_component((-1, 1, 1, 1)),
    point_component((-1, -1, -1, -1)),
))


# interior planes with equal weights whose split normals differ: only the
# repr orders them, and "(10,)" sorts before "(9,)" as text
TIED_PLANES = (
    fourdim_interior(ComponentType.CP2, (9,), (-1,)),
    fourdim_interior(ComponentType.CP2, (10,), (-2,)),
    fourdim_interior(ComponentType.CP2, (9,), (-1,)),
    fourdim_interior(ComponentType.CP2, (1,), (2,)),
    fourdim_interior(ComponentType.P1XP1, (1, 0), (0, 1)),
    point_component((-1, -1, 1, 1)),
    point_component((-1, -1, 1, 1)),
)


def test_ties_on_the_sort_key_fall_back_to_the_normal_repr():
    for perm in itertools.permutations(TIED_PLANES):
        check_order(perm)
    planes = [c.normal.minus for c in FixedPointData(TIED_PLANES).components
              if c.type is ComponentType.CP2]
    assert planes == [(1,), (10,), (9,), (9,)]


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
    # single edits reach every normal kind and off-range weights of both
    # signs; the random documents reach restrictions of [w] at 0
    plane_inside = loads_data(json.dumps(PLANE_INSIDE))
    docs = [json.loads(dumps_data(data)) for data in catalog().values()]
    docs += [edit for doc in docs for edit in single_edits(doc)]
    docs += list(random_documents(seed=3, count=300))
    for data in [plane_inside, TWO_MINIMA, NO_MINIMUM] + [loads_data(json.dumps(d)) for d in docs]:
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
    # no stored value may refer back to its dataset: a value that did would
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
