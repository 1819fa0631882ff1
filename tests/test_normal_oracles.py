"""Each normal-bundle variant's own data against the ladders it replaced.

The normal classes in `semifree8.localization` state their first Chern
class, contribution, reversal and fingerprint tail, and
`semifree8.dataio` writes each as its kind and fields. Before that, the
same knowledge sat in isinstance ladders over the normal class and in
ring computations; those are kept below as oracles (verbatim but
for names and an inlined degree sum), and the two routes must agree on
every well-typed component in a box and on all the package's own data.
The equivariant Euler class, one loop over each normal's per-weight
Chern classes in `semifree8.rings`, is held to its old ladder, one branch
per variant, term by term, and must refuse Chern data that does not fit
the weights.
A component's ``mismatch`` and ``omega``, set when it is built, must be
what ``_normal_mismatch`` and ``omega_coefficients`` say of it on every
component of the benchmark's families and edits corpora, ill-typed ones
included.

So must every other value a component or a dataset stores when it is
built, against the code that computed it on each call before, on every
component of those corpora, each document as given and reversed: the
localization term against ``contribution`` (None when ill typed), the
fingerprint against the normal's tail behind type and weights, the total
sort key against ``test_dataset_values.oracle_sort_key``, the Betti row against
``betti_contribution``, the weights outside {-1, 0, 1} and the zero-count
flag against scans of the weights, and a dataset's summed rows and
``levels`` against ``kirwan_betti`` and the sorted distinct levels, its
component order against ``oracle_sort_key`` (more than 500 datasets hold
components that only the normal's repr orders), its extremes and interior
(by identity) against scans for the unique minimum and maximum, its
``shape`` against their sorted dimensions, and its ``structural_failures``
and ``well_typed`` flag against the structural items ``validate`` fails.
None of them may be seen by equality, hashing or repr. On the same
corpora, every public rule that reads normal bundle data refuses every
dataset that is not well typed, through the one gate, with an
``IllTypedError`` naming exactly its failed checks (never a raw Python
error), and refuses no well-typed one.

``match_fp_class`` compares the data with the catalog entries of its own
shape only: on the same corpora it must give the class that the matcher
comparing with every entry gave, and a fresh process's first match must
build only the entries of the data's shape.
"""

import importlib.util
import json
import re
from functools import cache
from itertools import product
from pathlib import Path

import pytest

import semifree8
from semifree8.classify import (
    _CATALOG,
    _is_x8_family,
    catalog,
    enumerate_all,
    index_candidates,
    index_from_extremal,
    match_fp_class,
    sphere_constraints,
    sphere_index_rules,
)
from semifree8.dataio import DataError, document_for, dumps_data, loads_data
from semifree8.dh import dh_profile
from semifree8.localization import (
    FourDimExtremalNormal,
    FourDimSplitNormal,
    PointNormal,
    SixDimNormal,
    SurfaceNormal,
    abbv_sum,
    abbv_terms,
    contribution,
)
from semifree8.model import (
    STRUCTURAL,
    ClassifyError,
    ComponentType,
    FixedComponent,
    FixedPointData,
    IllTypedError,
    _normal_mismatch,
    betti_contribution,
    fingerprint,
    kirwan_betti,
    omega_coefficients,
    reverse_action,
    signature_check,
    validate,
)
from semifree8.record import set_field
from semifree8.rings import (
    LaurentSeries,
    equivariant_euler,
    ring_cpn,
    ring_p1xp1,
    ring_point,
)

from test_cold_start import run_child
from test_dataset_values import check_order, oracle_sort_key

# ----------------------------------------------------------------------
# the replaced ladders
# ----------------------------------------------------------------------


def oracle_omega_coefficients(comp):
    t = comp.type
    n = comp.normal
    if t is ComponentType.POINT:
        return None
    if t is ComponentType.CP1:
        return (2 + sum(a for a, _ in n.summands),)
    if t is ComponentType.CP2 and isinstance(n, FourDimExtremalNormal):
        return (3 + n.c1,)
    if t is ComponentType.CP2 and isinstance(n, FourDimSplitNormal):
        return (3 + n.minus[0] + n.plus[0],)
    if t is ComponentType.P1XP1:
        return (2 + n.minus[0] + n.plus[0], 2 + n.minus[1] + n.plus[1])
    if t is ComponentType.CP3:
        return (4 + n.c1,)
    raise ValueError("no symplectic restriction for %r" % (comp,))


def oracle_fingerprint(comp):
    n = comp.normal
    if isinstance(n, PointNormal):
        tail = ("pt",)
    elif isinstance(n, SurfaceNormal):
        tail = ("surf", n.summands)
    elif isinstance(n, FourDimExtremalNormal):
        tail = ("ext", n.c1, n.c2)
    elif isinstance(n, SixDimNormal):
        tail = ("six", n.c1)
    else:
        if len(n.minus) == 2:
            plain = (n.minus, n.plus)
            swapped = ((n.minus[1], n.minus[0]), (n.plus[1], n.plus[0]))
            tail = ("split",) + min(plain, swapped)
        else:
            tail = ("split", n.minus, n.plus)
    return (comp.type.value, comp.weights) + tail


def oracle_normal_document(normal):
    if isinstance(normal, PointNormal):
        return {"kind": "point"}
    if isinstance(normal, SurfaceNormal):
        return {"kind": "surface",
                "summands": [[d, w] for d, w in normal.summands]}
    if isinstance(normal, FourDimExtremalNormal):
        return {"kind": "fourdim_extremal", "c1": normal.c1, "c2": normal.c2}
    if isinstance(normal, FourDimSplitNormal):
        return {"kind": "fourdim_split",
                "minus": list(normal.minus), "plus": list(normal.plus)}
    if isinstance(normal, SixDimNormal):
        return {"kind": "sixdim", "c1": normal.c1}
    raise TypeError("unknown normal variant %r" % (normal,))


def oracle_reverse_normal(normal):
    if isinstance(normal, SurfaceNormal):
        return SurfaceNormal(tuple((a, -w) for a, w in normal.summands))
    if isinstance(normal, FourDimSplitNormal):
        return FourDimSplitNormal(normal.plus, normal.minus)
    return normal


def split_classes(normal):
    if len(normal.minus) == 1:
        ring = ring_cpn(2)
        u = normal.minus[0] * ring.gen(0)
        v = normal.plus[0] * ring.gen(0)
    else:
        ring = ring_p1xp1()
        x, y = ring.gen(0), ring.gen(1)
        u = normal.minus[0] * x + normal.minus[1] * y
        v = normal.plus[0] * x + normal.plus[1] * y
    return u, v


def oracle_euler_fourdim(normal, sign):
    """Equivariant Euler class t^2 + sign*c1*h*t + c2*h^2 on CP^2.

    ``sign`` is the common sign of the two nonzero weights.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    ring = ring_cpn(2)
    h = ring.gen(0)
    return LaurentSeries(ring, {
        2: ring.one(),
        1: sign * normal.c1 * h,
        0: normal.c2 * (h * h),
    })


def oracle_equivariant_euler(weights, normal):
    """The equivariant Euler class of the normal bundle, built exactly."""
    nonzero = [w for w in weights if w]
    if isinstance(normal, PointNormal):
        ring = ring_point()
        out = LaurentSeries.monomial(ring, 0, 1)
        for w in nonzero:
            out = out * LaurentSeries.monomial(ring, 1, w)
        return out
    if isinstance(normal, SurfaceNormal):
        ring = ring_cpn(1)
        u = ring.gen(0)
        out = LaurentSeries.monomial(ring, 0, 1)
        for a, w in normal.summands:
            out = out * LaurentSeries(ring, {1: ring.scalar(w), 0: a * u})
        return out
    if isinstance(normal, FourDimExtremalNormal):
        signs = set(nonzero)
        if len(signs) != 1:
            raise ValueError("extremal 4-dim component needs two equal weights")
        return oracle_euler_fourdim(normal, signs.pop())
    if isinstance(normal, FourDimSplitNormal):
        u, v = split_classes(normal)
        ring = u.ring
        down = LaurentSeries(ring, {1: -ring.one(), 0: u})
        up = LaurentSeries(ring, {1: ring.one(), 0: v})
        return down * up
    if isinstance(normal, SixDimNormal):
        ring = ring_cpn(3)
        (w,) = nonzero
        return LaurentSeries(ring, {1: ring.scalar(w), 0: normal.c1 * ring.gen(0)})
    raise TypeError("unknown normal bundle data: %r" % (normal,))


def oracle_document_for(data):
    return {"dimension": 8, "b2": 1, "components": [
        {"type": c.type.value, "weights": list(c.weights),
         "normal": oracle_normal_document(c.normal)} for c in data]}


# ----------------------------------------------------------------------
# every well-typed component in a box
# ----------------------------------------------------------------------

BOX = range(-5, 6)


def _well_typed_components():
    for lam in range(5):
        yield FixedComponent(ComponentType.POINT, (-1,) * lam + (1,) * (4 - lam),
                             PointNormal())
    for signs in ((-1, -1, -1), (-1, -1, 1), (-1, 1, 1), (1, 1, 1)):
        for degrees in product(BOX, repeat=3):
            yield FixedComponent(ComponentType.CP1, (0,) + signs,
                                 SurfaceNormal(tuple(zip(degrees, signs))))
    for sign, c1, c2 in product((-1, 1), BOX, BOX):
        yield FixedComponent(ComponentType.CP2, (0, 0, sign, sign),
                             FourDimExtremalNormal(c1, c2))
    for m, p in product(BOX, BOX):
        yield FixedComponent(ComponentType.CP2, (0, 0, -1, 1), FourDimSplitNormal((m,), (p,)))
    for m0, m1, p0, p1 in product(BOX, repeat=4):
        yield FixedComponent(ComponentType.P1XP1, (0, 0, -1, 1),
                             FourDimSplitNormal((m0, m1), (p0, p1)))
    for sign, c1 in product((-1, 1), BOX):
        yield FixedComponent(ComponentType.CP3, (0, 0, 0, sign), SixDimNormal(c1))


def test_variants_agree_with_the_ladders_on_a_box():
    kinds = set()
    for comp in _well_typed_components():
        n = comp.normal
        assert _normal_mismatch(comp) is None, comp
        kinds.add(n.kind)
        assert omega_coefficients(comp) == oracle_omega_coefficients(comp)
        assert (comp.type.value, comp.weights) + n.fingerprint == oracle_fingerprint(comp)
        (written,) = document_for(FixedPointData((comp,)))["components"]
        assert written == {"type": comp.type.value, "weights": list(comp.weights),
                           "normal": oracle_normal_document(n)}
        assert n.reversed() == oracle_reverse_normal(n)
        # both are quadratic forms in the line bundle degrees, so agreement
        # on the degrees in -2..2 is agreement everywhere
        if n.kind == "fourdim_split" and max(map(abs, n.minus + n.plus)) <= 2:
            u, v = split_classes(n)
            assert contribution(comp.weights, n) == -(u * u - u * v + v * v).integrate()
            assert n.c2 == (u * v).integrate()
    assert kinds == {"point", "surface", "fourdim_extremal", "fourdim_split", "sixdim"}


def test_euler_class_is_the_ladder_term_by_term():
    kinds = set()
    for comp in _well_typed_components():
        n = comp.normal
        if any(abs(x) > 2 for part in n.chern for piece in part for x in piece):
            continue
        got = equivariant_euler(comp.weights, n)
        want = oracle_equivariant_euler(comp.weights, n)
        assert got.ring is want.ring and got.terms == want.terms, comp
        kinds.add(n.kind)
    assert kinds == {"point", "surface", "fourdim_extremal", "fourdim_split", "sixdim"}


@pytest.mark.parametrize("weights, normal, why", [
    # a six-dim component with two nonzero weights: one part for two weights
    ((0, 0, -1, 1), SixDimNormal(1), "1 Chern parts for the nonzero weights [-1, 1]"),
    # an extremal plane with weights -1 and +1: one part for two weights
    ((0, 0, -1, 1), FourDimExtremalNormal(-1, 4),
     "1 Chern parts for the nonzero weights [-1, 1]"),
    # an extremal plane with one nonzero weight: c2 above the rank, where
    # the ladder returned a value
    ((0, 0, 0, 1), FourDimExtremalNormal(-1, 4), "a degree-2 class in the rank-1 part"),
])
def test_euler_class_refuses_chern_data_that_does_not_fit(weights, normal, why):
    with pytest.raises(ValueError, match=re.escape(why)):
        equivariant_euler(weights, normal)


def _package_data():
    yield from catalog().items()
    for key, result in enumerate_all().items():
        for family in result.families:
            for n2 in range(family.n2_min, family.n2_max + 1):
                yield "%s/%s/%d" % (key, family.key, n2), family.instantiate(n2)


@pytest.mark.parametrize("reverse", [False, True])
def test_catalog_and_families_agree_with_the_ladders(reverse):
    count = 0
    for name, data in _package_data():
        data = reverse_action(data) if reverse else data
        assert fingerprint(data) == tuple(sorted(map(oracle_fingerprint, data))), name
        assert dumps_data(data) == (json.dumps(oracle_document_for(data), indent=2,
                                               sort_keys=True) + "\n"), name
        assert reverse_action(data) == FixedPointData(tuple(
            FixedComponent(c.type, tuple(-w for w in c.weights), oracle_reverse_normal(c.normal))
            for c in data)), name
        count += 1
    assert count > len(catalog())


def bench_corpus():
    """The benchmark's corpus module, bench/corpus.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EDITS_PER_SEED = 630        # the size of a verify-edits corpus in the benchmark


def test_component_facts_are_the_functions_on_the_corpora():
    corpus = bench_corpus()
    texts = [text for _, text in corpus.families_corpus(semifree8, 1)]
    for seed in range(1, 9):
        texts += [text for _, text in corpus.edits_corpus(semifree8, seed, EDITS_PER_SEED)]
    well_typed = ill_typed = 0
    for text in texts:
        try:
            data = loads_data(text)
        except DataError:
            continue
        for c in data:
            assert c.mismatch == _normal_mismatch(c), c
            assert c.omega == omega_coefficients(c), c
            if c.mismatch is None:
                well_typed += 1
            else:
                ill_typed += 1
    assert well_typed > 10000 and ill_typed > 1000


@cache
def corpus_data():
    """Every loadable document of the benchmark's families corpus (seed 1)
    and edits corpora (seeds 1-8), each as given and reversed."""
    corpus = bench_corpus()
    texts = [text for _, text in corpus.families_corpus(semifree8, 1)]
    for seed in range(1, 9):
        texts += [text for _, text in corpus.edits_corpus(semifree8, seed, EDITS_PER_SEED)]
    out = []
    for text in texts:
        try:
            data = loads_data(text)
        except DataError:
            continue
        out += [data, reverse_action(data)]
    return tuple(out)


# a value of the stored kind that no component stores
STORED = {"abbv_term": -99, "sort_key": (99, "x", (), "x"), "fingerprint": ("x",),
          "betti_row": (9, 9, 9, 9, 9), "off_weights": (9,), "zeros_fit": None}


def test_stored_component_values_are_the_code_they_replace():
    well_typed = ill_typed = 0
    for data in corpus_data():
        for c in data:
            assert c.fingerprint == (c.type.value, c.weights) + c.normal.fingerprint, c
            assert c.fingerprint == oracle_fingerprint(c), c
            assert c.sort_key == oracle_sort_key(c), c
            assert c.betti_row == tuple(betti_contribution(c.type, c.lam, i)
                                        for i in (0, 2, 4, 6, 8)), c
            assert c.off_weights == tuple(w for w in c.weights if w not in (-1, 0, 1)), c
            assert c.zeros_fit is (c.weights.count(0) == c.complex_dim), c
            if c.mismatch is None:
                assert c.abbv_term == contribution(c.weights, c.normal), c
                assert type(c.abbv_term) is int
                well_typed += 1
            else:
                assert c.abbv_term is None, c
                ill_typed += 1
    assert well_typed > 20000 and ill_typed > 2000


def test_stored_dataset_values_are_the_code_they_replace():
    ties = 0
    for data in corpus_data():
        # the order, down to which equal component lands where, from the
        # given order, its reversal and an interleaving
        check_order(data.components)
        ties += any(a.sort_key[:3] == b.sort_key[:3] and a.sort_key != b.sort_key
                    for a, b in zip(data.components, data.components[1:]))
        mins = [c for c in data if c.lam == 0]
        maxs = [c for c in data if c.lam == 4 - c.complex_dim]
        lo = mins[0] if len(mins) == 1 else None
        hi = maxs[0] if len(maxs) == 1 else None
        assert data.extremes[0] is lo and data.extremes[1] is hi, data
        interior = [c for c in data if c is not lo and c is not hi]
        assert len(data.interior) == len(interior), data
        assert all(a is b for a, b in zip(data.interior, interior)), data
        assert data.shape == (None if lo is None or hi is None else tuple(
            sorted((2 * lo.complex_dim, 2 * hi.complex_dim)))), data
        assert data.betti == tuple(kirwan_betti(data, i) for i in (0, 2, 4, 6, 8)), data
        assert data.betti == tuple(map(sum, zip(*[c.betti_row for c in data]))), data
        assert data.levels == tuple(sorted({c.level for c in data})), data
        assert fingerprint(data) == tuple(sorted(map(oracle_fingerprint, data))), data
        failed = [it.id for it in validate(data) if it.id in STRUCTURAL and it.verdict != "PASS"]
        assert data.structural_failures == tuple(failed), data
        assert data.well_typed == (not failed), data
    # the edits corpora hold datasets whose order the normals' repr decides
    assert ties > 500


# every public reader of normal bundle data behind the structural gate, with
# the name its refusal gives
GATED = ((signature_check, "signature-self-intersection"),
         (sphere_constraints, "sphere rules"),
         (sphere_index_rules, "index rules"),
         (index_candidates, "fano-index"),
         (index_from_extremal, "fano-index"),
         (dh_profile, "density formulas"),
         (abbv_terms, "abbv-vanishing"),
         (abbv_sum, "abbv-vanishing"))


def test_typed_rules_refuse_ill_typed_data_by_name():
    # the census: the public rules that read normal bundle data run on data
    # past the structural gate, and on the rest raise IllTypedError, a
    # ClassifyError, whose message names exactly the failed checks, never a
    # raw Python error
    assert issubclass(IllTypedError, ClassifyError)
    refused = 0
    for data in corpus_data():
        if data.well_typed:
            for reader, _ in GATED:
                try:
                    reader(data)
                except IllTypedError:
                    raise AssertionError("%s refused well-typed %r" % (reader.__name__, data))
                except ClassifyError:
                    assert reader is index_from_extremal   # no rule, or disagreeing ones
            continue
        why = re.escape("not applied: %s failed" % ", ".join(data.structural_failures))
        for reader, name in GATED:
            with pytest.raises(IllTypedError, match="^%s %s$" % (re.escape(name), why)) as info:
                reader(data)
            assert info.traceback[-1].name == "require_well_typed"
        refused += 1
    assert refused > 6000


def test_stored_component_values_are_invisible_to_the_record():
    seen = 0
    for data in catalog().values():
        for c in reverse_action(data).components + data.components:
            twin = FixedComponent(c.type, c.weights, c.normal)
            for name, value in STORED.items():
                set_field(twin, name, value)
            assert twin == c and hash(twin) == hash(c) and repr(twin) == repr(c)
            assert hash(c) == hash((c.type, c.weights, c.normal))
            assert repr(c) == "FixedComponent(type=%r, weights=%r, normal=%r)" % (
                c.type, c.weights, c.normal)
            seen += 1
    assert seen == 40


@cache
def all_catalog_fingerprints():
    entries = [(case, d) for (_, case, _, _), d in zip(_CATALOG, catalog().values())]
    return [(case, fingerprint(d)) for case, d in entries] + [
        (case, fingerprint(reverse_action(d))) for case, d in entries]


def oracle_match_fp_class(data):
    """The matcher that compared the data with every catalog entry."""
    fp = fingerprint(data)
    for case, entry_fp in all_catalog_fingerprints():
        if fp == entry_fp:
            return case
    return "d" if _is_x8_family(data) else "unclassified"


def test_same_shape_matching_is_the_all_entries_route():
    cases = {}
    for data in corpus_data():
        case = match_fp_class(data)
        assert case == oracle_match_fp_class(data), data
        cases[case] = cases.get(case, 0) + 1
    assert set(cases) == {"a", "b", "c", "d", "unclassified"}, cases


# the class of one document and the family builders the first match of a
# fresh process called
COUNT_BUILDERS = """
import sys
from semifree8 import classify
from semifree8.dataio import loads_data
data = loads_data(sys.argv[1])
builders = {f.builder.__code__ for f in classify._FAMILIES.values()}
calls = []
def count(frame, event, arg):
    if event == "call" and frame.f_code in builders:
        calls.append(frame.f_code.co_name)
sys.setprofile(count)
case = classify.match_fp_class(data)
sys.setprofile(None)
print(case, len(calls))
"""


@pytest.mark.parametrize("name", sorted(catalog()))
def test_first_match_builds_the_entries_of_one_shape(name):
    data = catalog()[name]
    same_shape = sum(other.shape == data.shape for other in catalog().values())
    case = next(case for entry, case, _, _ in _CATALOG if entry == name)
    for doc in (data, reverse_action(data)):
        assert run_child(COUNT_BUILDERS, dumps_data(doc)) == ["%s %d" % (case, same_shape)]
    # without its maximum the data has no shape and builds no entry
    headless = FixedPointData(data.components[:-1])
    assert headless.shape is None
    assert run_child(COUNT_BUILDERS, dumps_data(headless)) == ["unclassified 0"]
