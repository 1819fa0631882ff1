"""Each normal-bundle variant's own data against the ladders it replaced.

The normal classes in `semifree8.localization` state their first Chern
class, contribution, reversal and fingerprint tail, and
`semifree8.dataio` writes each as its kind and fields. Before that, the
same knowledge sat in isinstance ladders over the normal class and in
ring computations; those are kept below as oracles (verbatim but
for names and an inlined degree sum), and the two routes must agree on
every well-typed component in a box and on all the package's own data.
A component's ``mismatch`` and ``omega``, set when it is built, must be
what ``_normal_mismatch`` and ``omega_coefficients`` say of it on every
component of the benchmark's families and edits corpora.
"""

import importlib.util
import json
from itertools import product
from pathlib import Path

import pytest

import semifree8
from semifree8.classify import catalog, enumerate_all
from semifree8.dataio import DataError, document_for, dumps_data, loads_data
from semifree8.localization import (
    FourDimExtremalNormal,
    FourDimSplitNormal,
    PointNormal,
    SixDimNormal,
    SurfaceNormal,
    _split_classes,
    contribution,
)
from semifree8.model import (
    ComponentType,
    FixedComponent,
    FixedPointData,
    _normal_mismatch,
    fingerprint,
    omega_coefficients,
    reverse_action,
)

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
            u, v = _split_classes(n)
            assert contribution(comp.weights, n) == -(u * u - u * v + v * v).integrate()
            assert n.c2 == (u * v).integrate()
    assert kinds == {"point", "surface", "fourdim_extremal", "fourdim_split", "sixdim"}


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
            if c.mismatch is None:
                assert c.omega == omega_coefficients(c), c
                well_typed += 1
            else:
                assert c.omega is None, c
                ill_typed += 1
    assert well_typed > 10000 and ill_typed > 1000
