"""The verify path does no Poly key work, and warm no Fraction work.

The density layer's one cache is keyed on end descriptions, which hold no
``Poly``, so ``verification_report`` plus ``match_fp_class`` make no call
to ``Poly.__eq__`` or ``Poly.__hash__``, cold or warm. Once a document's
density profile has been built, verifying it again reads the profile's
certified items off the profile, and the localization terms are ints. So
after one warm-up pass, the same documents make no call into the
``fractions`` module either. The calls are counted with ``sys.setprofile``
on this process; the warm-up pass, run from an empty profile cache under
the same counter, shows that the counter sees Fraction calls when they
happen, and hashing one ``Poly`` under it shows the same for the
``Poly`` key calls.

The documents are the families box of ``tests/test_density_memo.py`` and
every catalog entry, each as given and reversed.

The loader builds each distinct component once per process, so after a
warm-up pass loading the same documents again runs no
``FixedComponent.__init__`` and no normal bundle's ``__init__``, and
returns the very components of the warm-up pass.

The rules read each dataset's stored shape and orientation and each
component's stored ``omega``: on a warm pass ``reverse_action`` runs once
for each document whose minimum is the larger extreme, and
``omega_coefficients`` only inside ``FixedComponent.__init__``, for the
components that reversal builds.

Every per-component term is stored when the component is built, and a
report orients once and hands each rule the upright dataset: on a warm
pass ``verification_report`` calls ``sphere_constraints``,
``sphere_index_rules`` and ``total_volume`` once each, and
``reverse_action`` once for a document whose minimum is the larger
extreme and never for an upright one, and no localization
``contribution`` (the function or a normal's method) and no
``betti_contribution`` runs outside ``FixedComponent.__init__``.
``match_fp_class`` reverses nothing: it reads the data as given.
"""

import fractions
import sys
from collections import Counter

from semifree8 import dataio, dh, localization
from semifree8.classify import (
    catalog,
    match_fp_class,
    sphere_constraints,
    sphere_index_rules,
    verification_report,
)
from semifree8.dataio import dumps_data, loads_data
from semifree8.localization import _Normal
from semifree8.model import (
    FixedComponent,
    betti_contribution,
    omega_coefficients,
    reverse_action,
)
from semifree8.polynomial import Poly
from test_density_memo import family_members

WATCHED = {Poly.__eq__.__code__: "Poly.__eq__", Poly.__hash__.__code__: "Poly.__hash__"}


def documents():
    docs = family_members() + list(catalog().values())
    return docs + [reverse_action(d) for d in docs]


def counted(run):
    """What ``run()`` returns, and the watched calls it made."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename == fractions.__file__:
                calls["fractions"] += 1
            elif code in WATCHED:
                calls[WATCHED[code]] += 1
            elif code is verification_report.__code__:
                calls["verification_report"] += 1

    sys.setprofile(profile)
    try:
        return run(), calls
    finally:
        sys.setprofile(None)


def counted_pass(docs):
    """The reports and classes of one pass, and the watched calls it made."""
    return counted(lambda: [(verification_report(d).lines(), match_fp_class(d)) for d in docs])


def test_warm_pass_makes_no_fraction_or_poly_key_call():
    x = Poly.x()
    assert counted(lambda: hash(x))[1] == Counter({"Poly.__hash__": 1})
    docs = documents()
    assert len(docs) > 300
    dh._profile.cache_clear()
    cold, cold_calls = counted_pass(docs)
    # building and certifying the pieces does Fraction work, but no cache
    # key holds a Poly, so not even the cold pass hashes or compares one
    assert cold_calls["fractions"] > 0
    assert cold_calls["Poly.__eq__"] == cold_calls["Poly.__hash__"] == 0
    warm, warm_calls = counted_pass(docs)
    assert warm == cold
    assert warm_calls == Counter({"verification_report": len(docs)})


def needs_reversal(data):
    """The minimum, found by scanning, is the larger extreme."""
    mins = [c for c in data if c.lam == 0]
    maxs = [c for c in data if c.lam == 4 - c.complex_dim]
    return (len(mins) == len(maxs) == 1
            and mins[0].complex_dim > maxs[0].complex_dim)


def test_warm_pass_reverses_once_and_reads_stored_omega():
    docs = documents()
    for d in docs:
        verification_report(d)
        match_fp_class(d)
    calls = Counter()
    init = FixedComponent.__init__.__code__

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is reverse_action.__code__:
            calls["reverse_action"] += 1
        elif frame.f_code is omega_coefficients.__code__:
            calls["omega inside __init__" if frame.f_back.f_code is init else "omega"] += 1

    sys.setprofile(profile)
    try:
        for d in docs:
            verification_report(d)
            match_fp_class(d)
    finally:
        sys.setprofile(None)
    reversed_docs = sum(map(needs_reversal, docs))
    assert reversed_docs == 46
    assert calls["reverse_action"] == reversed_docs
    assert calls["omega"] == 0 and calls["omega inside __init__"] > 0


TERMS = {code: name for name, code in
         [("contribution", localization.contribution.__code__),
          ("betti_contribution", betti_contribution.__code__)]
         + [("contribution", cls.contribution.__code__) for cls in _Normal.__subclasses__()]}
RULES = {code: name for name, code in
         [("sphere_constraints", sphere_constraints.__code__),
          ("sphere_index_rules", sphere_index_rules.__code__),
          ("total_volume", dh.total_volume.__code__),
          ("reverse_action", reverse_action.__code__)]}


def test_warm_report_reverses_at_most_once_and_reads_stored_terms():
    docs = documents()
    assert len(docs) == 464
    for d in docs:
        verification_report(d)
        match_fp_class(d)
    calls = Counter()
    init = FixedComponent.__init__.__code__

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in RULES:
            calls[RULES[code]] += 1
        elif code in TERMS:
            inside = frame.f_back.f_code is init
            calls[TERMS[code] + (" inside __init__" if inside else "")] += 1

    per_report = []
    sys.setprofile(profile)
    try:
        for d in docs:
            before = calls.copy()
            verification_report(d)
            per_report.append(calls - before)
        reversals = calls["reverse_action"]
        for d in docs:
            match_fp_class(d)
    finally:
        sys.setprofile(None)
    for d, got in zip(docs, per_report):
        # each rule once, and one reversal for a reversed document, none for
        # an upright one, however many rules orient it
        assert got["sphere_constraints"] == got["sphere_index_rules"] == 1, d
        assert got["total_volume"] == 1, d
        assert got["reverse_action"] == needs_reversal(d), d
    assert reversals == 46
    # match_fp_class reads the data as given: its total_volume calls (the
    # X8m test) reverse nothing
    assert calls["total_volume"] > len(docs)
    assert calls["reverse_action"] == reversals
    # reversing for a report builds components, each computing its term
    assert calls["contribution inside __init__"] > 0
    assert calls["contribution"] == calls["betti_contribution"] == 0


BUILDERS = {cls.__init__.__code__: cls.__name__
            for cls in [FixedComponent] + _Normal.__subclasses__() if "__init__" in vars(cls)}


def counted_loads(texts):
    """The data loaded from each text, and the component and normal
    constructors run while loading."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in BUILDERS:
            calls[BUILDERS[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        out = [loads_data(text) for text in texts]
    finally:
        sys.setprofile(None)
    return out, calls


def test_warm_load_builds_no_component():
    texts = [dumps_data(d) for d in documents()]
    dataio._component.cache_clear()
    cold, cold_calls = counted_loads(texts)
    assert cold_calls["FixedComponent"] > 0 and cold_calls["FourDimSplitNormal"] > 0
    warm, warm_calls = counted_loads(texts)
    assert warm_calls == Counter()
    assert warm == cold
    assert all(a is b for x, y in zip(warm, cold) for a, b in zip(x, y))
