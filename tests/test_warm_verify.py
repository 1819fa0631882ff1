"""The warm verify path does no Fraction or Poly key work.

Once a document's density profile has been checked, verifying it again
reads the profile's certificate items off the profile, and the
localization terms are ints. So after one warm-up pass,
``verification_report`` plus ``match_fp_class`` over the same documents
make no call into the ``fractions`` module and no call to ``Poly.__eq__``
or ``Poly.__hash__``. The calls are counted with ``sys.setprofile`` on
this process; the warm-up pass, run from empty caches under the same
counter, shows that the counter sees such calls when they happen.

The documents are the families box of ``tests/test_density_memo.py`` and
every catalog entry, each as given and reversed.

The loader builds each distinct component once per process, so after a
warm-up pass loading the same documents again runs no
``FixedComponent.__init__`` and no normal bundle's ``__init__``, and
returns the very components of the warm-up pass.
"""

import fractions
import sys
from collections import Counter

from semifree8 import dataio, dh
from semifree8.classify import catalog, match_fp_class, verification_report
from semifree8.dataio import dumps_data, loads_data
from semifree8.localization import _Normal
from semifree8.model import FixedComponent, reverse_action
from semifree8.polynomial import Poly
from test_density_memo import family_members

WATCHED = {Poly.__eq__.__code__: "Poly.__eq__", Poly.__hash__.__code__: "Poly.__hash__"}


def documents():
    docs = family_members() + list(catalog().values())
    return docs + [reverse_action(d) for d in docs]


def counted_pass(docs):
    """The reports and classes of one pass, and the watched calls it made."""
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
        out = [(verification_report(d).lines(), match_fp_class(d)) for d in docs]
    finally:
        sys.setprofile(None)
    return out, calls


def test_warm_pass_makes_no_fraction_or_poly_key_call():
    docs = documents()
    assert len(docs) > 300
    dh.clear_caches()
    cold, cold_calls = counted_pass(docs)
    # building and certifying the pieces does Fraction and Poly key work
    assert cold_calls["fractions"] > 0
    assert cold_calls["Poly.__hash__"] > 0
    warm, warm_calls = counted_pass(docs)
    assert warm == cold
    assert warm_calls == Counter({"verification_report": len(docs)})


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
