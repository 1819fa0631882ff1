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
"""

import fractions
import sys
from collections import Counter

from semifree8 import dh
from semifree8.classify import catalog, match_fp_class, verification_report
from semifree8.model import reverse_action
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
