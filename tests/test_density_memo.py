"""The memoized density layer against itself cold and against a fresh route.

`semifree8.dh` caches each profile on what the formulas pin next to its two
ends, never on a document, and a profile certifies each of its pieces once,
when it is built. A hit must return what a fresh call returns. So the
report lines of ``positivity_check(dh_profile(d))`` must be the same three
ways:

* with the profile cache emptied before each document (cold),
* after the whole corpus has run once (warm), when each profile answers
  with the items certified when it was built, with no piece certified and
  no Sturm chain built, and
* from `positive_on_open` on freshly built `Poly`s, with the items
  formatted as the layer formats them.

The documents are every family member of ``enumerate_all(14)`` over a box
of free splits like the benchmark's families corpus, every catalog entry as
given and reversed, and the documents of the report digest
(``tests/test_report_digest.py``) that pass the structural gate.

A piece's certificate writes its endpoints as it is given them and has no
branch for an empty interval; on every well-typed dataset of the
benchmark's corpora each piece has exact endpoints in level order, an int
when integral, else a Fraction, never a float.
"""

import json
from fractions import Fraction

from semifree8 import dh
from semifree8.classify import catalog, enumerate_all
from semifree8.dataio import loads_data
from semifree8.dh import dh_profile, positivity_check
from semifree8.model import (
    STRUCTURAL,
    CheckItem,
    ConstraintReport,
    pass_fail,
    reverse_action,
    validate,
)
from semifree8.polynomial import Poly, positive_on_open
from test_normal_oracles import corpus_data
from test_poly_kernel import count_chain_builds
from test_report_digest import corpus as digest_corpus


def free_choices(family, n2):
    """The free choices of one member, in the benchmark corpus's box."""
    if family.key == "4,4/negative":
        b4 = 2 + n2
        return [{"split": (a, b4 - a)} for a in range(-2, b4 + 3)]
    if family.key == "4,4/positive":
        return [{"split": (a, 2 - a)} for a in range(-5, 8)]
    if family.key == "0,4/with-surface":
        return [{"tail": (a, 4 - a)} for a in range(-5, 3)]
    if family.key == "2,4":
        return [{"degrees": (d1, d2, 3 - d1 - d2)} for d1 in range(-4, 2)
                for d2 in range(d1, 8) if d2 <= 3 - d1 - d2]
    return [{}]


def family_members():
    return [family.instantiate(n2, **kwargs)
            for result in enumerate_all(14).values()
            for family in result.families
            for n2 in range(family.n2_min, family.n2_max + 1)
            for kwargs in free_choices(family, n2)]


def past_the_gate(data):
    return all(it.verdict == "PASS" for it in validate(data) if it.id in STRUCTURAL)


def documents():
    docs = family_members()
    for data in catalog().values():
        docs += [data, reverse_action(data)]
    for doc in digest_corpus():
        data = loads_data(json.dumps(doc))
        docs += [d for d in (data, reverse_action(data)) if past_the_gate(d)]
    return docs


def count_certificates(monkeypatch):
    """The pieces certified from here on, as ``count_chain_builds`` counts
    chain builds."""
    pieces = []
    certify = dh._certificate

    def counting(poly, lo, hi):
        pieces.append((poly, lo, hi))
        return certify(poly, lo, hi)
    monkeypatch.setattr(dh, "_certificate", counting)
    return pieces


def fresh_lines(profile):
    """The report of positivity_check, rebuilt on fresh Polys."""
    rep = ConstraintReport()
    if not profile.pieces:
        rep.append(CheckItem("dh-positivity", "INFO",
                             "no density piece is pinned for this configuration"))
        return rep.lines()
    for pc in profile.pieces:
        poly = Poly(pc.poly.coeffs)
        ok, detail = positive_on_open(poly, pc.lo, pc.hi)
        rep.append(pass_fail("dh-positivity", ok,
                             "%s on (%s, %s): %s" % (poly.fmt("L"), pc.lo, pc.hi, detail)))
    rep.extend(profile.warnings)
    return rep.lines()


def test_cold_warm_and_fresh_reports_agree(monkeypatch):
    docs = documents()
    assert len(docs) > 300
    certified = count_certificates(monkeypatch)
    cold = []
    for data in docs:
        dh._profile.cache_clear()
        profile = dh_profile(data)
        cold.append((profile, positivity_check(profile).lines()))
    # each cold build certifies each of its pieces once
    assert len(certified) == sum(len(profile.pieces) for profile, _ in cold) > 0
    # the corpus reaches every kind of piece, passing and failing
    lines = [line for _, got in cold for line in got]
    assert any(line.startswith("FAIL dh-positivity") for line in lines)
    assert any(line.startswith("WARN dh-seam") for line in lines)
    assert any(line.startswith("INFO dh-positivity") for line in lines)
    for data in docs:                   # warm the caches with the whole corpus
        positivity_check(dh_profile(data))
    before = len(certified)
    builds = count_chain_builds(monkeypatch)
    for data, (profile, got) in zip(docs, cold):
        warm = dh_profile(data)
        assert warm == profile
        assert positivity_check(warm).lines() == got
    # a warm profile carries the items certified when it was built: the
    # warm loop certifies no piece and builds no Sturm chain
    assert len(certified) == before
    assert builds == []
    for profile, got in cold:
        assert fresh_lines(profile) == got


def test_documents_whose_ends_read_alike_share_a_profile():
    # two tails of the surface between the same isolated minimum and the same
    # maximum: different documents, alike at both ends
    fam = [f for f in enumerate_all(14)[(0, 4)].families if f.key == "0,4/with-surface"][0]
    one, other = fam.instantiate(0, tail=(2, 2)), fam.instantiate(0, tail=(1, 3))
    assert one != other
    assert [dh._end(one, e) for e in (1, -1)] == [dh._end(other, e) for e in (1, -1)]
    dh._profile.cache_clear()
    first = dh_profile(one)
    assert dh._profile.cache_info()[:2] == (0, 1)         # (hits, misses)
    assert dh_profile(other) is first
    assert dh._profile.cache_info()[:2] == (1, 1)


def test_each_profile_build_certifies_each_of_its_pieces_once(monkeypatch):
    # the same plane with k2 = 3 at the minimum, different planes at the maximum
    fam = [f for f in enumerate_all(14)[(4, 4)].families if f.key == "4,4/negative"][0]
    one, other = fam.instantiate(6, split=(3, 5)), fam.instantiate(7, split=(3, 6))
    assert dh._end(one, 1) == dh._end(other, 1) and dh._end(one, -1) != dh._end(other, -1)
    dh._profile.cache_clear()
    certified = count_certificates(monkeypatch)
    first = dh_profile(one)
    second = dh_profile(other)
    assert first != second
    assert first.pieces[0] == second.pieces[0]
    assert first.pieces[1] != second.pieces[1]
    # each build certifies its own pieces, the shared end's piece included,
    # in level order, and nothing else
    assert certified == [(pc.poly, pc.lo, pc.hi) for pc in first.pieces + second.pieces]
    assert positivity_check(second).items == list(second.items + second.warnings)
    assert len(certified) == len(first.pieces) + len(second.pieces)


def exact_level(v):
    """v is canonical and exact: an int when integral, else a Fraction, never
    a float."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def test_every_piece_of_a_well_typed_profile_runs_up_between_exact_levels():
    # a piece's certificate writes its endpoints as given and certifies with
    # no empty-interval branch: both hold because every piece that a
    # well-typed dataset pins has canonical exact endpoints in level order,
    # so one level writes one text
    pieces = 0
    for data in corpus_data():
        if not data.well_typed:
            continue
        for pc in dh_profile(data).pieces:
            assert exact_level(pc.lo) and exact_level(pc.hi), (data, pc)
            assert pc.lo < pc.hi, (data, pc)
            pieces += 1
    assert pieces > 3000
