"""The sweeps against the verifier, candidate by candidate.

Each sweep names, for every choice of its box, the rule that rejects it:
a solved rule, when its solver leaves the choice out, else the chain's
first_failure. Here every chain's choice is built as a dataset and run
through `classify.verification_report`, which shares no rule code with
the chains: the report must FAIL the rule the sweep names, and a
survivor must verify ok. `dh-k-bound` is the closed form of
`dh-positivity`, and the verifier reports the latter for the same data.

The (0,6) and (0,4) no-surface boxes are taken whole. The other chains
give every admitted choice, the ones first_failure runs on, and a seeded
sample of their solved rules' batches. The (4,4) chain does not sweep the
c2 split, so its candidates take the balanced one, the split that keeps
both parts smallest.
"""

import random
from itertools import product
from math import prod

from semifree8 import enumeration
from semifree8.classify import verification_report
from semifree8.enumeration import ADMISSIBLE_SHAPES, _sweep, enumerate_case
from semifree8.model import (
    FixedPointData,
    cp2_extremal,
    cp3_extremal,
    point_component,
    surface_component,
)

SAMPLE = 3000          # candidates per sampled chain, admitted choices included
SAME_RULE = {"dh-k-bound": "dh-positivity"}

MIN = point_component((1, 1, 1, 1))
INDEX4 = point_component((-1, -1, 1, 1))   # a Morse-index-4 point; data repeats it n2 times


# label prefix -> the dataset of one choice of that chain's box
BUILDERS = {
    "shape (0, 6)": lambda m: FixedPointData((MIN, cp3_extremal(-1, m))),
    "shape (2, 4)": lambda n2, kp, s: FixedPointData((
        surface_component(((1, 1), (1, 1), (s - 2, 1))),
        *(INDEX4,) * n2,
        cp2_extremal(-1, kp, 1 + n2))),
    "shape (0, 4) with Morse-index-2 point": lambda n2, kp: FixedPointData((
        MIN, point_component((-1, 1, 1, 1)), *(INDEX4,) * n2,
        cp2_extremal(-1, kp, 1 + n2))),
    "shape (0, 4) with Morse-index-2 sphere": lambda n2, kp, a1, tail: FixedPointData((
        MIN, surface_component(((a1, -1), (tail // 2, 1), (tail - tail // 2, 1))),
        *(INDEX4,) * n2,
        cp2_extremal(-1, kp, 2 + n2))),
    "shape (4, 4)": lambda n2, k1, k2: FixedPointData((
        cp2_extremal(1, k1, (3 + n2) // 2),
        *(INDEX4,) * n2,
        cp2_extremal(-1, k2, (2 + n2) // 2))),
}


def _chains(monkeypatch, b4_max):
    """(label, axes, first_failure, solved, rows) of every sweep, in shape
    order."""
    chains = []

    def recording(label, axes, first_failure, *solved):
        rows, survivors = _sweep(label, axes, first_failure, *solved)
        chains.append((label, axes, first_failure, solved, rows))
        return rows, survivors

    monkeypatch.setattr(enumeration, "_sweep", recording)
    for shape in ADMISSIBLE_SHAPES:
        enumerate_case(shape, b4_max)
    return chains


def _named(first_failure, solved, choice):
    """The rule the sweep names for one choice, or None for a survivor: the
    first solved rule whose solver leaves the choice's value out, else the
    first rule first_failure reports."""
    for depth, (rule_id, _, _, solve) in enumerate(solved, 1):
        if choice[-depth] not in solve(*choice[1:-depth]):
            return rule_id
    failure = first_failure(*choice)
    return None if failure is None else failure[0]


def _admitted(axes, solved):
    """Every choice that passes the solved rules, in loop order."""
    (first, *rest), inner = solved, axes[-1]
    for n2, *head in product(*axes[:-1]):
        if all(head[-depth] in rule[-1](*head[:-depth])
               for depth, rule in enumerate(rest, 1)):
            yield from ((n2, *head, v) for v in first[-1](*head) if v in inner)


def _candidates(axes, first_failure, solved, rng):
    """The whole box, if it has at most SAMPLE choices; else every admitted
    choice and distinct choices drawn at random from the solved rules'
    batches, SAMPLE in all."""
    if prod(map(len, axes)) <= SAMPLE:
        return list(product(*axes))
    admitted = list(_admitted(axes, solved))
    batched, solved_ids = set(), {rule[0] for rule in solved}
    while len(admitted) + len(batched) < SAMPLE:
        choice = tuple(rng.choice(axis) for axis in axes)
        if _named(first_failure, solved, choice) in solved_ids:
            batched.add(choice)
    return admitted + sorted(batched)


def test_every_candidate_fails_in_the_verifier_the_rule_its_sweep_names(monkeypatch):
    rng = random.Random(15)
    mismatches, tallies = [], {}
    for label, axes, first_failure, solved, rows in _chains(monkeypatch, 14):
        build = next(b for prefix, b in BUILDERS.items() if label.startswith(prefix))
        tally = tallies[label] = {}
        for choice in _candidates(axes, first_failure, solved, rng):
            rule_id = _named(first_failure, solved, choice)
            tally[rule_id] = tally.get(rule_id, 0) + 1
            report = verification_report(build(*choice))
            if rule_id is None:
                good = report.ok
            else:
                good = SAME_RULE.get(rule_id, rule_id) in {it.id for it in report.failures}
            if not good:
                mismatches.append((label, choice, rule_id, [it.id for it in report.failures]))
        counts = {r.rule_id: int(r.detail.rsplit("; ", 1)[1].split()[0]) for r in rows}
        if sum(tally.values()) < SAMPLE:
            # a box taken whole names each rule as often as the rows count it
            assert {rid: n for rid, n in tally.items() if rid} == counts, label
        else:
            assert sum(tally.values()) == SAMPLE and set(tally) - {None} <= set(counts)
    assert mismatches == []
    assert {label[:38]: (sum(t.values()), t.get(None)) for label, t in tallies.items()} == {
        "shape (0, 4) with Morse-index-2 sphere": (SAMPLE, 1),
        "shape (0, 4) with Morse-index-2 point ": (14 * 33, 7),
        "shape (0, 6) with no budget-visible in": (33, 1),
        "shape (2, 4) with no budget-visible in": (SAMPLE, 1),
        "shape (4, 4) with no budget-visible in": (SAMPLE, 14)}
