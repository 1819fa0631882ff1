"""The loader builds each distinct fixed component once per process.

`semifree8.dataio` runs every exact-type reader of a component node and
then builds the component through one bounded cache, keyed on the type
name, the weights and the normal's kind and field values as read. So:

* equal component nodes, in one document or in two, load as one object;
* a value that only equals an integer (``true``, ``1.0``) never reaches the
  cache: it fails its reader with the same ``DataError`` text and path as
  the loader of ``tests/test_structural_oracles.py``, which keeps no cache,
  even right after the valid node it was copied from has loaded;
* a node a normal's constructor refuses raises on every load, since a
  refusal is never cached;
* reports and fixed point classes read the same from a cold cache and a
  warm one.
"""

import copy
import json

from semifree8 import dataio
from semifree8.classify import catalog
from semifree8.dataio import DataError, dumps_data, loads_data
from semifree8.model import reverse_action

from test_density_memo import family_members
from test_report_digest import corpus as digest_corpus
from test_report_digest import outcome
from test_structural_oracles import load_both


def catalog_documents():
    return [json.loads(dumps_data(d)) for d in catalog().values()]


def int_leaves(node, path=()):
    """(key path, value) of every integer leaf below a JSON node."""
    for key, value in (node.items() if type(node) is dict else enumerate(node)):
        if type(value) is int:
            yield path + (key,), value
        elif type(value) in (dict, list):
            yield from int_leaves(value, path + (key,))


def replaced(doc, path, value):
    """A copy of doc with the leaf at path set to value."""
    new = copy.deepcopy(doc)
    node = new
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return new


def test_equal_components_load_as_one_object():
    x8 = dumps_data(catalog()["x8-six-points"])
    data = loads_data(x8)
    # six equal index-2 points between two planes
    assert len(data) == 8 and len({id(c) for c in data}) == 3
    again = loads_data(x8)
    assert all(a is b for a, b in zip(data, again))
    members = [loads_data(dumps_data(d)) for d in family_members()]
    assert {id(c) for c in data} & {id(c) for d in members for c in d}
    for d in members:
        for a in d:
            for b in d:
                assert (a is b) == (a == b)


def test_a_value_equal_to_an_integer_is_refused_after_the_integer_loaded():
    swapped = 0
    for doc in catalog_documents():
        text = json.dumps(doc)
        for path, value in int_leaves(doc["components"], ("components",)):
            for fake in [float(value)] + ([bool(value)] if value in (0, 1) else []):
                loads_data(text)        # the valid component is in the cache
                got = load_both(replaced(doc, path, fake))
                assert type(got) is tuple, got
                assert got[0] == "expected an integer, got %r" % (fake,)
                swapped += 1
    assert swapped > 100


REFUSED = [
    # a surface summand of weight 2
    ({"type": "cp1", "weights": [0, -1, 1, 1],
      "normal": {"kind": "surface", "summands": [[1, -1], [0, 1], [1, 2]]}},
     "normal weights of a surface must be -1 or +1"),
    # a split normal with a bidegree minus and a scalar plus
    ({"type": "p1xp1", "weights": [0, 0, -1, 1],
      "normal": {"kind": "fourdim_split", "minus": [1, 0], "plus": [1]}},
     "split normal bundle needs two c1 vectors of length 1 or 2"),
]


def test_a_refused_node_raises_on_every_load():
    point = {"type": "point", "weights": [1, 1, 1, 1], "normal": {"kind": "point"}}
    for node, message in REFUSED:
        doc = {"dimension": 8, "b2": 1, "components": [point, node]}
        for _ in range(3):
            assert load_both(doc) == (message, "components[1].normal",
                                      "%s (at components[1].normal)" % message)


def outcomes(texts):
    """What the verifier says of each text: its outcome (report lines,
    verdict and class) or its DataError."""
    out = []
    for text in texts:
        try:
            data = loads_data(text)
        except DataError as exc:
            out.append((str(exc), exc.path))
            continue
        out.append(outcome(data))
    return out


def test_cold_and_warm_loads_report_alike():
    data = family_members() + list(catalog().values())
    data += [reverse_action(d) for d in catalog().values()]
    texts = [dumps_data(d) for d in data]
    texts += [json.dumps(doc) for doc in digest_corpus()]
    dataio._component.cache_clear()
    cold = outcomes(texts)
    assert dataio._component.cache_info().hits > 0
    assert outcomes(texts) == cold
    # the families and the catalog alone fit the bound: once loaded after
    # the digest corpus, they load again with nothing built
    head = texts[:len(data)]
    outcomes(head)
    misses = dataio._component.cache_info().misses
    assert outcomes(head) == cold[:len(data)]
    assert dataio._component.cache_info().misses == misses
