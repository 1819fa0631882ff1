"""Command line behavior: exit codes, stability, round trips."""

import json
import pathlib
import sys

import pytest

from semifree8 import enumeration
from semifree8.classify import catalog, default_fano_table
from semifree8.cli import main
from semifree8.dataio import DataError, dump_data, dumps_data, load_data, loads_data
from semifree8.enumeration import B4_MAX_LIMIT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_listing(capsys):
    code, out, err = run(capsys, "catalog")
    assert code == 0 and not err
    assert "x8-six-points" in out
    assert out.startswith("semifree8 0.1.0 (family table sha256 ")


def test_catalog_emit_verify_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog", "--name", "w5-surface-and-plane",
                       "--emit", "file")
    assert code == 0
    path = tmp_path / "w5.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "result: PASS" in out
    assert "fixed point class: c" in out


def test_catalog_report_mode(capsys):
    code, out, _ = run(capsys, "catalog", "--name", "q4-interior-quadric")
    assert code == 0
    assert "interior-bundle-halves" in out


def test_catalog_unknown_name(capsys):
    code, _, err = run(capsys, "catalog", "--name", "nope")
    assert code == 2
    assert "unknown catalog entry" in err


def test_catalog_emit_file_needs_a_name(capsys):
    code, out, err = run(capsys, "catalog", "--emit", "file")
    assert (code, out, err) == (2, "", "error: --emit file needs --name\n")


def test_verify_fails_on_weight_two(tmp_path, capsys):
    doc = {
        "dimension": 8, "b2": 1,
        "components": [
            {"type": "point", "weights": [2, 1, -1, -1],
             "normal": {"kind": "point"}},
            {"type": "point", "weights": [-1, -1, -1, -1],
             "normal": {"kind": "point"}},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL semi-free" in out


def test_verify_rejects_truncated_json(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"dimension": 8,')
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_verify_rejects_bad_dimension(tmp_path, capsys):
    path = tmp_path / "dim.json"
    path.write_text(json.dumps({"dimension": 10, "b2": 1, "components": []}))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "dimension" in err


@pytest.mark.parametrize("key, value, message", [
    ("dimension", 8.0, "only dimension 8 is supported, got 8.0"),
    ("dimension", "8", "only dimension 8 is supported, got '8'"),
    ("b2", True, "only b2 = 1 is supported, got True"),
    ("b2", 1.0, "only b2 = 1 is supported, got 1.0"),
])
def test_verify_header_takes_exact_integers(tmp_path, capsys, key, value, message):
    """A header value equal to the integer but of another type does not
    load, as a weight of that value would not."""
    doc = json.loads(dumps_data(catalog()["x8-six-points"]))
    doc[key] = value
    path = tmp_path / "header.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err) == (2, "", "error: %s (at %s)\n" % (message, key))


def test_data_error_paths_point_at_nodes(tmp_path, capsys):
    doc = {
        "dimension": 8, "b2": 1,
        "components": [
            {"type": "point", "weights": [1, 1, 1, 1],
             "normal": {"kind": "point"}},
            {"type": "cp2", "weights": [0, 0, -1, -1],
             "normal": {"kind": "fourdim_extremal", "c1": "x", "c2": 1}},
        ],
    }
    path = tmp_path / "path.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "components[1].normal.c1" in err


_SURFACE = {"type": "cp1", "weights": [0, -1, 1, 1],
            "normal": {"kind": "surface", "summands": [[1, -1], [1, 1], [0, 1]]}}


@pytest.mark.parametrize("node, value, message", [
    ("weights", [1, 1, 1.5, 1], "expected an integer, got 1.5 (at components[0].weights[2])"),
    ("weights", [1, True, 1, 1], "expected an integer, got True (at components[0].weights[1])"),
    ("weights", [1, 1, 1], "expected 4 entries, got 3 (at components[0].weights)"),
    ("summands", [[1, -1], [1, "1"], [0, 1]],
     "expected an integer, got '1' (at components[0].normal.summands[1][1])"),
    ("summands", [[1, -1], [1, 1], [0]],
     "expected 2 entries, got 1 (at components[0].normal.summands[2])"),
    ("summands", [[1, -1], 7, [0, 1]],
     "expected a list, got 7 (at components[0].normal.summands[1])"),
    ("summands", [[1, -1], [1, 1]],
     "surface normals need exactly 3 summands (at components[0].normal.summands)"),
])
def test_data_error_paths_inside_lists(tmp_path, capsys, node, value, message):
    comp = json.loads(json.dumps(_SURFACE))
    (comp["normal"] if node == "summands" else comp)[node] = value
    path = tmp_path / "list.json"
    path.write_text(json.dumps({"dimension": 8, "b2": 1, "components": [comp]}))
    code, _, err = run(capsys, "verify", str(path))
    assert (code, err) == (2, "error: %s\n" % message)


def _x8_with(edit):
    doc = json.loads(dumps_data(catalog()["x8-six-points"]))
    edit(doc)
    return doc


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(genus=8), "unknown key 'genus' (at genus)"),
    (lambda doc: doc["components"][2].update(genus=8),
     "unknown key 'genus' (at components[2].genus)"),
    (lambda doc: doc["components"][0]["normal"].update(c3=0),
     "unknown key 'c3' (at components[0].normal.c3)"),
    # a key spelled wrong is unknown, and the key it misspells then missing
    (lambda doc: doc["components"][1].update(weight=doc["components"][1].pop("weights")),
     "expected a list, got None (at components[1].weights)"),
    (lambda doc: doc["components"][1].update(weight=[1, 1, 1, 1]),
     "unknown key 'weight' (at components[1].weight)"),
    # the type and kind checks come first
    (lambda doc: doc["components"][1].update(type="cp4", genus=8),
     "unknown component type 'cp4' (expected one of cp1, cp2, cp3, p1xp1, point) "
     "(at components[1].type)"),
    (lambda doc: doc["components"][0]["normal"].update(kind="line", c3=0),
     "unknown normal kind 'line' (at components[0].normal.kind)"),
], ids=["document", "component", "normal", "misspelled", "misspelled-copy", "type-first",
        "kind-first"])
def test_data_with_an_unknown_key_is_malformed(tmp_path, capsys, edit, message):
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(_x8_with(edit)))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err) == (2, "", "error: %s\n" % message)


# keys that would read as a list index, as no step, and as two steps
_ODD_KEYS = {"[2]": '["[2]"]', "": '[""]', "x.y": '["x.y"]'}


@pytest.mark.parametrize("where", ["component", "normal"])
@pytest.mark.parametrize("key", list(_ODD_KEYS), ids=["index", "empty", "dotted"])
def test_unknown_key_that_is_not_an_identifier_is_quoted(tmp_path, capsys, key, where):
    def edit(doc):
        comp = doc["components"][1]
        (comp["normal"] if where == "normal" else comp)[key] = 0

    node = "components[1]" + (".normal" if where == "normal" else "")
    text = json.dumps(_x8_with(edit))
    with pytest.raises(DataError) as info:
        loads_data(text)
    assert (str(info.value), info.value.path) == (
        "unknown key %r (at %s%s)" % (key, node, _ODD_KEYS[key]), node + _ODD_KEYS[key])
    path = tmp_path / "odd.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err) == (2, "", "error: %s\n" % info.value)


@pytest.mark.parametrize("tname", [[], ["point"], {}, None, 3])
def test_component_type_that_is_not_a_string(tmp_path, capsys, tname):
    doc = {"dimension": 8, "b2": 1, "components": [
        {"type": tname, "weights": [1, 1, 1, 1], "normal": {"kind": "point"}}]}
    path = tmp_path / "type.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err == ("error: unknown component type %r (expected one of cp1, cp2, cp3, "
                   "p1xp1, point) (at components[0].type)\n" % (tname,))


def test_enumerate_inadmissible_shape(capsys):
    code, _, err = run(capsys, "enumerate", "--shape", "2,6")
    assert code == 2
    assert "not admissible" in err
    assert "(0, 4)" in err  # the admissible list is spelled out


def test_enumerate_all_mentions_rejected_shapes(capsys):
    code, out, _ = run(capsys, "enumerate")
    assert code == 0
    assert "shapes rejected outright:" in out
    assert "betti-budget-b6" in out


def test_classify_fano_incomplete_table(tmp_path, capsys):
    table = [{"name": "P4", "fano_index": 5, "b4": 1, "c1_fourth": 625}]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(table))
    code, _, err = run(capsys, "classify-fano", "--table", str(path))
    assert code == 2
    assert "missing" in err


def test_classify_fano_duplicate_family(tmp_path, capsys):
    table = [{"name": r.name, "fano_index": r.fano_index, "b4": r.b4,
              "c1_fourth": r.c1_fourth, "genus": r.genus,
              "finite_automorphisms": r.finite_automorphisms}
             for r in default_fano_table()]
    table.append(next(dict(node) for node in table if node["name"] == "Q4"))
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(table))
    code, out, err = run(capsys, "classify-fano", "--table", str(path))
    assert code == 2 and not out
    assert err == "error: duplicate family record 'Q4' in the table\n"


def test_json_documents_parse(capsys):
    code, out, _ = run(capsys, "enumerate", "--json", "--shape", "0,4")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "enumerate"
    assert {f["key"] for s in doc["shapes"] for f in s["families"]} == \
        {"0,4/no-surface", "0,4/with-surface"}

    code, out, _ = run(capsys, "classify-fano", "--json")
    doc = json.loads(out)
    assert doc["survivors"] == ["P4", "Q4", "W5", "X8m"]

    code, out, _ = run(capsys, "catalog", "--json")
    doc = json.loads(out)
    assert len(doc["entries"]) == 6


def test_output_byte_stable(capsys):
    for argv in (["enumerate"], ["classify-fano"], ["catalog"],
                 ["enumerate", "--json"], ["classify-fano", "--json"]):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second, argv


@pytest.mark.parametrize("b4_max", ["100000000000000000000", str(B4_MAX_LIMIT + 1)])
def test_enumerate_rejects_a_huge_cutoff_before_sweeping(monkeypatch, capsys, b4_max):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started")
    monkeypatch.setattr(enumeration, "_sweep", no_sweep)
    for shape in ("all", "4,4"):
        code, out, err = run(capsys, "enumerate", "--shape", shape, "--max-b4", b4_max)
        assert code == 2 and not out
        assert err == "error: b4_max must be at most %d\n" % B4_MAX_LIMIT


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["verify"], ["verify", "a", "b"], ["enumerate", "--max-b4"],
    ["enumerate", "--max-b4", "x"], ["catalog", "--emit", "bogus"], ["enumerate", "--nope"],
    ["--json", "verify", "f"],
])
def test_command_line_that_does_not_parse(capsys, argv):
    """A malformed command line is malformed input: exit 2, nothing on
    stdout, one error line on stderr."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("first, second", [
    (["verify", "x8.json", "--json"], ["verify", "--json", "x8.json"]),
    (["enumerate", "--max-b4=30"], ["enumerate", "--max-b4", "30"]),
    (["catalog", "--emit=file", "--name", "x8-six-points"],
     ["catalog", "--name", "x8-six-points", "--emit", "file"]),
])
def test_equivalent_spellings_print_the_same(tmp_path, monkeypatch, capsys, first, second):
    (tmp_path / "x8.json").write_text(dumps_data(catalog()["x8-six-points"]), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    output = run(capsys, *first)
    assert output[0] == 0 and output[1] and not output[2]
    assert run(capsys, *second) == output


def test_help_prints_the_readme_command_lines(capsys):
    """-h and --help, alone or after a command, print the four command
    lines of the README's command line block and exit 0."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    usage = [line for line in block.splitlines() if not line.startswith("semifree8 -h")]
    assert [line.split()[1] for line in usage] == ["verify", "enumerate", "classify-fano",
                                                   "catalog"]
    for argv in (["-h"], ["--help"], ["verify", "--help"]):
        assert run(capsys, *argv) == (0, "".join(line + "\n" for line in usage), "")


def test_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/file.json")
    assert code == 2
    assert "error:" in err


def test_verify_rejects_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dimension": 8, "name": "caf\xe9"}')
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and not out
    assert err.startswith("error: not UTF-8 text") and str(path) in err


_GOOD_RECORDS = [
    {"name": r.name, "fano_index": r.fano_index, "b4": r.b4,
     "c1_fourth": r.c1_fourth, "genus": r.genus,
     "finite_automorphisms": r.finite_automorphisms}
    for r in default_fano_table()
]


@pytest.mark.parametrize("field, value, expect", [
    ("fano_index", "five", "expected an integer, got 'five'"),
    ("b4", [5], "expected an integer, got [5]"),
    ("c1_fourth", 5.7, "expected an integer, got 5.7"),
    ("finite_automorphisms", "false", "expected true or false, got 'false'"),
    ("name", 5, "expected a string, got 5"),
])
def test_classify_fano_table_field_types(tmp_path, capsys, field, value, expect):
    table = [dict(rec) for rec in _GOOD_RECORDS]
    table[3][field] = value
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out, err = run(capsys, "classify-fano", "--table", str(path))
    assert code == 2 and not out
    assert err == "error: %s (at %s[3].%s)\n" % (expect, path, field)


def _write_table(tmp_path, table, text=None):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table) if text is None else text)
    return path


def test_classify_fano_table_missing_field(tmp_path, capsys):
    table = [dict(rec) for rec in _GOOD_RECORDS]
    del table[3]["b4"]
    path = _write_table(tmp_path, table)
    code, out, err = run(capsys, "classify-fano", "--table", str(path))
    assert (code, out) == (2, "")
    assert err == "error: record is missing the 'b4' field (at %s[3])\n" % path


@pytest.mark.parametrize("drop_genus", [False, True])
def test_classify_fano_table_unknown_key(tmp_path, capsys, drop_genus):
    # a misspelled optional field would read as its default, false, and
    # list Q1Q2 as a survivor; with genus kept the record has as many keys
    # as a complete one
    table = [dict(rec) for rec in _GOOD_RECORDS]
    i = next(i for i, rec in enumerate(table) if rec["name"] == "Q1Q2")
    table[i]["finite_automorphism"] = table[i].pop("finite_automorphisms")
    if drop_genus:
        del table[i]["genus"]
    path = _write_table(tmp_path, table)
    code, out, err = run(capsys, "classify-fano", "--table", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: unknown key 'finite_automorphism' (at %s[%d].finite_automorphism)\n"
                   % (path, i))


@pytest.mark.parametrize("key", list(_ODD_KEYS), ids=["index", "empty", "dotted"])
def test_classify_fano_table_unknown_key_that_is_not_an_identifier(tmp_path, capsys, key):
    table = [dict(rec) for rec in _GOOD_RECORDS]
    table[3][key] = 0
    path = _write_table(tmp_path, table)
    code, out, err = run(capsys, "classify-fano", "--table", str(path))
    assert (code, out) == (2, "")
    assert err == "error: unknown key %r (at %s[3]%s)\n" % (key, path, _ODD_KEYS[key])


def test_classify_fano_table_record_not_an_object(tmp_path, capsys):
    table = [dict(rec) for rec in _GOOD_RECORDS]
    table[3] = ["W5", 3, 2, 405]
    path = _write_table(tmp_path, table)
    code, out, err = run(capsys, "classify-fano", "--table", str(path))
    assert (code, out) == (2, "")
    assert err == "error: expected an object (at %s[3])\n" % path


def test_classify_fano_table_not_an_array(tmp_path, capsys):
    path = _write_table(tmp_path, {"records": _GOOD_RECORDS})
    code, out, err = run(capsys, "classify-fano", "--table", str(path))
    assert (code, out) == (2, "")
    assert err == "error: a family table is a JSON array of records (at %s)\n" % path


def test_classify_fano_table_invalid_json(tmp_path, capsys):
    text = json.dumps(_GOOD_RECORDS)[:-2]
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(text)
    path = _write_table(tmp_path, None, text)
    code, out, err = run(capsys, "classify-fano", "--table", str(path))
    assert (code, out) == (2, "")
    assert err == "error: invalid JSON: %s (at %s)\n" % (exc.value, path)


def _too_deep():
    return "[" * 200000


def _too_many_digits():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter sets no digit limit on integers")
    return "[" + "1" * (limit + 1) + "]"


@pytest.mark.parametrize("make", [_too_deep, _too_many_digits])
@pytest.mark.parametrize("argv", [("verify",), ("classify-fano", "--table")])
def test_json_the_decoder_refuses_is_invalid_json(tmp_path, capsys, argv, make):
    """Nesting past the recursion limit and an integer past the digit limit
    are malformed input: exit 2 with one error line, no traceback."""
    path = tmp_path / "input.json"
    path.write_text(make())
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1


def test_classify_fano_table_optional_fields(tmp_path, capsys):
    """A record without genus or finite_automorphisms reads them as 0 and
    false: the table classifies, and hashes, as the built-in one."""
    full = _write_table(tmp_path, _GOOD_RECORDS)
    records = [{key: value for key, value in rec.items()
                if (key, value) not in (("genus", 0), ("finite_automorphisms", False))}
               for rec in _GOOD_RECORDS]
    assert sum("genus" not in rec for rec in records) == 4
    assert sum("finite_automorphisms" not in rec for rec in records) == 7
    short = tmp_path / "short.json"
    short.write_text(json.dumps(records))
    outputs = {run(capsys, "classify-fano", *argv)
               for argv in ((), ("--table", str(full)), ("--table", str(short)))}
    assert len(outputs) == 1
    (code, out, err), = outputs
    assert (code, err) == (0, "")


def test_dump_data_round_trip(tmp_path):
    for name, data in catalog().items():
        path = tmp_path / (name + ".json")
        dump_data(data, path)
        assert path.read_text(encoding="utf-8") == dumps_data(data)
        assert load_data(path) == data
