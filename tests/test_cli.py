"""Command line behavior: exit codes, stability, round trips."""

import json

import pytest

from semifree8.classify import default_fano_table
from semifree8.cli import main


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
])
def test_classify_fano_table_field_types(tmp_path, capsys, field, value, expect):
    table = [dict(rec) for rec in _GOOD_RECORDS]
    table[3][field] = value
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out, err = run(capsys, "classify-fano", "--table", str(path))
    assert code == 2 and not out
    assert err == "error: %s (at %s[3].%s)\n" % (expect, path, field)
