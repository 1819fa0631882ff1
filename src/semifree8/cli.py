"""Command line front end.

Four subcommands:

    verify <file>            run every check on a fixed point data file
    enumerate [--shape D]    list the admissible families per shape
    classify-fano [--table]  filter the Fano family table by realizability
    catalog [--name N]       the built-in datasets of the known actions

Exit codes: 0 all checks pass, 1 some constraint fails, 2 malformed
input (bad JSON, unknown names, inadmissible shapes, incomplete tables).
Output for a fixed argument list is byte-stable; every subcommand takes
--json for a machine-readable document instead of text.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .classify import (
    ADMISSIBLE_SHAPES,
    ClassifyError,
    FanoFamilyRecord,
    admissible_dim_pairs,
    catalog,
    classify_fano,
    default_fano_table,
    enumerate_case,
    fano_table_hash,
    match_fp_class,
    verification_report,
)
from .dataio import DataError, _expect_bool, _expect_int, dumps_data, load_data, read_text
from .model import betti_vector, dim_pair


def _header(table_hash=None):
    table_hash = table_hash or fano_table_hash()
    return "semifree8 %s (family table sha256 %s)" % (__version__, table_hash)


def _meta(command):
    return {"version": __version__, "table_sha256": fano_table_hash(),
            "command": command}


def _emit(out, lines):
    for line in lines:
        out.write(line + "\n")


def _shape_of(data):
    try:
        (d1, d2), _ = dim_pair(data)
        return [d1, d2]
    except ValueError:
        return None


def _check_doc(item):
    return {"id": item.id, "rule": item.rule, "verdict": item.verdict,
            "detail": item.detail}


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _report(out, as_json, command, source, title, data):
    """The verification report of one dataset, shared by verify and
    catalog --name; source is the JSON key/value naming the dataset."""
    rep = verification_report(data)
    shape = _shape_of(data)
    fp_class = match_fp_class(data)
    if as_json:
        doc = _meta(command)
        doc.update(source)
        doc.update({
            "shape": shape,
            "betti": list(betti_vector(data)),
            "fp_class": fp_class,
            "checks": [_check_doc(it) for it in rep],
            "ok": rep.ok,
        })
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        lines = [_header(), title,
                 "shape %s, %d components, betti %s"
                 % (tuple(shape) if shape else "undetermined", len(data),
                    betti_vector(data))]
        lines.extend(rep.lines())
        warns = sum(1 for it in rep if it.verdict == "WARN")
        lines.append("result: %s (%d checks, %d failed, %d warnings)"
                     % ("PASS" if rep.ok else "FAIL", len(rep.items), len(rep.failures),
                        warns))
        lines.append("fixed point class: %s" % fp_class)
        _emit(out, lines)
    return 0 if rep.ok else 1


def _cmd_verify(args, out):
    data = load_data(args.path)
    return _report(out, args.json, "verify", {"path": args.path},
                   "verify %s" % args.path, data)


# ----------------------------------------------------------------------
# enumerate
# ----------------------------------------------------------------------

def _parse_shape(text):
    if text == "all":
        return None
    try:
        parts = tuple(int(p) for p in text.split(","))
        if len(parts) != 2:
            raise ValueError
    except ValueError:
        raise ClassifyError("--shape takes 'all' or two integers like '0,4'")
    return parts


def _family_doc(f):
    return {
        "key": f.key, "shape": list(f.shape), "summary": f.summary,
        "iota": f.iota, "b4_base": f.b4_base,
        "n2_min": f.n2_min, "n2_max": f.n2_max,
        "fixed": {name: value for name, value in f.fixed},
        "free": list(f.free),
    }


def _family_lines(f):
    lines = ["  family %s: Fano index %d, b4 = %d + n2, n2 in [%d, %d]"
             % (f.key, f.iota, f.b4_base, f.n2_min, f.n2_max),
             "    %s" % f.summary]
    for name, value in f.fixed:
        lines.append("    fixed: %s = %s" % (name, value))
    for freedom in f.free:
        lines.append("    free: %s" % freedom)
    return lines


def _cmd_enumerate(args, out):
    shape = _parse_shape(args.shape)
    shapes = list(ADMISSIBLE_SHAPES) if shape is None else [shape]
    results = [enumerate_case(s, args.max_b4) for s in shapes]
    if args.json:
        doc = _meta("enumerate")
        doc["b4_max"] = args.max_b4
        doc["shapes"] = [{
            "shape": list(r.shape),
            "families": [_family_doc(f) for f in r.families],
            "rejections": [{
                "candidate": rej.candidate, "rule_id": rej.rule_id,
                "rule": rej.rule, "detail": rej.detail,
            } for rej in r.rejections],
        } for r in results]
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return 0
    lines = [_header()]
    for r in results:
        lines.append("shape %s: %d families (b4 up to %d)"
                     % (r.shape, len(r.families), r.b4_max))
        for f in r.families:
            lines.extend(_family_lines(f))
        for rej in r.rejections:
            lines.append("  rejected [%s] %s" % (rej.rule_id, rej.candidate))
            lines.append("    %s" % rej.detail)
    if shape is None:
        lines.append("shapes rejected outright:")
        for s, assessment in sorted(admissible_dim_pairs().items()):
            if not assessment.admissible:
                for item in assessment.trace:
                    if item.verdict == "FAIL":
                        lines.append("  %s [%s] %s" % (s, item.id, item.detail))
    _emit(out, lines)
    return 0


# ----------------------------------------------------------------------
# classify-fano
# ----------------------------------------------------------------------

def _load_table(path):
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError("invalid JSON: %s" % exc, path)
    if not isinstance(doc, list):
        raise DataError("a family table is a JSON array of records", path)
    records = []
    for i, node in enumerate(doc):
        where = "%s[%d]" % (path, i)
        if not isinstance(node, dict):
            raise DataError("expected an object", where)
        try:
            records.append(FanoFamilyRecord(
                name=str(node["name"]),
                fano_index=_expect_int(node["fano_index"], where + ".fano_index"),
                b4=_expect_int(node["b4"], where + ".b4"),
                c1_fourth=_expect_int(node["c1_fourth"], where + ".c1_fourth"),
                genus=_expect_int(node.get("genus", 0), where + ".genus"),
                finite_automorphisms=_expect_bool(node.get("finite_automorphisms", False),
                                                  where + ".finite_automorphisms"),
            ))
        except KeyError as exc:
            raise DataError("record is missing the %s field" % exc, where)
    return tuple(records)


def _cmd_classify_fano(args, out):
    records = _load_table(args.table) if args.table else default_fano_table()
    result = classify_fano(records)
    if args.json:
        doc = _meta("classify-fano")
        doc["table_sha256"] = result.table_hash
        doc["survivors"] = list(result.survivors)
        doc["traces"] = [{"name": name, "checks": [_check_doc(it) for it in items]}
                         for name, items in result.traces]
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return 0
    lines = [_header(result.table_hash),
             "families carrying a semi-free circle action: %s"
             % ", ".join(result.survivors)]
    for name, items in result.traces:
        for item in items:
            lines.append("  %-5s %s" % (name, item.line()))
    _emit(out, lines)
    return 0


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

def _cmd_catalog(args, out):
    entries = catalog()
    if args.name is None:
        if args.json:
            doc = _meta("catalog")
            doc["entries"] = [{
                "name": name,
                "shape": _shape_of(data),
                "betti": list(betti_vector(data)),
                "fp_class": match_fp_class(data),
            } for name, data in entries.items()]
            out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            return 0
        lines = [_header()]
        for name, data in entries.items():
            lines.append("%-22s shape %s, betti %s, class %s"
                         % (name, tuple(_shape_of(data)), betti_vector(data),
                            match_fp_class(data)))
        _emit(out, lines)
        return 0
    if args.name not in entries:
        raise ClassifyError("unknown catalog entry %r (known: %s)"
                            % (args.name, ", ".join(entries)))
    data = entries[args.name]
    if args.emit == "file":
        out.write(dumps_data(data))
        return 0
    return _report(out, args.json, "catalog", {"name": args.name},
                   "catalog entry %s" % args.name, data)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="semifree8",
        description="verification and enumeration of fixed point data of "
                    "semi-free Hamiltonian circle actions on symplectic "
                    "8-manifolds with second Betti number one")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run every check on a data file")
    p.add_argument("path", help="JSON file with fixed point data")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", parents=[common],
                       help="admissible families per shape")
    p.add_argument("--shape", default="all",
                   help="extremal dimensions 'd1,d2' or 'all' (default)")
    p.add_argument("--max-b4", type=int, default=14, dest="max_b4",
                   help="middle Betti number cutoff (default 14)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("classify-fano", parents=[common],
                       help="filter the Fano family table by realizability")
    p.add_argument("--table", default=None,
                   help="JSON array overriding the built-in family table")
    p.set_defaults(func=_cmd_classify_fano)

    p = sub.add_parser("catalog", parents=[common],
                       help="built-in datasets of the known actions")
    p.add_argument("--name", default=None, help="entry to inspect")
    p.add_argument("--emit", choices=("report", "file"), default="report",
                   help="print a verification report or the data file itself")
    p.set_defaults(func=_cmd_catalog)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (DataError, ClassifyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
