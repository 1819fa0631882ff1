"""Command line front end.

Four subcommands:

    verify <file>            run every check on a fixed point data file
    enumerate [--shape D]    list the admissible families per shape
    classify-fano [--table]  filter the Fano family table by realizability
    catalog [--name N]       the built-in datasets of the known actions

Exit codes: 0 all checks pass, 1 some constraint fails, 2 malformed
input (bad JSON, unknown names, inadmissible shapes, incomplete tables,
tables that list a family twice, or `catalog --emit file` without --name).

One output path: each subcommand returns its exit code, its JSON document
and its text lines, and writes nothing. `main` alone prints one of the two
forms. The text form opens with a header line naming the version and the
family table hash; the --json document carries `version`, `table_sha256`
and `command`. A document with its own `table_sha256` (classify-fano
--table) heads both forms with that hash. `catalog --emit file` returns no
document: it prints the data file alone, with or without --json. Output
for a fixed argument list is byte-stable.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .classify import (
    ClassifyError,
    catalog,
    default_fano_table,
    fano_table_hash,
    match_fp_class,
    verification_report,
)
from .dataio import DataError, dumps_data, load_data, load_table
from .model import betti_vector


def _check_doc(item):
    return {"id": item.id, "rule": item.rule, "verdict": item.verdict,
            "detail": item.detail}


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _report(source, title, data):
    """The verification report of one dataset, shared by verify and
    catalog --name; source is the JSON key/value naming the dataset."""
    rep = verification_report(data)
    shape = data.shape
    fp_class = match_fp_class(data)
    doc = dict(source, shape=shape, betti=list(betti_vector(data)), fp_class=fp_class,
               checks=[_check_doc(it) for it in rep], ok=rep.ok)
    lines = [title,
             "shape %s, %d components, betti %s"
             % (shape or "undetermined", len(data),
                betti_vector(data))]
    lines.extend(rep.lines())
    warns = sum(1 for it in rep if it.verdict == "WARN")
    lines.append("result: %s (%d checks, %d failed, %d warnings)"
                 % ("PASS" if rep.ok else "FAIL", len(rep.items), len(rep.failures),
                    warns))
    lines.append("fixed point class: %s" % fp_class)
    return (0 if rep.ok else 1), doc, lines


def _cmd_verify(args):
    data = load_data(args.path)
    return _report({"path": args.path}, "verify %s" % args.path, data)


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


def _cmd_enumerate(args):
    # here, not at the top: no other command compiles the enumeration
    from .enumeration import ADMISSIBLE_SHAPES, admissible_dim_pairs, enumerate_case

    shape = _parse_shape(args.shape)
    shapes = list(ADMISSIBLE_SHAPES) if shape is None else [shape]
    results = [enumerate_case(s, args.max_b4) for s in shapes]
    doc = {"b4_max": args.max_b4, "shapes": [{
        "shape": list(r.shape),
        "families": [_family_doc(f) for f in r.families],
        "rejections": [{
            "candidate": rej.candidate, "rule_id": rej.rule_id,
            "rule": rej.rule, "detail": rej.detail,
        } for rej in r.rejections],
    } for r in results]}
    lines = []
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
    return 0, doc, lines


# ----------------------------------------------------------------------
# classify-fano
# ----------------------------------------------------------------------

def _cmd_classify_fano(args):
    # here, not at the top: no other command compiles the volume filter
    from .fano import classify_fano

    records = load_table(args.table) if args.table else default_fano_table()
    result = classify_fano(records)
    doc = {"table_sha256": result.table_hash, "survivors": list(result.survivors),
           "traces": [{"name": name, "checks": [_check_doc(it) for it in items]}
                      for name, items in result.traces]}
    lines = ["families carrying a semi-free circle action: %s"
             % ", ".join(result.survivors)]
    for name, items in result.traces:
        for item in items:
            lines.append("  %-5s %s" % (name, item.line()))
    return 0, doc, lines


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

def _cmd_catalog(args):
    if args.emit == "file" and args.name is None:
        raise ClassifyError("--emit file needs --name")
    entries = catalog()
    if args.name is None:
        rows = [(name, data.shape, betti_vector(data), match_fp_class(data))
                for name, data in entries.items()]
        doc = {"entries": [{"name": name, "shape": shape, "betti": list(betti),
                            "fp_class": fp_class}
                           for name, shape, betti, fp_class in rows]}
        lines = ["%-22s shape %s, betti %s, class %s"
                 % (name, shape, betti, fp_class)
                 for name, shape, betti, fp_class in rows]
        return 0, doc, lines
    if args.name not in entries:
        raise ClassifyError("unknown catalog entry %r (known: %s)"
                            % (args.name, ", ".join(entries)))
    data = entries[args.name]
    if args.emit == "file":
        return 0, None, dumps_data(data).splitlines()
    return _report({"name": args.name}, "catalog entry %s" % args.name, data)


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
    """Run one subcommand, print the form --json picks, return the exit code."""
    args = build_parser().parse_args(argv)
    try:
        code, doc, lines = args.func(args)
    except (DataError, ClassifyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if doc is not None:
        head = {"version": __version__, "command": args.command}
        if "table_sha256" not in doc:
            head["table_sha256"] = fano_table_hash()
        doc = dict(head, **doc)
        if args.json:
            lines = [json.dumps(doc, indent=2, sort_keys=True)]
        else:
            lines = ["semifree8 %s (family table sha256 %s)"
                     % (__version__, doc["table_sha256"])] + lines
    sys.stdout.write("".join(line + "\n" for line in lines))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
