"""Command line front end.

Four subcommands:

    verify <file>            run every check on a fixed point data file
    enumerate [--shape D]    list the admissible families per shape
    classify-fano [--table]  filter the Fano family table by realizability
    catalog [--name N]       the built-in datasets of the known actions

One table, `_COMMANDS`, parses a command line. Its first word is the
command, whose row gives the handler, the positional names and, for each
option, the attribute it sets, its default and the converter of its value.
`parse_args` reads the other words in order: options before or after the
positional, as `--opt value` or `--opt=value`, the last of a repeated
option winning, and `--json` on every command; `--` ends the options.
`-h` or `--help` before any `--` prints the four usage lines and exits 0.

Exit codes: 0 all checks pass, 1 some constraint fails, 2 malformed
input (a command line that does not parse, bad JSON, unknown names,
inadmissible shapes, incomplete tables, tables that list a family twice,
or `catalog --emit file` without --name).

One output path: each subcommand returns its exit code, its JSON document
and its text lines, and writes nothing. `main` alone prints one of the two
forms. The text form opens with a header line naming the version and the
family table hash; the --json document carries `version`, `table_sha256`
and `command`. A document with its own `table_sha256` (classify-fano
--table) heads both forms with that hash. `catalog --emit file` returns no
document: it prints the data file alone, with or without --json. Output
for a fixed argument list is byte-stable.
"""

import json
import sys
from types import SimpleNamespace

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
    parts = tuple(int(p) for p in text.split(","))
    if len(parts) != 2:
        raise ValueError(text)
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

    shapes = list(ADMISSIBLE_SHAPES) if args.shape is None else [args.shape]
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
    if args.shape is None:
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
    if args.emit not in ("report", "file"):
        raise ClassifyError("--emit takes report or file")
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

_USAGE = """\
semifree8 verify <file>           # run every check on a data file
semifree8 enumerate [--shape 0,4] [--max-b4 N]
semifree8 classify-fano [--table <file>]
semifree8 catalog [--name <id>] [--emit report|file]"""


class UsageError(ValueError):
    """A command line that does not parse."""


# command -> (handler, positional names, {option: (dest, default, converter)})
_COMMANDS = {
    "verify": (_cmd_verify, ("path",), {}),
    "enumerate": (_cmd_enumerate, (), {"--shape": ("shape", None, _parse_shape),
                                       "--max-b4": ("max_b4", 14, int)}),
    "classify-fano": (_cmd_classify_fano, (), {"--table": ("table", None, str)}),
    "catalog": (_cmd_catalog, (), {"--name": ("name", None, str),
                                   "--emit": ("emit", "report", str)}),
}


def parse_args(argv):
    """The namespace of one command line (its `command`, the handler `func`,
    `json`, and each option's and positional's value), or None for help."""
    if {"-h", "--help"} & set(argv[:argv.index("--")] if "--" in argv else argv):
        return None
    if not argv or argv[0] not in _COMMANDS:
        raise UsageError("a command line starts with one of %s" % ", ".join(_COMMANDS))
    func, positional, options = _COMMANDS[argv[0]]
    args = SimpleNamespace(command=argv[0], func=func, json=False,
                           **{dest: default for dest, default, _ in options.values()})
    tokens, values = iter(argv[1:]), []
    for token in tokens:
        name, eq, value = token.partition("=")
        if token == "--":
            values.extend(tokens)
        elif token == "--json":
            args.json = True
        elif not token.startswith("--"):
            values.append(token)
        elif name not in options:
            raise UsageError("unknown option %s for %s" % (token, argv[0]))
        else:
            dest, _, convert = options[name]
            try:
                setattr(args, dest, convert(value if eq else next(tokens)))
            except (StopIteration, ValueError):
                raise UsageError("%s needs a valid value (see --help)" % name) from None
    if len(values) != len(positional):
        raise UsageError("%s takes %d positional argument(s)" % (argv[0], len(positional)))
    args.__dict__.update(zip(positional, values))
    return args


def main(argv=None):
    """Run one subcommand, print the form --json picks, return the exit code."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        code, doc, lines = args.func(args) if args else (0, None, _USAGE.splitlines())
    except (UsageError, DataError, ClassifyError, OSError) as exc:
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
