"""Command-line front end: counting, enumeration, verification, orbit
tracing, and fixed-point listing over the partition families and
involutions, with deterministic machine-readable output.

Exit status: 0 on success (verification passed), 1 when a verification
ran and failed, 2 on usage errors, invalid parameters, or malformed
input, 3 on an internal error (a map that cannot pair a configuration,
or any other exception), reported as one error line and one reproducer
line.  The json format is the stable surface; text and csv are for
reading and spreadsheets.  Each command builds its output once, as a
JSON object, a csv header with its rows and the text lines, and `main`
renders the one its --format names."""

from __future__ import annotations

import argparse
import json
import sys
# csv and shlex are imported in the one branch of main that uses each,
# so a --format json call, the common one, loads neither

from . import harness, partitions, pipelines
from .partitions import ParameterError

# every identity by its own id, plus two short aliases
_IDENTITY_TOKENS = {**{i: i for i in harness.IDENTITIES},
                    "rrg": "rrg_counts", "jtp": "jtp_instance"}

_SCOPE_TOKENS = {scope.lower(): scope for scope in harness.SCOPES}


def _parse_pair(text):
    """A pair from "A;B" syntax: semicolon-separated comma lists, each
    side possibly empty."""
    if text.count(";") != 1:
        raise ParameterError("--pair needs exactly one ';', got %r" % (text,))
    try:
        return tuple(tuple(map(int, half.split(","))) if half.strip() else ()
                     for half in text.split(";"))
    except ValueError:
        raise ParameterError("malformed --pair %r" % (text,)) from None


def _pair_text(pair):
    return "%s;%s" % (",".join(str(x) for x in pair[0]),
                      ",".join(str(x) for x in pair[1]))


def _config(cfg, names="AB"):
    """A configuration as a JSON object, one list per component keyed by
    its name; a component named " " is left out."""
    return {name: list(p) for name, p in zip(names, cfg) if name != " "}


def _parts_field(parts):
    return " ".join(str(x) for x in parts)


def _cmd_count(args):
    if (args.n is None) == (args.truncate is None):
        raise ParameterError("count needs exactly one of --n or --truncate")
    head = {"family": args.family, "k": args.k, "a": args.a}
    if args.n is not None:
        c = partitions.count_family(args.family, args.k, args.a, args.n)
        return (0, {**head, "n": args.n, "count": c}, ("n", "count"),
                [(args.n, c)], [str(c)])
    N = args.truncate
    counts = partitions.family_counts(args.family, args.k, args.a, N)
    rows = list(enumerate(counts))
    return (0, {**head, "truncation": N, "counts": counts}, ("n", "count"),
            rows, ["%d %d" % row for row in rows])


def _cmd_enumerate(args):
    parts = partitions.enumerate_family(args.family, args.k, args.a, args.n)
    obj = {"family": args.family, "k": args.k, "a": args.a, "n": args.n,
           "partitions": [list(p) for p in parts]}
    return (0, obj, ("partition",), [(_parts_field(p),) for p in parts],
            [_parts_field(p) if p else "(empty)" for p in parts])


def _cmd_verify(args):
    if (args.identity is None) == (args.scope is None):
        raise ParameterError("verify needs exactly one of --identity or "
                             "--scope")
    if args.identity is not None:
        report = harness.check_identity(
            _IDENTITY_TOKENS[args.identity], args.k, args.a, args.truncate)
    else:
        report = harness.check_involution_laws(
            _SCOPE_TOKENS[args.scope], args.k, args.a, args.truncate)
    (k, a), N = report.params, report.truncation
    obj = {"identity": report.identity, "k": k, "a": a, "truncation": N,
           "status": report.status}
    lines = ["%s  identity=%s k=%d a=%d N=%d"
             % (report.status, report.identity, k, a, N)]
    n, lhs, rhs = report.first_discrepancy or ("", "", "")
    if report.first_discrepancy is not None:
        obj["firstDiscrepancy"] = {"exponent": n, "lhs": lhs, "rhs": rhs}
        lines.append("first discrepancy at q^%d: %d vs %d" % (n, lhs, rhs))
    if report.counterexample is not None:
        law, cfg, image = report.counterexample
        obj["counterexample"] = {
            "law": law, "config": _config(cfg),
            "image": None if image is None else _config(image)}
        lines.append("%s law fails at %s" % (law, _pair_text(cfg))
                     + (": the map raised, no image" if image is None
                        else " -> %s" % _pair_text(image)))
    return (0 if report.passed else 1, obj,
            ("identity", "k", "a", "truncation", "status", "exponent",
             "lhs", "rhs"),
            [(report.identity, k, a, N, report.status, n, lhs, rhs)], lines)


def _cmd_trace(args):
    scope = _SCOPE_TOKENS[args.scope]
    trace = harness.trace_orbit(_parse_pair(args.pair), scope, args.k, args.a)
    obj = {"scope": scope, "k": args.k, "a": args.a,
           "start": _config(trace.start),
           "steps": [{"label": lbl, "config": _config(cfg)}
                     for lbl, cfg in trace.steps],
           "terminal": trace.terminal}
    lines = ["start %s" % _pair_text(trace.start)]
    lines += ["%s -> %s" % (lbl, _pair_text(cfg)) for lbl, cfg in trace.steps]
    if trace.fixed is not None:
        obj["fixed"] = {"family": trace.fixed.family, "n": trace.fixed.n}
        lines.append("fixed family=%d n=%d"
                     % (trace.fixed.family, trace.fixed.n))
    else:
        lines.append("partner %s" % _pair_text(trace.steps[0][1]))
    return (0, obj, ("step", "label", "config"),
            [(i + 1, lbl, _pair_text(cfg))
             for i, (lbl, cfg) in enumerate(trace.steps)], lines)


def _cmd_fixed_points(args):
    scope, k, a = _SCOPE_TOKENS[args.scope], args.k, args.a
    max_weight = partitions._as_weight(args.max_weight, "--max-weight")
    template = pipelines._SCOPES[scope].template   # validates (k, a)
    found = [(0, 0, 0, template(0, 0, k, a))]
    for family in (1, 2):
        n = 1
        while True:
            cfg = template(family, n, k, a)
            w = sum(map(sum, cfg))
            if w > max_weight:
                break
            found.append((family, n, w, cfg))
            n += 1
    found.sort(key=lambda r: (r[2], r[0], r[1]))
    columns = "AB" if scope == "gordon" else "ABDE"
    # EE triples carry no D component, and their JSON leaves it out
    keys = columns.replace("D", " ") if scope == "EE" else columns
    obj = {"scope": scope, "k": k, "a": a, "maxWeight": max_weight,
           "fixedPoints": [{"family": f, "n": n, "weight": w,
                            "config": _config(cfg, keys)}
                           for f, n, w, cfg in found]}
    lines = []
    for f, n, w, cfg in found:
        shown = (_pair_text(cfg) if scope == "gordon" else
                 " ".join("%s=%s" % (name, _parts_field(p))
                          for name, p in zip(columns, cfg)))
        lines.append("family=%d n=%d weight=%d  %s" % (f, n, w, shown))
    return (0, obj, ("family", "n", "weight") + tuple(columns),
            [(f, n, w) + tuple(map(_parts_field, cfg))
             for f, n, w, cfg in found], lines)


def _build_parser():
    top = argparse.ArgumentParser(
        prog="qgordon",
        description="Partition family counts and involution verification.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--a", type=int, required=True)
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")

    p = sub.add_parser("count", help="count family members by weight")
    common(p)
    p.add_argument("--family", choices=partitions.FAMILIES, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--truncate", type=int)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="list family members of a weight")
    common(p)
    p.add_argument("--family", choices=partitions.FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="check an identity or a law sweep")
    common(p)
    p.add_argument("--identity", choices=sorted(_IDENTITY_TOKENS))
    p.add_argument("--scope", choices=sorted(_SCOPE_TOKENS))
    p.add_argument("--truncate", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("trace", help="follow a pair through an involution")
    common(p)
    p.add_argument("--scope", choices=sorted(_SCOPE_TOKENS), required=True)
    p.add_argument("--pair", required=True,
                   help='pair as "A;B", e.g. "6,1;5,5"')
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("fixed-points",
                       help="list canonical fixed configurations")
    common(p)
    p.add_argument("--scope", choices=sorted(_SCOPE_TOKENS), required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.set_defaults(func=_cmd_fixed_points)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status, obj, header, rows, lines = args.func(args)
    except ParameterError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        import shlex
        if argv is None:
            argv = sys.argv[1:]
        print("error: %s" % exc, file=sys.stderr)
        print("qgordon %s" % shlex.join(argv), file=sys.stderr)
        return 3
    if args.format == "json":
        print(json.dumps(obj, separators=(",", ":")))
    elif args.format == "csv":
        import csv
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)
    else:
        for line in lines:
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
