"""Command-line front end: counting, enumeration, verification, orbit
tracing, and fixed-point listing over the partition families and
involutions, with deterministic machine-readable output.

Exit status: 0 on success (verification passed), 1 when a verification
ran and failed, 2 on usage errors, invalid parameters, or malformed
input, 3 on an internal error (a map that cannot pair a configuration),
reported as one error line and one reproducer line.  The json format is
the stable surface; text and csv are for reading and spreadsheets."""

from __future__ import annotations

import argparse
import csv
import io
import json
import shlex
import sys

from . import harness, partitions, pipelines
from .gordon import ConsistencyError, gordon_fixed_point
from .partitions import ParameterError

_IDENTITY_TOKENS = {
    "rrg": "rrg_counts",
    "ebf": "ebf",
    "thm13": "thm13",
    "thm14": "thm14",
    "thm15": "thm15",
    "multisum": "multisum",
    "jtp": "jtp_instance",
}

_SCOPE_TOKENS = {"gordon": "gordon", "ee": "EE", "oo": "OO", "oe": "OE"}


def _parse_pair(text):
    """A pair from "A;B" syntax: semicolon-separated comma lists, each
    side possibly empty."""
    if text.count(";") != 1:
        raise ParameterError("--pair needs exactly one ';', got %r" % (text,))
    sides = []
    for half in text.split(";"):
        half = half.strip()
        if not half:
            sides.append(())
            continue
        try:
            parts = tuple(int(x) for x in half.split(","))
        except ValueError:
            raise ParameterError("malformed --pair component %r" % (half,))
        sides.append(parts)
    return tuple(sides)


def _pair_text(pair):
    return "%s;%s" % (",".join(str(x) for x in pair[0]),
                      ",".join(str(x) for x in pair[1]))


def _pair_obj(pair):
    return {"A": list(pair[0]), "B": list(pair[1])}


def _triple_obj(triple, scope):
    out = {"A": list(triple[0]), "B": list(triple[1])}
    if scope != "EE":
        out["D"] = list(triple[2])
    out["E"] = list(triple[3])
    return out


def _emit_json(obj):
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _emit_csv(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    sys.stdout.write(buf.getvalue())


def _parts_field(parts):
    return " ".join(str(x) for x in parts)


def _cmd_count(args):
    if (args.n is None) == (args.truncate is None):
        raise ParameterError("count needs exactly one of --n or --truncate")
    if args.n is not None:
        c = partitions.count_family(args.family, args.k, args.a, args.n)
        if args.format == "json":
            _emit_json({"family": args.family, "k": args.k, "a": args.a,
                        "n": args.n, "count": c})
        elif args.format == "csv":
            _emit_csv(("n", "count"), [(args.n, c)])
        else:
            print(c)
        return 0
    N = args.truncate
    if N < 0:
        raise ParameterError("--truncate must be >= 0, got %r" % (N,))
    counts = partitions.family_counts(args.family, args.k, args.a, N)
    if args.format == "json":
        _emit_json({"family": args.family, "k": args.k, "a": args.a,
                    "truncation": N, "counts": counts})
    elif args.format == "csv":
        _emit_csv(("n", "count"), list(enumerate(counts)))
    else:
        for n, c in enumerate(counts):
            print("%d %d" % (n, c))
    return 0


def _cmd_enumerate(args):
    if args.family == "A":
        raise ParameterError("family A is counted by residue classes and "
                             "has no enumerator; use count")
    parts = partitions.enumerate_family(args.family, args.k, args.a, args.n)
    if args.format == "json":
        _emit_json({"family": args.family, "k": args.k, "a": args.a,
                    "n": args.n, "partitions": [list(p) for p in parts]})
    elif args.format == "csv":
        _emit_csv(("partition",), [(_parts_field(p),) for p in parts])
    else:
        for p in parts:
            print(_parts_field(p) if p else "(empty)")
    return 0


def _report_json(report):
    obj = {"identity": report.identity, "k": report.params[0],
           "a": report.params[1], "truncation": report.truncation,
           "status": report.status}
    if report.first_discrepancy is not None:
        n, lhs, rhs = report.first_discrepancy
        obj["firstDiscrepancy"] = {"exponent": n, "lhs": lhs, "rhs": rhs}
    if report.counterexample is not None:
        law, cfg, image = report.counterexample
        obj["counterexample"] = {
            "law": law, "config": _pair_obj(cfg),
            "image": None if image is None else _pair_obj(image)}
    return obj


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
    if args.format == "json":
        _emit_json(_report_json(report))
    elif args.format == "csv":
        n, lhs, rhs = report.first_discrepancy or ("", "", "")
        _emit_csv(("identity", "k", "a", "truncation", "status",
                   "exponent", "lhs", "rhs"),
                  [(report.identity, report.params[0], report.params[1],
                    report.truncation, report.status, n, lhs, rhs)])
    else:
        print("%s  identity=%s k=%d a=%d N=%d"
              % (report.status, report.identity, report.params[0],
                 report.params[1], report.truncation))
        if report.first_discrepancy is not None:
            n, lhs, rhs = report.first_discrepancy
            print("first discrepancy at q^%d: %d vs %d" % (n, lhs, rhs))
        if report.counterexample is not None:
            law, cfg, image = report.counterexample
            if image is None:
                print("%s law fails at %s: the map raised, no image"
                      % (law, _pair_text(cfg)))
            else:
                print("%s law fails at %s -> %s"
                      % (law, _pair_text(cfg), _pair_text(image)))
    return 0 if report.passed else 1


def _cmd_trace(args):
    scope = _SCOPE_TOKENS[args.scope]
    pair = _parse_pair(args.pair)
    trace = harness.trace_orbit(pair, scope, args.k, args.a)
    if args.format == "json":
        obj = {"scope": scope, "k": args.k, "a": args.a,
               "start": _pair_obj(trace.start),
               "steps": [{"label": lbl, "config": _pair_obj(cfg)}
                         for lbl, cfg in trace.steps],
               "terminal": trace.terminal}
        if trace.fixed is not None:
            obj["fixed"] = {"family": trace.fixed.family, "n": trace.fixed.n}
        _emit_json(obj)
    elif args.format == "csv":
        rows = [(i + 1, lbl, _pair_text(cfg))
                for i, (lbl, cfg) in enumerate(trace.steps)]
        _emit_csv(("step", "label", "config"), rows)
    else:
        print("start %s" % _pair_text(trace.start))
        for lbl, cfg in trace.steps:
            print("%s -> %s" % (lbl, _pair_text(cfg)))
        if trace.terminal == "fixed":
            print("fixed family=%d n=%d" % (trace.fixed.family, trace.fixed.n))
        else:
            print("partner %s" % _pair_text(trace.steps[0][1]))
    return 0


def _fixed_rows(scope, k, a, max_weight):
    """(family, n, weight, configuration) rows, weight-sorted."""
    if max_weight < 0:
        raise ParameterError("--max-weight must be >= 0, got %r"
                             % (max_weight,))

    def template(family, n):     # validates (k, a) for the scope
        if scope == "gordon":
            return gordon_fixed_point(family, n, k, a)
        return pipelines.pipeline_fixed_triple(scope, family, n, k, a)

    rows = [(0, 0, 0, template(1, 0))]
    for family in (1, 2):
        n = 1
        while True:
            cfg = template(family, n)
            w = sum(map(sum, cfg))
            if w > max_weight:
                break
            rows.append((family, n, w, cfg))
            n += 1
    rows.sort(key=lambda r: (r[2], r[0], r[1]))
    return rows


def _cmd_fixed_points(args):
    scope = _SCOPE_TOKENS[args.scope]
    rows = _fixed_rows(scope, args.k, args.a, args.max_weight)
    if args.format == "json":
        out = []
        for family, n, w, cfg in rows:
            conf = (_pair_obj(cfg) if scope == "gordon"
                    else _triple_obj(cfg, scope))
            out.append({"family": family, "n": n, "weight": w,
                        "config": conf})
        _emit_json({"scope": scope, "k": args.k, "a": args.a,
                    "maxWeight": args.max_weight, "fixedPoints": out})
    elif args.format == "csv":
        if scope == "gordon":
            _emit_csv(("family", "n", "weight", "A", "B"),
                      [(f, n, w, _parts_field(c[0]), _parts_field(c[1]))
                       for f, n, w, c in rows])
        else:
            _emit_csv(("family", "n", "weight", "A", "B", "D", "E"),
                      [(f, n, w, _parts_field(c[0]), _parts_field(c[1]),
                        _parts_field(c[2]), _parts_field(c[3]))
                       for f, n, w, c in rows])
    else:
        for f, n, w, c in rows:
            if scope == "gordon":
                print("family=%d n=%d weight=%d  %s" % (f, n, w, _pair_text(c)))
            else:
                print("family=%d n=%d weight=%d  A=%s B=%s D=%s E=%s"
                      % (f, n, w, _parts_field(c[0]), _parts_field(c[1]),
                         _parts_field(c[2]), _parts_field(c[3])))
    return 0


def _build_parser():
    top = argparse.ArgumentParser(
        prog="qgordon",
        description="Partition family counts and involution verification.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, k_required=True):
        p.add_argument("--k", type=int, required=k_required)
        p.add_argument("--a", type=int, required=k_required)
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")

    p = sub.add_parser("count", help="count family members by weight")
    common(p)
    p.add_argument("--family", choices=("A", "B", "W", "Wbar"), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--truncate", type=int)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="list family members of a weight")
    common(p)
    p.add_argument("--family", choices=("A", "B", "W", "Wbar"), required=True)
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
        return args.func(args)
    except ParameterError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        if argv is None:
            argv = sys.argv[1:]
        print("error: %s" % exc, file=sys.stderr)
        print("qgordon %s" % shlex.join(argv), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
