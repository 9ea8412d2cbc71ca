"""One benchmark pass in a fresh interpreter.

Speaks JSON lines.  The first line on stdin is {"trace": bool}; the
worker imports qgordon and answers {"ready": true}.  Each further line
is one op, answered by one line with its status and seconds.  At the
end of stdin it prints one summary line: the pass time (the sum of the
op times), the path qgordon was imported from and, when traced, the
folded spans.  So run.py can run a pass in one go, or step two passes
(program and baseline) op by op.  Anything else the program writes to
stdout goes to stderr.  Op kinds:

  sweep     harness.check_involution_laws(scope, k, a, n)
  identity  harness.check_identity(id, k, a, n, mode)
  counts    partitions.family_counts(family, k, a, n), untimed reference
  cli       qgordon.cli.main(argv) with its output captured, the traced
            stand-in for `python3 -m qgordon.cli argv`

Run from the repository root with src on PYTHONPATH; run.py does this.
"""

from __future__ import annotations

import io
import json
import os
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from tracer import Tracer


def _run_op(op, tracer):
    from qgordon import cli, harness, partitions
    kind = op["kind"]
    res = {}
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(op["argv"])
            except SystemExit as exc:         # argparse rejects the call
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:                  # what the interpreter prints
                traceback.print_exc()
                rc = 1
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    mapped = tracer.counts.get("harness.sweep_map_calls", 0) if tracer else 0
    try:
        if kind == "sweep":
            report = harness.check_involution_laws(
                op["scope"], op["k"], op["a"], op["n"])
        elif kind == "identity":
            report = harness.check_identity(
                op["id"], op["k"], op["a"], op["n"], op["mode"])
        elif kind == "counts":
            return {"result": partitions.family_counts(
                op["family"], op["k"], op["a"], op["n"])}
        else:
            raise ValueError("unknown op kind %r" % (kind,))
        res["status"] = report.status
        if not report.passed:
            res["detail"] = repr(report.counterexample
                                 or report.first_discrepancy)
    except Exception as exc:
        res["status"] = "error"
        res["detail"] = "%s: %s" % (type(exc).__name__, exc)
    if tracer:
        res["map_calls"] = tracer.counts.get("harness.sweep_map_calls", 0) - mapped
    return res


def main():
    # the replies get the real stdout; stray writes go to stderr
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def reply(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    spec = json.loads(sys.stdin.readline())
    import qgordon
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    reply({"ready": True})
    wall = 0.0
    for line in iter(sys.stdin.readline, ""):
        op = json.loads(line)
        t0 = perf_counter()
        res = _run_op(op, tracer)
        res["s"] = perf_counter() - t0
        wall += res["s"]
        reply(res)
    out = {"wall_s": wall, "module": qgordon.__file__}
    if tracer:
        out.update(tracer.dump())
    reply(out)


if __name__ == "__main__":
    main()
