"""qgordon benchmark runner.

    python3 bench/run.py --workload {sweep,identity,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.
Workloads (one client, closed loop, passes one after another):

  sweep     check_involution_laws on the 19 acceptance grid points, one
            weight above their gates (Gordon map 23, pipelines 21)
  identity  check_identity for every identity id at q^600 in both modes,
            multisum at q^180 and rrg_counts at q^45
  cli       102 `python3 -m qgordon.cli ... --format json` calls
            covering every command, traced pairs at weights 20..34

Every pass starts a fresh interpreter: pipelines caches routes and
matchings per grid point for the life of the process, and a user of
`qgordon verify` pays the cold cost on every run.  setup_s (interpreter
start plus `import qgordon`) is timed in its own processes, two before
each pass, apart from the passes.

--trace 0 repeats pairs of passes for about S seconds, one on ./src and
one on the frozen copy in bench/baseline, run op by op in turn, and
prints the end-to-end metrics: each op's fastest time in the run, scaled by the baseline's
(README.md says why).  --trace 1 runs one plain pass and one traced pass
of ./src and prints the per-layer metrics, with the tracing overhead.  The metric names and
units are read from BENCHMARK.json.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  An op fails when
it raises, exits non-zero, or its output is wrong; every failure gets a
one-line reproducer.  `correct` is false only when an output is wrong:
an identity reported as failing, or CLI output that disagrees with the
library or with itself.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import shlex
import signal
import socket
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

import inputs

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
PY = sys.executable
SETUP_REPS = 21          # setup timings per run, at least
RUN_LIMIT_S = 170.0      # every run must end within 180 s
# The frozen baseline's times on a calm 2-core 2.1 GHz machine: the unit
# of the scaled metrics (see end_to_end)
BASELINE_S = {"sweep": 3.0, "identity": 1.65, "cli": 8.0, "setup": 0.07}
CLI = [PY, "-m", "qgordon.cli"]


class Run:
    """Op counts and failures of one benchmark run."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.attempted = self.failed = self.wrong = 0
        self.repros = {}

    def fail(self, repro, wrong=False):
        self.failed += 1
        self.wrong += wrong
        self.repros[repro] = self.repros.get(repro, 0) + 1


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(src) + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else str(src))
    return env


# the program under test, and the frozen copy timed beside it
SOURCES = {"live": ROOT / "src", "baseline": HERE / "baseline"}
ENVS = {side: child_env(src) for side, src in SOURCES.items()}
SPAWNER = None          # the run's fork server, started by main


class Spawner:
    """Client of spawner.py, the fork server that starts every child of
    a run, so that each child's peak RSS is its own (spawner.py says
    why)."""

    def __init__(self):
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        self.proc = subprocess.Popen(
            [PY, str(HERE / "spawner.py"), str(theirs.fileno())],
            pass_fds=[theirs.fileno()])
        theirs.close()
        self.sock = ours
        self.closed = False

    def _call(self, req, fds=()):
        socket.send_fds(self.sock, [json.dumps(req).encode()], list(fds))
        return json.loads(self.sock.recv(1 << 16))

    def start(self, argv, env, fds):
        """Start argv with fds as its stdin, stdout and stderr: its pid."""
        return self._call({"argv": argv, "env": env, "cwd": str(ROOT)}, fds)["pid"]

    def wait(self, pid):
        """(exit code, peak RSS in MB) of a child, waiting for its end."""
        res = self._call({"wait": pid})
        return os.waitstatus_to_exitcode(res["status"]), res["maxrss_kb"] / 1024.0

    def close(self):
        """Stop the fork server, which kills any child left, and wait."""
        self.closed = True
        self.sock.close()
        self.proc.wait()


class Child:
    """A child started through the spawner, with pipes from its stdout
    and stderr, and to its stdin if asked (else it reads /dev/null).  It
    is killed if still running at the run's deadline."""

    def __init__(self, argv, run, side, stdin=False):
        if stdin:
            child_in, ours_in = os.pipe()
        else:
            child_in, ours_in = os.open(os.devnull, os.O_RDONLY), None
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        self.t0 = perf_counter()
        self.pid = SPAWNER.start(argv, ENVS[side], (child_in, out_w, err_w))
        for fd in (child_in, out_w, err_w):
            os.close(fd)
        self.stdin = open(ours_in, "w", encoding="utf-8") if stdin else None
        self.stdout = open(out_r, encoding="utf-8", errors="replace")
        self.err = []
        # daemons: on a fatal exit the spawner kills the child instead
        self.reader = threading.Thread(target=self._read_stderr, args=(err_r,),
                                       daemon=True)
        self.reader.start()
        self.lock = threading.Lock()
        self.rc = None
        self.killer = threading.Timer(max(0.0, run.deadline - monotonic()),
                                      self._kill)
        self.killer.daemon = True
        self.killer.start()

    def _read_stderr(self, fd):
        with open(fd, encoding="utf-8", errors="replace") as f:
            self.err.append(f.read())

    def _kill(self):
        with self.lock:
            if self.rc is None and not SPAWNER.closed:
                os.kill(self.pid, signal.SIGKILL)

    def wait(self):
        """Once stdout is read to its end: (exit code, stderr, seconds,
        peak RSS in MB).  A killed child has a negative exit code."""
        self.reader.join()
        with self.lock:                 # no kill once the pid is reaped
            self.rc, rss = SPAWNER.wait(self.pid)
        seconds = perf_counter() - self.t0
        self.killer.cancel()
        self.stdout.close()
        return self.rc, self.err[0], seconds, rss


def spawn(argv, run, side="live"):
    """Run a child to completion: (exit code, stdout, stderr, seconds,
    peak RSS in MB)."""
    child = Child(argv, run, side)
    out = child.stdout.read()
    rc, err, seconds, rss = child.wait()
    return rc, out, err, seconds, rss


def last_line(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def fatal(msg):
    print("bench: %s" % msg, file=sys.stderr)
    sys.exit(1)


def measure_setup(run, setup):
    """Time `python3 -c "import qgordon"` once on each side, appending
    the seconds to setup[side]."""
    for side, times in setup.items():
        rc, _, err, seconds, _ = spawn([PY, "-c", "import qgordon"], run,
                                       side=side)
        if rc != 0:
            fatal("import qgordon failed: %s" % last_line(err))
        times.append(seconds)


# ------------------------------------------------------------ worker passes

def _op_repro(op):
    if op["kind"] == "sweep":
        argv = ["verify", "--scope", inputs.SCOPE_TOKEN[op["scope"]],
                "--k", op["k"], "--a", op["a"], "--truncate", op["n"],
                "--format", "json"]
        return "python3 -m qgordon.cli " + " ".join(map(str, argv))
    return ("python3 -c \"from qgordon import check_identity; print("
            "check_identity(%r, %d, %d, %d, %r))\""
            % (op["id"], op["k"], op["a"], op["n"], op["mode"]))


class Worker:
    """A worker.py process, one pass in a fresh interpreter, that runs
    ops one at a time on request."""

    def __init__(self, trace, run, side="live"):
        self.side = side
        self.child = Child([PY, str(HERE / "worker.py")], run, side, stdin=True)
        self.alive = True
        self.step({"trace": trace})         # returns once qgordon is imported

    def step(self, op):
        """The op's result line, or None once the worker has died."""
        if self.alive:
            try:
                self.child.stdin.write(json.dumps(op) + "\n")
                self.child.stdin.flush()
            except BrokenPipeError:
                pass                        # the read below sees the end
            line = self.child.stdout.readline()
            if line:
                return json.loads(line)
            self.alive = False
        return None

    def close(self):
        """(summary line or None, crash message, peak RSS in MB)."""
        try:
            self.child.stdin.close()
        except BrokenPipeError:
            pass
        tail = self.child.stdout.read()
        rc, err, _, rss = self.child.wait()
        if rc != 0 or not self.alive or not tail.strip():
            return None, "worker exit %d: %s" % (rc, last_line(err)), rss
        res = json.loads(last_line(tail))
        if not Path(res["module"]).resolve().is_relative_to(SOURCES[self.side]):
            fatal("imported qgordon from %s, not from %s"
                  % (res["module"], SOURCES[self.side]))
        return res, None, rss


def call_worker(ops, trace, run, side="live"):
    """Run ops in one fresh worker: (summary with the op results under
    "ops", or None; crash message; seconds; peak RSS in MB)."""
    t0 = perf_counter()
    worker = Worker(trace, run, side)
    results = [worker.step(op) for op in ops]
    res, crash, rss = worker.close()
    if res is not None:
        res["ops"] = results
    return res, crash, perf_counter() - t0, rss


def paired_pass(ops, run, first):
    """One pass of the program and one of the baseline, each in its own
    fresh worker, stepped op by op: every op runs on both sides back to
    back, so the two sides see the same spells of a busy machine.  The
    side that goes first alternates from op to op, starting with
    `first`.  Returns the two sides' call_worker results."""
    sides = ("live", "baseline") if first == "live" else ("baseline", "live")
    workers = {side: Worker(False, run, side) for side in sides}
    results = {side: [] for side in sides}
    for i, op in enumerate(ops):
        for side in (sides if i % 2 == 0 else sides[::-1]):
            results[side].append(workers[side].step(op))
    out = {}
    for side in sides:
        res, crash, rss = workers[side].close()
        if res is not None:
            res["ops"] = results[side]
        out[side] = (res, crash, None, rss)
    return out["live"], out["baseline"]


def worker_pass(ops, trace, run, got, side="live"):
    """The sample of one sweep or identity pass, from call_worker's
    result `got`.  Only the live program's outputs are checked and
    counted."""
    res, crash, _, rss = got
    if side != "live":
        return res and {"wall": res["wall_s"],
                        "lat": [r["s"] for r in res["ops"]]}
    run.attempted += len(ops)
    if res is None:
        for op in ops:
            run.fail("%s  # %s" % (_op_repro(op), crash))
        return None
    ok = [r["status"] == "pass" for r in res["ops"]]
    for op, r, good in zip(ops, res["ops"], ok):
        if not good:
            # an identity is a theorem: a failing report is a wrong output
            run.fail("%s  # %s %s" % (_op_repro(op), r["status"], r["detail"]),
                     wrong=op["kind"] == "identity" and r["status"] == "fail")
    swept = [(r["map_calls"], op["work"]) for op, r, good in zip(ops, res["ops"], ok)
             if trace and good and op["kind"] == "sweep"]
    return {"wall": res["wall_s"], "lat": [r["s"] for r in res["ops"]],
            "ok": ok, "work": [op["work"] for op in ops], "rss": [rss],
            "dumps": [res] if trace else [],
            "map_calls": sum(m for m, _ in swept), "swept": sum(c for _, c in swept)}


# ---------------------------------------------------------------- cli pass

def reference_counts(calls, run):
    """family_counts for every count/enumerate call, computed untimed."""
    keys = sorted({(c["family"], c["k"], c["a"], c["n"]) for c in calls
                   if c["check"] in ("count", "enumerate")})
    ops = [{"kind": "counts", "family": f, "k": k, "a": a, "n": n}
           for f, k, a, n in keys]
    res, crash, _, _ = call_worker(ops, False, run)
    if res is None or any("result" not in r for r in res["ops"]):
        fatal("reference counts: %s" % (crash or res["ops"]))
    return {key: r["result"] for key, r in zip(keys, res["ops"])}


def _weight(cfg):
    return sum(sum(side) for side in cfg.values())


def check_cli(call, rc, out, refs):
    """None if the call succeeded with the right output, else (reason,
    wrong), where wrong marks a false output rather than an error."""
    try:
        obj = json.loads(out)
    except ValueError:
        return "exit %d, no JSON" % rc, False
    if call["check"] == "verify":
        status = obj.get("status") if isinstance(obj, dict) else None
        if status == "pass" and rc == 0:
            return None
        # an identity is a theorem, so reporting it false is a wrong
        # output; a failing law sweep is a defect the harness reported
        return "status %s, exit %d" % (status, rc), "--identity" in call["argv"]
    try:
        ok = _cli_output_ok(call, obj, refs)
    except (AttributeError, IndexError, KeyError, TypeError):
        ok = False                      # JSON of the wrong shape
    if not ok:
        return "wrong output", True
    return None if rc == 0 else ("exit %d" % rc, False)


def _cli_output_ok(call, obj, refs):
    kind = call["check"]
    if kind == "count":
        want = refs[(call["family"], call["k"], call["a"], call["n"])]
        ok = obj.get("counts") == want
    elif kind == "enumerate":
        n = call["n"]
        parts = [tuple(p) for p in obj.get("partitions", [])]
        want = refs[(call["family"], call["k"], call["a"], n)][n]
        ok = (len(parts) == len(set(parts)) == want
              and all(sum(p) == n and list(p) == sorted(p, reverse=True)
                      for p in parts))
    elif kind == "fixed":
        rows = obj.get("fixedPoints", [])
        weights = [r["weight"] for r in rows]
        ok = (bool(rows) and weights == sorted(weights)
              and weights[-1] <= obj["maxWeight"]
              and all(r["weight"] == _weight(r["config"]) for r in rows))
    else:
        start = {"A": list(call["pair"][0]), "B": list(call["pair"][1])}
        steps = obj.get("steps", [])
        if obj.get("terminal") == "fixed":
            ok = steps == [] and "fixed" in obj
        else:
            ok = (obj.get("terminal") == "partner" and len(steps) == 2
                  and steps[1]["config"] == start
                  and _weight(steps[0]["config"]) == _weight(start)
                  and (len(steps[0]["config"]["A"]) - len(start["A"])) % 2 == 1)
        ok = ok and obj.get("start") == start
    return ok


def cli_pass(calls, refs, trace, run, paired=False):
    """One pass of the CLI session.  Paired, each call also runs on the
    frozen baseline, just before or just after the live call."""
    lat, ok, rss, dumps, base = [], [], [], [], []
    map_calls = swept = 0
    for i, call in enumerate(calls):
        if paired and i % 2:
            base.append(spawn(CLI + call["argv"], run, side="baseline")[3])
        if trace:
            res, crash, seconds, r_mb = call_worker(
                [{"kind": "cli", "argv": call["argv"]}], True, run)
            if res:
                dumps.append(res)
                rc, out, err = (res["ops"][0][key] for key in ("rc", "stdout", "stderr"))
            else:
                rc, out, err = -1, "", crash
        else:
            rc, out, err, seconds, r_mb = spawn(CLI + call["argv"], run)
        if paired and not i % 2:
            base.append(spawn(CLI + call["argv"], run, side="baseline")[3])
        run.attempted += 1
        lat.append(seconds)
        rss.append(r_mb)
        bad = check_cli(call, rc, out, refs)
        ok.append(bad is None)
        if bad is None:
            if trace and "configs" in call:
                map_calls += res["counts"].get("harness.sweep_map_calls", 0)
                swept += call["configs"]
        else:
            reason, wrong = bad
            run.fail("python3 -m qgordon.cli %s  # %s: %s"
                     % (shlex.join(call["argv"]), reason, last_line(err)), wrong)
    live = {"wall": sum(lat), "lat": lat, "ok": ok, "work": [1] * len(calls),
            "rss": rss, "dumps": dumps, "map_calls": map_calls, "swept": swept}
    return (live, {"wall": sum(base), "lat": base}) if paired else live


# ----------------------------------------------------------------- metrics

def _fastest(samples):
    """Each op's fastest time over the run's passes."""
    return [min(t) for t in zip(*(s["lat"] for s in samples))]


def end_to_end(workload, live, baseline, setup, baseline_setup):
    """Metrics from each op's fastest time, scaled by the frozen
    baseline timed in alternation with the live program.

    This machine is shared: other tenants add time in bursts of seconds,
    which the fastest time drops, and slow it twofold for minutes, which
    slows both sides alike.  So the live times are multiplied by the
    baseline's calm time (BASELINE_S) over its time in this run: the
    metrics read as on the calm machine, and still move with the live
    program.  README.md has the measurements."""
    scale = BASELINE_S[workload] / sum(_fastest(baseline))
    best = [t * scale for t in _fastest(live)]
    ok = [all(t) for t in zip(*(s["ok"] for s in live))]
    done = [(w, t) for w, t, good in zip(live[0]["work"], best, ok) if good]
    best_ms = [t * 1000.0 for t in best]
    return {
        "setup_s": (statistics.median(setup) * BASELINE_S["setup"]
                    / statistics.median(baseline_setup)),
        "wall_s": sum(best),
        "work_per_s": (sum(w for w, _ in done) / sum(t for _, t in done)
                       if done else 0.0),
        "peak_rss_mb": statistics.median(x for s in live for x in s["rss"]),
        "p50_ms": statistics.median(best_ms),
        "p90_ms": statistics.quantiles(best_ms, n=10, method="inclusive")[8],
        "scale": scale,
    }


def per_layer(plain, traced):
    spans, counts = {}, {}
    for d in traced["dumps"]:
        for name, (calls, total, own) in d["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for name, n in d["counts"].items():
            counts[name] = counts.get(name, 0) + n
    out = {"trace_overhead_s": traced["wall"] - plain["wall"],
           "traced_wall_s": traced["wall"], "untraced_wall_s": plain["wall"]}
    for layer in ("partitions", "series", "gordon", "pipelines", "harness", "cli"):
        out[layer + ".self_s"] = sum(v[2] for k, v in spans.items()
                                     if k.startswith(layer + "."))
    for name, (calls, total, own) in spans.items():
        out[name + ".calls"] = calls
        out[name + ".total_s"] = total
        out[name + ".self_s"] = own
    out.update(counts)
    maps = spans.get("gordon.involute_gordon", [0])[0]
    out["gordon.classify.per_map"] = (
        counts.get("gordon.classify.in_map", 0) / maps if maps else 0.0)
    out["harness.map_calls_per_config"] = (
        traced["map_calls"] / traced["swept"] if traced["swept"] else 0.0)
    return out


# -------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("sweep", "identity", "cli"),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    run = Run(monotonic() + RUN_LIMIT_S)
    if not (ROOT / "src" / "qgordon" / "__init__.py").is_file():
        fatal("no src/qgordon under %s; run from the repository root" % ROOT)
    global SPAWNER
    SPAWNER = Spawner()
    atexit.register(SPAWNER.close)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer"] if args.trace else spec["end_to_end"]

    if args.workload == "cli":
        calls = inputs.cli_session(args.seed)
        refs = reference_counts(calls, run)

        def one_pass(trace):
            return cli_pass(calls, refs, trace, run)

        def one_pair(first):
            # the CLI session alternates the sides call by call instead
            return cli_pass(calls, refs, False, run, paired=True)
    else:
        ops = (inputs.sweep_ops if args.workload == "sweep"
               else inputs.identity_ops)(args.seed)

        def one_pass(trace):
            return worker_pass(ops, trace, run, call_worker(ops, trace, run))

        def one_pair(first):
            live, base = paired_pass(ops, run, first)
            return (worker_pass(ops, False, run, live),
                    worker_pass(ops, False, run, base, "baseline"))

    setup = {"live": [], "baseline": []}
    samples = []
    baseline = []
    t_start = monotonic()
    if args.trace:
        plain, traced = one_pass(False), one_pass(True)
        if plain is None or traced is None:
            fatal("a pass crashed: %s" % "; ".join(run.repros))
        values = per_layer(plain, traced)
    else:
        while True:
            t0 = monotonic()
            measure_setup(run, setup)
            # alternate which side goes first, so neither gets the later slot
            live, base = one_pair(("live", "baseline")[len(samples) % 2])
            if live is not None and base is not None:
                samples.append(live)
                baseline.append(base)
            took = monotonic() - t0
            now = monotonic()
            if (now - t_start + 0.5 * took >= args.seconds
                    or now + took >= run.deadline):
                break
        if not samples or not baseline:
            fatal("every pass crashed")
        # the sides alternate here too, so a slow spell slows both alike
        while len(setup["live"]) < SETUP_REPS:
            measure_setup(run, setup)
        values = end_to_end(args.workload, samples, baseline,
                            setup["live"], setup["baseline"])

    metrics = {}
    for m in names:
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    passes = samples or [plain, traced]
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    print("  pass seconds: %s" % " ".join("%.3f" % s["wall"] for s in passes))
    if baseline:
        print("  baseline pass seconds: %s; scale %.3f"
              % (" ".join("%.3f" % s["wall"] for s in baseline), values["scale"]))
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    if samples:
        print("  op latency, fastest of the run: p50 %.1f ms  p90 %.1f ms"
              "  over %d ops" % (values["p50_ms"], values["p90_ms"],
                                 len(samples[0]["lat"])))
    print("  %-40s %14d count" % ("ops", run.attempted))
    print("  %-40s %14d count" % ("ops_failed", run.failed))
    for repro, n in sorted(run.repros.items()):
        print("  failed x%d: %s" % (n, repro))
    print(json.dumps({"correct": run.wrong == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
