"""End-to-end checks of the command-line interface: documented example
invocations, exit codes, and output stability."""

import json
import os
import subprocess
import sys

import pytest

from qgordon import cli, harness, pipelines, series
from qgordon.series import TruncatedSeries


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def patch_map(monkeypatch, kernel, scope="gordon"):
    """Make the sweeps and traces map the scope's pairs with kernel."""
    monkeypatch.setitem(pipelines._SCOPES, scope,
                        pipelines._SCOPES[scope]._replace(involute=kernel))


def crook_theta(monkeypatch):
    """theta_sum with one added to its q^7 coefficient."""
    real = series.theta_sum

    def crooked(alpha, beta, N):
        coeffs = list(real(alpha, beta, N).coeffs)
        if len(coeffs) > 7:
            coeffs[7] += 1
        return TruncatedSeries(coeffs)

    monkeypatch.setattr(series, "theta_sum", crooked)


def test_count_single(capsys):
    code, out, _ = run(capsys, "count", "--family", "B", "--k", "2",
                       "--a", "2", "--n", "4")
    assert code == 0
    assert out == "2\n"


def test_count_table_csv(capsys):
    code, out, _ = run(capsys, "count", "--family", "A", "--k", "2",
                       "--a", "2", "--truncate", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,count"
    assert lines[1:] == ["0,1", "1,1", "2,1", "3,1", "4,2", "5,2", "6,3"]


def test_count_table_json_matches_single(capsys):
    code, out, _ = run(capsys, "count", "--family", "W", "--k", "3",
                       "--a", "2", "--truncate", "9", "--format", "json")
    assert code == 0
    table = json.loads(out)
    for n, c in enumerate(table["counts"]):
        code2, out2, _ = run(capsys, "count", "--family", "W", "--k", "3",
                             "--a", "2", "--n", str(n))
        assert code2 == 0 and int(out2) == c


def test_count_needs_one_weight_flag(capsys):
    code, _, err = run(capsys, "count", "--family", "B", "--k", "2",
                       "--a", "2")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "count", "--family", "B", "--k", "2",
                       "--a", "2", "--n", "3", "--truncate", "5")
    assert code == 2
    code, _, err = run(capsys, "count", "--family", "B", "--k", "2",
                       "--a", "2", "--truncate", "-1")
    assert code == 2 and err.startswith("error:")


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "B", "--k", "2",
                       "--a", "2", "--n", "7", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["partitions"] == [[7], [6, 1], [5, 2]]


def test_enumerate_family_a_rejected(capsys):
    code, _, err = run(capsys, "enumerate", "--family", "A", "--k", "2",
                       "--a", "2", "--n", "5")
    assert code == 2
    assert "no enumerator" in err


def test_verify_identity_example(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "ebf", "--k", "3",
                       "--a", "3", "--truncate", "17", "--format", "json")
    assert code == 0
    assert out == ('{"identity":"ebf","k":3,"a":3,"truncation":17,'
                   '"status":"pass"}\n')


def test_verify_json_byte_identical(capsys):
    argv = ("verify", "--identity", "thm13", "--k", "2", "--a", "2",
            "--truncate", "25", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_verify_identity_tokens_map(capsys):
    for token, internal in (("rrg", "rrg_counts"), ("jtp", "jtp_instance"),
                            ("multisum", "multisum")):
        code, out, _ = run(capsys, "verify", "--identity", token,
                           "--k", "2", "--a", "1", "--truncate", "12",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["identity"] == internal


def test_verify_multisum_large_k(capsys):
    # the sum runs min(k - 1, N) levels, not k - 1, and one at a time, so
    # no depth of levels hits a recursion limit
    for k, N in (("990", "40"), ("1500", "40"), ("1500", "1000")):
        code, out, _ = run(capsys, "verify", "--identity", "multisum",
                           "--k", k, "--a", "3", "--truncate", N)
        assert code == 0 and out.startswith("pass"), (k, N)


def test_verify_accepts_every_identity_id(capsys):
    # the tokens come from harness.IDENTITIES, so no identity is left
    # out; each runs at (k, a) of its scope's parities
    params = {"OO": ("3", "3"), "OE": ("3", "2")}
    for identity in harness.IDENTITIES:
        k, a = params.get(harness._IDENTITIES[identity][0], ("4", "4"))
        code, out, _ = run(capsys, "verify", "--identity", identity,
                           "--k", k, "--a", a, "--truncate", "12",
                           "--format", "json")
        assert code == 0, identity
        assert json.loads(out)["identity"] == identity


def test_verify_scope_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "oe", "--k", "3",
                       "--a", "2", "--truncate", "12", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["identity"] == "laws_OE"
    assert obj["status"] == "pass"


def test_verify_failure_exits_1(capsys, monkeypatch):
    crook_theta(monkeypatch)
    code, out, _ = run(capsys, "verify", "--identity", "ebf", "--k", "2",
                       "--a", "2", "--truncate", "20", "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["status"] == "fail"
    assert obj["firstDiscrepancy"]["exponent"] == 7
    assert set(obj["firstDiscrepancy"]) == {"exponent", "lhs", "rhs"}


def test_verify_law_counterexample_reported(capsys, monkeypatch):
    patch_map(monkeypatch, lambda pair, k, a: pair)
    code, out, _ = run(capsys, "verify", "--scope", "gordon", "--k", "2",
                       "--a", "2", "--truncate", "8", "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["counterexample"]["law"] == "sign"
    assert set(obj["counterexample"]["config"]) == {"A", "B"}


def test_verify_map_failure_reported(capsys):
    # the OO (3, 3) map raises on ((8, 6, 4), (3,)) at weight 21
    argv = ("verify", "--scope", "oo", "--k", "3", "--a", "3",
            "--truncate", "21")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["status"] == "fail"
    assert obj["counterexample"] == {"law": "map",
                                     "config": {"A": [8, 6, 4], "B": [3]},
                                     "image": None}
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 1
    assert out.splitlines()[1] == ("map law fails at 8,6,4;3: the map "
                                   "raised, no image")


@pytest.mark.parametrize("argv", [
    ("trace", "--scope", "oo", "--k", "3", "--a", "3", "--pair", "8,6,4;3"),
    ("trace", "--scope", "oo", "--k", "3", "--a", "3", "--pair", "8,4;5,2,2"),
    ("trace", "--scope", "oe", "--k", "3", "--a", "2", "--pair", "200;"),
])
def test_internal_error_exits_3(capsys, argv):
    # the two OO (3, 3) weight-21 states the matching leaves unpaired, and
    # an OE (3, 2) pair whose residue component is over the carry budget:
    # an internal error, not a failed verification (1) and not a traceback
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("error: ")
    assert lines[1] == ("qgordon trace --scope %s --k 3 --a %s --pair '%s' "
                        "--format json" % (argv[2], argv[6], argv[8]))


def test_trace_pairs_the_residue(capsys):
    # the route ladder leaves this pair unpaired; the matching pairs it
    # within its carry component, not its weight class
    code, out, _ = run(capsys, "trace", "--scope", "oe", "--k", "3",
                       "--a", "2", "--pair", "32;", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["terminal"] == "partner"
    assert obj["steps"][0]["config"] == {"A": [], "B": [16, 16]}
    assert pipelines.involute_pipeline(((), (16, 16)), "OE", 3, 2) == ((32,), ())


def test_trace_maps_one_pair(capsys):
    # a trace is no sweep: its map pairs B = (10, 10) with A = (20,)
    code, out, _ = run(capsys, "trace", "--scope", "oe", "--k", "5",
                       "--a", "4", "--pair", "20;", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["terminal"] == "partner"
    assert obj["steps"][0]["config"] == {"A": [], "B": [10, 10]}


def _assert_exit_3(code, out, err, argv):
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("error: ")
    assert lines[1] == "qgordon " + " ".join(argv)


def test_trace_checks_sign_law(capsys, monkeypatch):
    # a map that returns its input has no partner: an internal error,
    # not a pair that is its own partner
    patch_map(monkeypatch, lambda pair, k, a: pair)
    argv = ("trace", "--scope", "gordon", "--k", "3", "--a", "3",
            "--pair", "6,1;5,5", "--format", "json")
    code, out, err = run(capsys, *argv)
    _assert_exit_3(code, out, err, argv[:-3] + ("'6,1;5,5'",) + argv[-2:])
    assert "sign law fails" in err


def test_map_exception_exits_3(capsys, monkeypatch):
    def deep(pair, k, a):
        raise RecursionError("maximum recursion depth exceeded")

    patch_map(monkeypatch, deep, "OE")
    argv = ("trace", "--scope", "oe", "--k", "3", "--a", "2",
            "--pair", "4;", "--format", "text")
    code, out, err = run(capsys, *argv)
    _assert_exit_3(code, out, err, argv[:-3] + ("'4;'",) + argv[-2:])
    assert err.splitlines()[0] == "error: maximum recursion depth exceeded"


def test_over_budget_sweep_exits_2(capsys):
    # Gordon (3, 3) to weight 80 has 951,351,637 pairs, refused before a
    # weight class is built
    code, out, err = run(capsys, "verify", "--scope", "gordon", "--k", "3",
                         "--a", "3", "--truncate", "80")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "951351637 pairs" in err


def test_verify_needs_identity_xor_scope(capsys):
    code, _, err = run(capsys, "verify", "--k", "2", "--a", "2",
                       "--truncate", "10")
    assert code == 2 and "exactly one" in err
    code, _, _ = run(capsys, "verify", "--identity", "rrg", "--scope", "oo",
                     "--k", "2", "--a", "2", "--truncate", "10")
    assert code == 2


def test_verify_parameter_errors_exit_2(capsys):
    # wrong parity for the pipeline scope
    code, _, err = run(capsys, "verify", "--scope", "ee", "--k", "3",
                       "--a", "2", "--truncate", "10")
    assert code == 2 and err.startswith("error:")
    # a out of range
    code, _, _ = run(capsys, "verify", "--identity", "ebf", "--k", "2",
                     "--a", "5", "--truncate", "10")
    assert code == 2
    # sweep bound over the cap
    code, _, err = run(capsys, "verify", "--scope", "gordon", "--k", "2",
                       "--a", "2", "--truncate", "1000")
    assert code == 2


def test_trace_gordon_example(capsys):
    code, out, _ = run(capsys, "trace", "--scope", "gordon", "--k", "3",
                       "--a", "3", "--pair", "6,1;5,5")
    assert code == 0
    assert "partner 6;6,5" in out


def test_trace_json_shape(capsys):
    code, out, _ = run(capsys, "trace", "--scope", "gordon", "--k", "3",
                       "--a", "3", "--pair", "6,1;5,5", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["start"] == {"A": [6, 1], "B": [5, 5]}
    assert obj["steps"][0]["label"] == "U(1,1)"
    assert obj["steps"][0]["config"] == {"A": [6], "B": [6, 5]}
    assert obj["steps"][1]["config"] == {"A": [6, 1], "B": [5, 5]}
    assert obj["terminal"] == "partner"
    assert "fixed" not in obj


def test_trace_fixed_json(capsys):
    code, out, _ = run(capsys, "trace", "--scope", "ee", "--k", "2",
                       "--a", "2", "--pair", "4;", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["terminal"] == "fixed"
    assert obj["fixed"] == {"family": 1, "n": 1}


def test_trace_empty_pair(capsys):
    code, out, _ = run(capsys, "trace", "--scope", "oo", "--k", "3",
                       "--a", "1", "--pair", ";", "--format", "json")
    assert code == 0
    assert json.loads(out)["fixed"] == {"family": 0, "n": 0}


def test_trace_malformed_pair(capsys):
    for bad in ("6,1", "6,1;5,5;", "a,b;c", "6,,1;5"):
        code, _, err = run(capsys, "trace", "--scope", "gordon", "--k", "3",
                           "--a", "3", "--pair", bad)
        assert code == 2, bad
        assert err.startswith("error:")


def test_trace_out_of_ground(capsys):
    code, _, err = run(capsys, "trace", "--scope", "gordon", "--k", "2",
                       "--a", "2", "--pair", "6,1;2,1,1")
    assert code == 2 and err.startswith("error:")
    # a pipeline pair gets the reason the one ground predicate gives
    code, out, err = run(capsys, "trace", "--scope", "oo", "--k", "3",
                         "--a", "3", "--pair", "5;")
    assert (code, out, err) == (2, "", "error: A must have even parts: (5,)\n")


def test_fixed_points_gordon(capsys):
    code, out, _ = run(capsys, "fixed-points", "--scope", "gordon",
                       "--k", "2", "--a", "2", "--max-weight", "12",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    rows = obj["fixedPoints"]
    assert [r["weight"] for r in rows] == [0, 2, 3, 9, 11]
    assert rows[0]["config"] == {"A": [], "B": []}
    for r in rows:
        assert sum(r["config"]["A"]) + sum(r["config"]["B"]) == r["weight"]


def test_fixed_points_pipeline_triples(capsys):
    code, out, _ = run(capsys, "fixed-points", "--scope", "oo", "--k", "3",
                       "--a", "3", "--max-weight", "20", "--format", "json")
    assert code == 0
    rows = json.loads(out)["fixedPoints"]
    assert [r["weight"] for r in rows] == [0, 3, 5, 14, 18]
    assert rows[2]["config"] == {"A": [4], "B": [], "D": [1], "E": []}
    # EE triples carry no leftover component
    code, out, _ = run(capsys, "fixed-points", "--scope", "ee", "--k", "2",
                       "--a", "2", "--max-weight", "12", "--format", "json")
    rows = json.loads(out)["fixedPoints"]
    assert all("D" not in r["config"] for r in rows)
    assert all(r["config"]["E"] == [] for r in rows)


def test_fixed_points_a1_rejected(capsys):
    code, _, err = run(capsys, "fixed-points", "--scope", "oo", "--k", "3",
                       "--a", "1", "--max-weight", "10")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "fixed-points", "--scope", "gordon",
                       "--k", "3", "--a", "3", "--max-weight", "-1")
    assert code == 2 and err.startswith("error:")


def test_fixed_points_csv(capsys):
    code, out, _ = run(capsys, "fixed-points", "--scope", "gordon",
                       "--k", "3", "--a", "3", "--max-weight", "11",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,n,weight,A,B"
    assert lines[1] == "0,0,0,,"


# run in a fresh interpreter: the modules `import qgordon.cli` adds, then
# those a json trace call and a law sweep forked across two processes
# (with no class swept alone first) add, each beyond what the
# interpreter already holds
_IMPORT_PROBE = """
import contextlib, io, json, sys
bare = set(sys.modules)
import qgordon.cli
imported = set(sys.modules) - bare
qgordon.harness._workers = lambda: 2
qgordon.harness._ALONE_S = 0
with contextlib.redirect_stdout(io.StringIO()):
    status = [qgordon.cli.main(argv.split()) for argv in (
        "trace --scope gordon --k 3 --a 2 --pair 9,8,5,3,1;6,2 --format json",
        "verify --scope gordon --k 3 --a 3 --truncate 14")]
called = set(sys.modules) - bare - imported
print(json.dumps([status, sorted(imported), sorted(called)]))
"""


def test_import_loads_no_heavy_stdlib_modules():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    status, imported, called = json.loads(out)
    assert status == [0, 0]
    assert "qgordon.cli" in imported
    # a forked sweep reads its children's pipe without select
    heavy = {"dataclasses", "inspect", "csv", "shlex", "select"}
    assert heavy.isdisjoint(imported), sorted(heavy & set(imported))
    assert heavy.isdisjoint(called), sorted(heavy & set(called))


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--family", "Q", "--k", "2", "--a", "2",
                  "--n", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


# one small invocation per command and case, in every format, with the
# exact bytes of stdout; "theta" and "identity" name the patches that
# make a verification fail
GOLDEN_ARGV = {
    "count-n": ("count --family B --k 2 --a 2 --n 7", None),
    "count-truncate": ("count --family W --k 3 --a 2 --truncate 6", None),
    "enumerate": ("enumerate --family B --k 2 --a 2 --n 7", None),
    "enumerate-empty": ("enumerate --family Wbar --k 3 --a 2 --n 0", None),
    "verify-discrepancy": ("verify --identity ebf --k 2 --a 2 --truncate 9",
                           "theta"),
    "verify-counterexample": ("verify --scope gordon --k 2 --a 2 "
                              "--truncate 4", "identity"),
    "trace-partner": ("trace --scope gordon --k 3 --a 3 --pair 6,1;5,5",
                      None),
    "trace-fixed": ("trace --scope ee --k 2 --a 2 --pair 4;", None),
    "fixed-points-gordon": ("fixed-points --scope gordon --k 2 --a 2 "
                            "--max-weight 9", None),
    "fixed-points-pipeline": ("fixed-points --scope oo --k 3 --a 3 "
                              "--max-weight 14", None),
}

GOLDEN = [
    ('count-n', 'json', 0,
     '{"family":"B","k":2,"a":2,"n":7,"count":3}\n'),
    ('count-n', 'csv', 0,
     'n,count\n7,3\n'),
    ('count-n', 'text', 0,
     '3\n'),
    ('count-truncate', 'json', 0,
     '{"family":"W","k":3,"a":2,"truncation":6,"counts":[1,1,0,1,'
     '2,1,2]}\n'),
    ('count-truncate', 'csv', 0,
     'n,count\n0,1\n1,1\n2,0\n3,1\n4,2\n5,1\n6,2\n'),
    ('count-truncate', 'text', 0,
     '0 1\n1 1\n2 0\n3 1\n4 2\n5 1\n6 2\n'),
    ('enumerate', 'json', 0,
     '{"family":"B","k":2,"a":2,"n":7,"partitions":[[7],[6,1],[5,'
     '2]]}\n'),
    ('enumerate', 'csv', 0,
     'partition\n7\n6 1\n5 2\n'),
    ('enumerate', 'text', 0,
     '7\n6 1\n5 2\n'),
    ('enumerate-empty', 'json', 0,
     '{"family":"Wbar","k":3,"a":2,"n":0,"partitions":[[]]}\n'),
    ('enumerate-empty', 'csv', 0,
     'partition\n""\n'),
    ('enumerate-empty', 'text', 0,
     '(empty)\n'),
    ('verify-discrepancy', 'json', 1,
     '{"identity":"ebf","k":2,"a":2,"truncation":9,'
     '"status":"fail","firstDiscrepancy":{"exponent":7,"lhs":0,'
     '"rhs":1}}\n'),
    ('verify-discrepancy', 'csv', 1,
     'identity,k,a,truncation,status,exponent,lhs,rhs\nebf,2,2,9,'
     'fail,7,0,1\n'),
    ('verify-discrepancy', 'text', 1,
     'fail  identity=ebf k=2 a=2 N=9\n'
     'first discrepancy at q^7: 0 vs 1\n'),
    ('verify-counterexample', 'json', 1,
     '{"identity":"laws_gordon","k":2,"a":2,"truncation":4,'
     '"status":"fail","counterexample":{"law":"sign",'
     '"config":{"A":[],"B":[]},"image":{"A":[],"B":[]}}}\n'),
    ('verify-counterexample', 'csv', 1,
     'identity,k,a,truncation,status,exponent,lhs,rhs\n'
     'laws_gordon,2,2,4,fail,,,\n'),
    ('verify-counterexample', 'text', 1,
     'fail  identity=laws_gordon k=2 a=2 N=4\n'
     'sign law fails at ; -> ;\n'),
    ('trace-partner', 'json', 0,
     '{"scope":"gordon","k":3,"a":3,"start":{"A":[6,1],"B":[5,5]},'
     '"steps":[{"label":"U(1,1)","config":{"A":[6],"B":[6,5]}},'
     '{"label":"U(2,2)","config":{"A":[6,1],"B":[5,5]}}],'
     '"terminal":"partner"}\n'),
    ('trace-partner', 'csv', 0,
     'step,label,config\n1,"U(1,1)","6;6,5"\n2,"U(2,2)","6,1;5,'
     '5"\n'),
    ('trace-partner', 'text', 0,
     'start 6,1;5,5\nU(1,1) -> 6;6,5\nU(2,2) -> 6,1;5,5\n'
     'partner 6;6,5\n'),
    ('trace-fixed', 'json', 0,
     '{"scope":"EE","k":2,"a":2,"start":{"A":[4],"B":[]},'
     '"steps":[],"terminal":"fixed","fixed":{"family":1,"n":1}}\n'),
    ('trace-fixed', 'csv', 0,
     'step,label,config\n'),
    ('trace-fixed', 'text', 0,
     'start 4;\nfixed family=1 n=1\n'),
    ('fixed-points-gordon', 'json', 0,
     '{"scope":"gordon","k":2,"a":2,"maxWeight":9,'
     '"fixedPoints":[{"family":0,"n":0,"weight":0,'
     '"config":{"A":[],"B":[]}},{"family":2,"n":1,"weight":2,'
     '"config":{"A":[1],"B":[1]}},{"family":1,"n":1,"weight":3,'
     '"config":{"A":[2],"B":[1]}},{"family":2,"n":2,"weight":9,'
     '"config":{"A":[3,2],"B":[3,1]}}]}\n'),
    ('fixed-points-gordon', 'csv', 0,
     'family,n,weight,A,B\n0,0,0,,\n2,1,2,1,1\n1,1,3,2,1\n2,2,9,'
     '3 2,3 1\n'),
    ('fixed-points-gordon', 'text', 0,
     'family=0 n=0 weight=0  ;\nfamily=2 n=1 weight=2  1;1\n'
     'family=1 n=1 weight=3  2;1\nfamily=2 n=2 weight=9  3,2;3,1\n'),
    ('fixed-points-pipeline', 'json', 0,
     '{"scope":"OO","k":3,"a":3,"maxWeight":14,'
     '"fixedPoints":[{"family":0,"n":0,"weight":0,'
     '"config":{"A":[],"B":[],"D":[],"E":[]}},{"family":2,"n":1,'
     '"weight":3,"config":{"A":[2],"B":[],"D":[1],"E":[]}},'
     '{"family":1,"n":1,"weight":5,"config":{"A":[4],"B":[],'
     '"D":[1],"E":[]}},{"family":2,"n":2,"weight":14,'
     '"config":{"A":[6,4],"B":[],"D":[3,1],"E":[]}}]}\n'),
    ('fixed-points-pipeline', 'csv', 0,
     'family,n,weight,A,B,D,E\n0,0,0,,,,\n2,1,3,2,,1,\n1,1,5,4,,1,'
     '\n2,2,14,6 4,,3 1,\n'),
    ('fixed-points-pipeline', 'text', 0,
     'family=0 n=0 weight=0  A= B= D= E=\n'
     'family=2 n=1 weight=3  A=2 B= D=1 E=\n'
     'family=1 n=1 weight=5  A=4 B= D=1 E=\n'
     'family=2 n=2 weight=14  A=6 4 B= D=3 1 E=\n'),
]


@pytest.mark.parametrize("case,fmt,status,stdout", GOLDEN,
                         ids=["%s-%s" % g[:2] for g in GOLDEN])
def test_golden_bytes(capsys, monkeypatch, case, fmt, status, stdout):
    argv, patch = GOLDEN_ARGV[case]
    if patch == "theta":
        crook_theta(monkeypatch)
    elif patch == "identity":
        patch_map(monkeypatch, lambda pair, k, a: pair)
    code, out, err = run(capsys, *argv.split(), "--format", fmt)
    assert (code, out, err) == (status, stdout, "")
