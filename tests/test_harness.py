"""Tests for the verification harness: identity checks in both modes,
law sweeps with genuine failure detection, orbit traces, and the
laws-imply-identity meta-test."""

import os
import signal
import threading

import pytest
from test_acceptance import PIPELINE_GRID

from qgordon import harness, partitions, pipelines, series
from qgordon.gordon import FixedPoint
from qgordon.harness import (
    IDENTITIES,
    SCOPES,
    OrbitTrace,
    VerificationReport,
    check_identity,
    check_involution_laws,
    trace_orbit,
)
from qgordon.partitions import ParameterError
from qgordon.pipelines import ConsistencyError

GORDON_MAP = pipelines._SCOPES["gordon"].involute


def patch_map(monkeypatch, kernel, scope="gordon"):
    """Make the sweeps and traces map the scope's pairs with kernel."""
    monkeypatch.setitem(pipelines._SCOPES, scope,
                        pipelines._SCOPES[scope]._replace(involute=kernel))


def test_identity_fixtures():
    r = check_identity("rrg_counts", 2, 2, 30)
    assert r.passed and r.first_discrepancy is None
    assert r.params == (2, 2) and r.truncation == 30
    r = check_identity("ebf", 3, 3, 17)
    assert r.passed
    lhs, rhs = harness._identity_sides("ebf", 3, 3, 17, "cross")
    assert lhs.coefficient(17) == 0 and rhs.coefficient(17) == 0
    assert check_identity("thm15", 3, 2, 20).passed


def test_rrg_counts_enumerates_family_b(monkeypatch):
    real = partitions.family_counts

    def no_b_counts(family, k, a, limit):
        if family == "B":
            raise AssertionError("rrg_counts counted B with the DP")
        return real(family, k, a, limit)

    monkeypatch.setattr(partitions, "family_counts", no_b_counts)
    for k, a in [(2, 1), (3, 2), (4, 4)]:
        assert check_identity("rrg_counts", k, a, 30).passed


def test_identity_grid_both_modes():
    cases = (
        [("thm13", k, a) for k, a in [(2, 2), (4, 2), (4, 4)]]
        + [("thm14", k, a) for k, a in [(3, 1), (3, 3), (5, 3), (5, 5)]]
        + [("thm15", k, a) for k, a in [(3, 2), (5, 2), (5, 4)]]
        + [("ebf", k, a) for k in (2, 3) for a in range(1, k + 1)]
        + [("multisum", 3, 2), ("jtp_instance", 4, 3)]
    )
    for ident, k, a in cases:
        assert check_identity(ident, k, a, 25).passed
        assert check_identity(ident, k, a, 25, mode="invert").passed
    # every id at every (k, a) its parameter rules accept, k <= 5; the
    # ids whose sides do not depend on the mode run in both modes too
    parity = {"thm13": (0, 0), "thm14": (1, 1), "thm15": (1, 0),
              "ee_split": (0, 0)}
    for ident in IDENTITIES:
        for k in range(2, 6):
            for a in range(1, k + 1):
                if ident in parity and (k % 2, a % 2) != parity[ident]:
                    continue
                for mode in ("cross", "invert"):
                    r = check_identity(ident, k, a, 40, mode=mode)
                    assert r.passed, (ident, k, a, mode, r.first_discrepancy)


def test_ee_split_deep():
    # W_{k,a} = (-q;q^2)_inf B_{k/2,a/2}(q^2), the split the EE map runs on
    for k, a in [(4, 4), (6, 2)]:
        r = check_identity("ee_split", k, a, 300)
        assert r.passed, (k, a, r.first_discrepancy)
    with pytest.raises(ParameterError):
        check_identity("ee_split", 5, 4, 10)    # k must be even


def test_multisum_large_k():
    # every level above the truncation has n_j = 0, so the sum runs
    # min(k - 1, N) levels, one at a time with no recursion: 1000 levels
    # deep still passes
    for k, a, N in [(1500, 3, 40), (1200, 3, 1000)]:
        assert check_identity("multisum", k, a, N).passed, (k, a, N)


def test_prelude_relations():
    for ident in ("prelude_ee", "prelude_oo", "prelude_oe"):
        r = check_identity(ident, 0, 0, 60)
        assert r.passed
        # parameters are recorded but not interpreted
        assert check_identity(ident, 9, 7, 30).passed


def test_identity_validation():
    with pytest.raises(ParameterError):
        check_identity("nope", 2, 2, 10)
    with pytest.raises(ParameterError):
        check_identity("thm13", 3, 2, 10)   # k must be even
    with pytest.raises(ParameterError):
        check_identity("thm14", 3, 2, 10)   # a must be odd
    with pytest.raises(ParameterError):
        check_identity("thm15", 3, 3, 10)   # a must be even
    with pytest.raises(ParameterError):
        check_identity("ebf", 2, 3, 10)     # a > k
    with pytest.raises(ParameterError):
        check_identity("ebf", 2, 2, -1)
    with pytest.raises(ParameterError):
        check_identity("ebf", 2, 2, 10, mode="fast")


def test_identity_failure_reporting(monkeypatch):
    # corrupt one primitive and the report must localize the break
    real = series.theta_sum

    def crooked(alpha, beta, N):
        out = list(real(alpha, beta, N).coeffs)
        if len(out) > 7:
            out[7] += 1
        return series.TruncatedSeries(out)

    monkeypatch.setattr(series, "theta_sum", crooked)
    r = check_identity("ebf", 2, 2, 12)
    assert r.status == "fail"
    n, lhs, rhs = r.first_discrepancy
    assert n == 7 and lhs != rhs


def test_involution_laws_pass():
    assert check_involution_laws("gordon", 3, 3, 20).passed
    assert check_involution_laws("gordon", 2, 2, 16).passed
    assert check_involution_laws("EE", 2, 2, 18).passed
    assert check_involution_laws("OO", 3, 3, 14).passed
    assert check_involution_laws("OE", 3, 2, 14).passed
    r = check_involution_laws("gordon", 2, 1, 0)
    assert r.passed  # the single weight-0 fixed point carries the sweep


def test_involution_laws_counterexample(monkeypatch):
    # a broken map must surface as a configuration, not a wrong series
    patch_map(monkeypatch, lambda pair, k, a: pair)
    r = check_involution_laws("gordon", 2, 2, 6)
    assert r.status == "fail"
    law, cfg, image = r.counterexample
    assert law == "sign" and cfg == image


def test_involution_laws_series_failure(monkeypatch):
    real = series.theta_sum

    def crooked(alpha, beta, N):
        out = list(real(alpha, beta, N).coeffs)
        if len(out) > 5:
            out[5] -= 2
        return series.TruncatedSeries(out)

    monkeypatch.setattr(series, "theta_sum", crooked)
    r = check_involution_laws("gordon", 2, 2, 8)
    assert r.status == "fail"
    assert r.counterexample is None
    assert r.first_discrepancy[0] == 5


def _four_call_sweep(k, a, N, involute):
    """The first law counterexample of a Gordon sweep that maps every
    configuration and maps its image back, partners included."""
    ground = pipelines._Ground("gordon", k, a, N)
    for w in range(N + 1):
        for cfg in ground.pairs(w):
            out = involute(cfg, k, a)
            if isinstance(out, FixedPoint):
                continue
            if sum(out[0]) + sum(out[1]) != w:
                return ("weight", cfg, out)
            if (len(cfg[0]) + len(out[0])) % 2 == 0:
                return ("sign", cfg, out)
            if involute(out, k, a) != cfg:
                return ("involution", cfg, out)
    return None


def _first_partners(k, a, w):
    """(cfg, partner) of the first configuration of weight w in sweep
    order that has a partner."""
    for cfg in pipelines._Ground("gordon", k, a, w).pairs(w):
        out = GORDON_MAP(cfg, k, a)
        if not isinstance(out, FixedPoint):
            return cfg, out
    raise AssertionError("weight %d has no partners" % w)


def test_sweep_maps_each_configuration_once(monkeypatch, serial):
    k, a, N = 3, 3, 12
    # ground-set sizes from counting DPs, not from the sweep's enumerator
    distinct = [1] + [0] * N
    for part in range(1, N + 1):
        for w in range(N, part - 1, -1):
            distinct[w] += distinct[w - part]
    family = partitions.family_counts("B", k, a, N)
    configs = sum(distinct[j] * family[w - j]
                  for w in range(N + 1) for j in range(w + 1))
    calls = []
    real = GORDON_MAP

    def counted(pair, k, a):
        calls.append(pair)
        return real(pair, k, a)

    patch_map(monkeypatch, counted)
    assert check_involution_laws("gordon", k, a, N).passed
    assert len(calls) == configs
    assert len(set(calls)) == configs


def test_broken_return_trip_reported_where_four_calls_would(monkeypatch):
    k, a = 3, 3
    real = GORDON_MAP
    cfg, partner = _first_partners(k, a, 9)

    def broken(pair, k, a):
        # partner maps to itself; cfg still maps to partner
        return pair if pair == partner else real(pair, k, a)

    patch_map(monkeypatch, broken)
    r = check_involution_laws("gordon", k, a, 11)
    assert r.status == "fail"
    assert r.counterexample == ("involution", cfg, partner)
    assert r.counterexample == _four_call_sweep(k, a, 11, broken)


def test_weight_changing_map_reported(monkeypatch):
    k, a = 3, 2
    real = GORDON_MAP

    def heavier(pair, k, a):
        out = real(pair, k, a)
        if isinstance(out, FixedPoint) or sum(pair[0]) + sum(pair[1]) < 7:
            return out
        return (out[0], out[1] + (1,))

    patch_map(monkeypatch, heavier)
    r = check_involution_laws("gordon", k, a, 10)
    assert r.status == "fail" and r.counterexample[0] == "weight"
    assert sum(map(sum, r.counterexample[1])) == 7
    assert r.counterexample == _four_call_sweep(k, a, 10, heavier)


def test_raising_map_is_a_failing_report():
    # the OO (3, 3) matching leaves this weight-21 pair without a partner
    r = check_involution_laws("OO", 3, 3, 21)
    assert r.status == "fail"
    assert r.counterexample == ("map", ((8, 6, 4), (3,)), None)
    assert r.first_discrepancy is None


def test_map_raising_on_its_image_is_reported(monkeypatch):
    k, a = 3, 3
    real = GORDON_MAP
    cfg, partner = _first_partners(k, a, 8)
    # B gains a zero part; or A repeats a part, at the same weight and
    # with the sign flipped, so only the ground check can catch it
    for outside in [(partner[0], partner[1] + (0,)),
                    ((4, 4) if len(cfg[0]) % 2 else (4, 2, 2), ())]:

        def leaky(pair, k, a):
            return outside if pair == cfg else real(pair, k, a)

        patch_map(monkeypatch, leaky)
        r = check_involution_laws("gordon", k, a, 9)
        assert r.status == "fail"
        assert r.counterexample == ("map", outside, None)

    def raising(pair, k, a):
        if pair == partner:
            raise ConsistencyError("no partner for %r" % (pair,))
        return real(pair, k, a)

    patch_map(monkeypatch, raising)
    r = check_involution_laws("gordon", k, a, 9)
    assert r.counterexample == ("map", partner, None)


def test_any_map_exception_is_a_failing_report(monkeypatch):
    k, a = 3, 3
    cfg, partner = _first_partners(k, a, 8)

    def deep(pair, k, a):
        if pair in (cfg, partner):
            raise RecursionError("maximum recursion depth exceeded")
        return GORDON_MAP(pair, k, a)

    patch_map(monkeypatch, deep)
    r = check_involution_laws("gordon", k, a, 9)
    assert r.status == "fail"
    assert r.counterexample == ("map", cfg, None)

    def deep_image(pair, k, a):
        if pair == partner:
            raise RecursionError("maximum recursion depth exceeded")
        return GORDON_MAP(pair, k, a)

    patch_map(monkeypatch, deep_image)
    r = check_involution_laws("gordon", k, a, 9)
    assert r.counterexample == ("map", partner, None)


@pytest.mark.parametrize("image", [None, ((6,),), 7],
                         ids=["None", "1-tuple", "int"])
def test_image_that_is_no_pair_is_a_failing_report(monkeypatch, image):
    # weight and sign cannot be read on such an image, so the mapped
    # configuration breaks law "map", as if the kernel had raised
    k, a = 3, 2
    cfg, _ = _first_partners(k, a, 5)

    def stray(pair, k, a):
        return image if pair == cfg else GORDON_MAP(pair, k, a)

    patch_map(monkeypatch, stray)
    r = check_involution_laws("gordon", k, a, 5)
    assert r.status == "fail"
    assert r.counterexample == ("map", cfg, None)
    patch_map(monkeypatch, lambda pair, k, a: image)
    with pytest.raises(ConsistencyError, match="map law"):
        trace_orbit(((6, 1), (5, 5)), "gordon", 3, 3)


def test_list_image_breaks_the_sign_law(monkeypatch):
    # a list holding the configuration's own sides has its weight and
    # its sign: the sign law is the first one it breaks
    patch_map(monkeypatch, lambda pair, k, a: list(pair))
    r = check_involution_laws("gordon", 3, 2, 5)
    assert r.counterexample == ("sign", ((), ()), [(), ()])
    with pytest.raises(ConsistencyError, match="sign law"):
        trace_orbit(((6, 1), (5, 5)), "gordon", 3, 3)


def test_list_partner_breaks_the_map_law_on_itself(monkeypatch):
    # a list holding the partner's sides has the partner's weight and
    # sign, but the weight class cannot look it up: the membership test
    # raises, so the image breaks law "map" on itself
    k, a = 3, 2
    cfg, partner = _first_partners(k, a, 5)
    image = list(partner)

    def listed(pair, k, a):
        return image if pair == cfg else GORDON_MAP(pair, k, a)

    patch_map(monkeypatch, listed)
    r = check_involution_laws("gordon", k, a, 5)
    assert r.status == "fail"
    assert r.counterexample == ("map", image, None)


forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="os cannot fork")

# the law sweeps of the sweep benchmark: acceptance criteria 5 (Gordon,
# at weight 23) and 6 (pipelines, at weight 21), one weight above their
# gates; OO (3, 3) fails at 21
BENCH_SWEEPS = ([("gordon", k, a, 23) for k in (2, 3, 4)
                 for a in range(1, k + 1)]
                + [(s, k, a, 21) for s, k, a in PIPELINE_GRID])


def _by_workers(monkeypatch, *sweep):
    """repr of the sweep's report at one worker, at two, and at three,
    where two children write one pipe, with elapsed left out."""
    reports = []
    for n in (1, 2, 3):
        monkeypatch.setattr(harness, "_workers", lambda n=n: n)
        r = check_involution_laws(*sweep)
        reports.append(repr(r._replace(elapsed=None)))
    return reports


@forks
@pytest.mark.parametrize("scope,k,a,N", BENCH_SWEEPS)
def test_two_workers_report_as_one(monkeypatch, scope, k, a, N):
    one, two, three = _by_workers(monkeypatch, scope, k, a, N)
    assert one == two == three


def _hands(k, a, N):
    """The Gordon weight classes to N dealt to two workers: (this
    process's, the child's), the last hand and the first."""
    hands = harness._deal(pipelines._class_sizes("gordon", k, a, N), 2)
    return hands[-1], hands[0]


def test_classes_are_dealt_heaviest_first():
    # the classes grow with the weight here: the heaviest, the top one,
    # goes to the child and the next to this process, and dealing each
    # to the less-loaded worker evens the loads out; lightest first
    # would leave 950 pairs in one process and 682 in the other
    ground = pipelines._Ground("gordon", 3, 3, 14)
    size = [len(list(ground.pairs(w))) for w in range(15)]
    own, child = _hands(3, 3, 14)
    assert own[-1] == 13 and child[-1] == 14
    assert sorted(own + child) == list(range(15))
    assert sum(size[w] for w in own) == sum(size[w] for w in child) == 816


def _failing_in(weights, raising=False):
    """The Gordon map, but each pair of the given weights with a partner
    is mapped to itself, which breaks the sign law, or raises."""

    def kernel(pair, k, a):
        out = GORDON_MAP(pair, k, a)
        if sum(map(sum, pair)) in weights and not isinstance(out, FixedPoint):
            if raising:
                raise ConsistencyError("no partner for %r" % (pair,))
            return pair
        return out

    return kernel


@forks
@pytest.mark.parametrize("picks,raising", [
    ("c", False), ("p", False), ("cp", False), ("pc", False), ("c", True),
    ("p", True)],
    ids=["child", "parent", "both-child-lower", "both-parent-lower",
         "child-raises", "parent-raises"])
def test_a_failing_class_is_reported_as_in_one_process(monkeypatch, picks,
                                                       raising):
    # picks names whose classes fail, from the lowest weight up: the
    # child's (c) or this process's (p), each at weight 8 or above
    k, a, N = 3, 3, 14
    own, child = _hands(k, a, N)
    hand = {"c": [w for w in child if w >= 8], "p": [w for w in own if w >= 8]}
    weights = [hand[picks[0]][0]]
    if len(picks) == 2:
        weights.append(min(w for w in hand[picks[1]] if w > weights[0]))
    patch_map(monkeypatch, _failing_in(weights, raising))
    one, two, three = _by_workers(monkeypatch, "gordon", k, a, N)
    assert one == two == three
    r = check_involution_laws("gordon", k, a, N)
    law, cfg, _ = r.counterexample
    assert law == ("map" if raising else "sign")
    assert sum(map(sum, cfg)) == weights[0]


@forks
def test_a_series_failure_is_reported_as_in_one_process(monkeypatch):
    real = series.theta_sum

    def crooked(alpha, beta, N):
        out = list(real(alpha, beta, N).coeffs)
        out[11] += 1
        return series.TruncatedSeries(out)

    monkeypatch.setattr(series, "theta_sum", crooked)
    one, two, three = _by_workers(monkeypatch, "gordon", 3, 3, 14)
    assert one == two == three
    assert "first_discrepancy=(11, " in two


@forks
def test_a_dying_child_leaves_the_report_as_in_one_process(monkeypatch):
    # the map kills any process but this one: each child dies without a
    # report, and this process sweeps the children's classes itself
    pid = os.getpid()

    def dying(pair, k, a):
        if os.getpid() != pid:
            os._exit(1)
        return GORDON_MAP(pair, k, a)

    patch_map(monkeypatch, dying)
    one, two, three = _by_workers(monkeypatch, "gordon", 3, 3, 14)
    assert one == two == three and "'pass'" in two
    # no child returned here, and none is left running or unreaped
    assert os.getpid() == pid
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forks
def test_an_ignored_sigchld_leaves_the_report_as_in_one_process(monkeypatch):
    # the system reaps each child as it leaves, so no pid is left to
    # kill or to wait for
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        one, two, three = _by_workers(monkeypatch, "gordon", 3, 3, 14)
    finally:
        signal.signal(signal.SIGCHLD, old)
    assert one == two == three and "'pass'" in two


def test_a_running_thread_keeps_the_sweep_in_one_process():
    # a forked child would hold a copy of the forking thread only
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert harness._workers() == 1
    finally:
        stop.set()
        thread.join(5)
    assert not thread.is_alive()


def test_sweep_budget():
    # the budget bounds the pairs a sweep walks, not its weight: Gordon
    # (4, 4) to 47 is just under it, and to 48 over it
    assert harness._SWEEP_PAIRS == 1 << 23
    assert sum(pipelines._class_sizes("gordon", 4, 4, 47)) == 8_386_543
    for scope, k, a, N in [("gordon", 4, 4, 48), ("gordon", 3, 3, 80),
                           ("OO", 3, 3, 120)]:
        pairs = sum(pipelines._class_sizes(scope, k, a, N))
        assert pairs > harness._SWEEP_PAIRS
        with pytest.raises(ParameterError, match="%d pairs" % pairs):
            check_involution_laws(scope, k, a, N)
    with pytest.raises(ParameterError):
        check_involution_laws("gordon", 3, 3, -1)


def test_report_records_are_frozen_tuples_with_stable_reprs():
    r = VerificationReport("ebf", (3, 3), 17, "pass")
    assert repr(r) == (
        "VerificationReport(identity='ebf', params=(3, 3), truncation=17, "
        "status='pass', first_discrepancy=None, counterexample=None, "
        "elapsed=0.0)")
    assert r.passed and not r._replace(status="fail").passed
    t = OrbitTrace(((2,), (1, 1)), (), "fixed", FixedPoint(1, 1))
    assert repr(t) == ("OrbitTrace(start=((2,), (1, 1)), steps=(), "
                       "terminal='fixed', fixed=FixedPoint(family=1, n=1))")
    for rec in (r, t):
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)
        twin = type(rec)(*rec)
        assert twin == rec and hash(twin) == hash(rec)
        assert rec == tuple(rec)


def test_trace_orbit_fixtures():
    t = trace_orbit(((6, 1), (5, 5)), "gordon", 3, 3)
    assert t.terminal == "partner"
    assert t.steps[0] == ("U(1,1)", ((6,), (6, 5)))
    assert t.steps[1][1] == ((6, 1), (5, 5))
    t = trace_orbit(((), ()), "gordon", 3, 3)
    assert t.terminal == "fixed" and t.steps == ()
    assert t.fixed == FixedPoint(0, 0)
    t = trace_orbit(((10, 8, 5), (5, 4, 4, 4, 4)), "EE", 6, 6)
    assert t.terminal == "partner"
    assert t.steps[0][1] == ((10, 5), (5, 5, 5, 4, 4, 3, 3))
    t = trace_orbit(((), ()), "OE", 7, 6)
    assert t.terminal == "fixed" and t.fixed == FixedPoint(0, 0)


def test_trace_orbit_weight_constant():
    for scope, k, a in [("gordon", 3, 2), ("EE", 4, 2), ("OO", 3, 3)]:
        ground = pipelines._Ground(scope, k, a, 8)
        for w in range(9):
            for cfg in ground.pairs(w):
                t = trace_orbit(cfg, scope, k, a)
                for _, stop in t.steps:
                    assert sum(stop[0]) + sum(stop[1]) == w


def test_trace_orbit_checks_the_laws(monkeypatch):
    pair = ((6, 1), (5, 5))
    # a map that returns its input breaks the sign law
    patch_map(monkeypatch, lambda pair, k, a: pair)
    with pytest.raises(ConsistencyError, match="sign law"):
        trace_orbit(pair, "gordon", 3, 3)
    # a partner outside the ground set breaks the map law
    partner = GORDON_MAP(pair, 3, 3)
    patch_map(monkeypatch, lambda p, k, a: (partner[0], partner[1] + (0,)))
    with pytest.raises(ConsistencyError, match="map law"):
        trace_orbit(pair, "gordon", 3, 3)
    # a partner that maps to itself, not back, breaks the involution law
    patch_map(monkeypatch, lambda p, k, a: partner)
    with pytest.raises(ConsistencyError, match="involution law"):
        trace_orbit(pair, "gordon", 3, 3)

    # what the map raises propagates
    def deep(pair, k, a):
        raise RecursionError("maximum recursion depth exceeded")

    patch_map(monkeypatch, deep)
    with pytest.raises(RecursionError):
        trace_orbit(pair, "gordon", 3, 3)


def test_trace_orbit_validation():
    with pytest.raises(ParameterError):
        trace_orbit(((3,), ()), "OO", 3, 3)
    with pytest.raises(ParameterError):
        trace_orbit(((), ()), "nope", 3, 3)


def test_laws_imply_identity():
    # the meta-test: a passing sweep forces the matching product
    # identity to pass at the same truncation
    pairs = [
        ("gordon", 3, 3, "ebf"),
        ("gordon", 2, 1, "ebf"),
        ("EE", 2, 2, "thm13"),
        ("EE", 4, 4, "thm13"),
        ("OO", 3, 3, "thm14"),
        ("OE", 3, 2, "thm15"),
    ]
    N = 14
    for scope, k, a, ident in pairs:
        laws = check_involution_laws(scope, k, a, N)
        identity = check_identity(ident, k, a, N)
        assert not laws.passed or identity.passed
        # and on this grid both really do pass
        assert laws.passed and identity.passed
