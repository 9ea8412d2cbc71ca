"""Verification harness: exact identity checks, exhaustive involution-law
sweeps, and orbit tracing, each returning a structured report.

Identity checks compare two truncated series built independently from
the partition counters and the product/theta primitives.  Identities
with infinite-product denominators are verified in cross-multiplied
form by default; a secondary mode confirms the same equality through
power-series inversion of the unit-constant factor.  Law sweeps
enumerate a ground set exhaustively up to a weight bound and assert the
involution laws configuration by configuration, then match the signed
count of what stayed fixed against the theta series whose terms are the
fixed-point templates.  Every per-scope answer (the (k, a) check, the
ground predicate, the kernel, the fixed-point series and the name of a
traced step) is read from the scope table pipelines._SCOPES, so no
scope is named here.
"""

from __future__ import annotations

import operator
import os
import threading
import time
from contextlib import suppress
from functools import reduce
from itertools import islice
from typing import NamedTuple

from . import partitions, pipelines, series
from .gordon import FixedPoint, _fixed_gf
from .partitions import ParameterError
from .pipelines import ConsistencyError
from .series import TruncatedSeries

SCOPES = tuple(pipelines._SCOPES)


def sweep_cap() -> int:
    """Weight cap for exhaustive sweeps: RRG_MAX_SWEEP, or 30 when it is
    unset.  A value that is not an integer is a ParameterError."""
    value = os.environ.get("RRG_MAX_SWEEP", "30")
    try:
        return int(value)
    except ValueError:
        raise ParameterError("RRG_MAX_SWEEP must be an integer, got %r"
                             % (value,)) from None


class VerificationReport(NamedTuple):
    identity: str
    params: tuple
    truncation: int
    status: str                      # "pass" or "fail"
    first_discrepancy: tuple | None = None   # (exponent, lhs, rhs)
    # (law, configuration, image); law "map" with image None when the
    # map raised on the configuration
    counterexample: tuple | None = None
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class OrbitTrace(NamedTuple):
    start: tuple
    steps: tuple                     # ((label, configuration), ...)
    terminal: str                    # "partner" or "fixed"
    fixed: FixedPoint | None = None


def _poch(N, *factors):
    """Product of the (sign*q^a; q^m)_inf named by factors (a, m) and
    (a, m, sign), truncated at N."""
    return reduce(operator.mul, [series.poch_inf(a, m, N, *sign)
                                 for a, m, *sign in factors])


def _jtp(m, a, N):
    """(q^a; q^m)_inf (q^(m-a); q^m)_inf (q^m; q^m)_inf"""
    return _poch(N, (a, m), (m - a, m), (m, m))


def _walked_gf(family, k, a, N):
    """Series counting the family's members at weights 0..N, from one
    enumeration walk (partitions._walked_counts)."""
    return TruncatedSeries(partitions._walked_counts(family, k, a, N))


def _family_b_at_q2(k, a, N):
    """B_{k,a}(q^2) truncated at N; at k = 1 B holds only the empty
    partition."""
    if k < 2:
        return TruncatedSeries.one(N)
    return series.dilate(series.family_gf("B", k, a, N // 2), 2, N)


# product rearrangement feeding the EE pipeline; it is also the one the
# OO pipeline uses, under the id prelude_oo
_PRELUDE_EE = (None, lambda k, a, N: (
    _poch(N, (1, 2, -1), (1, 1)), None, _poch(N, (2, 4), (2, 2))))

# id -> (scope whose (k, a) rules apply, None when (k, a) are ignored;
# (k, a, N) -> (F, D, R) with F*D = R, D None for no denominator)
_IDENTITIES = {
    # window counts equal residue-class counts; the B side enumerates,
    # so it stays independent of the DPs
    "rrg_counts": ("gordon", lambda k, a, N: (
        series.family_gf("A", k, a, N), None, _walked_gf("B", k, a, N))),
    # signed pair sum collapses to a theta series
    "ebf": ("gordon", lambda k, a, N: (
        series.family_gf("B", k, a, N), _poch(N, (1, 1)),
        _fixed_gf(k, a, N))),
    # W family, k and a even
    "thm13": ("EE", lambda k, a, N: (
        series.family_gf("W", k, a, N), _poch(N, (2, 2)),
        _poch(N, (1, 2, -1)) * _jtp(2 * k + 2, a, N))),
    # W family, k and a even, split as the EE map splits it: a member is
    # its parts of odd multiplicity, distinct and odd, plus a doubled
    # member of B_{k/2,a/2}, which is empty at k = 2
    "ee_split": ("EE", lambda k, a, N: (
        series.family_gf("W", k, a, N), None,
        _poch(N, (1, 2, -1)) * _family_b_at_q2(k // 2, a // 2, N))),
    # W family, k and a odd
    "thm14": ("OO", lambda k, a, N: (
        series.family_gf("W", k, a, N), _poch(N, (1, 1)),
        _poch(N, (2, 4)) * _jtp(2 * k + 2, a, N))),
    # Wbar family, k odd and a even
    "thm15": ("OE", lambda k, a, N: (
        series.family_gf("Wbar", k, a, N), _poch(N, (1, 2, -1), (1, 1)),
        _jtp(2 * k + 2, a, N))),
    # nested-sum form of the residue-class product
    "multisum": ("gordon", lambda k, a, N: (
        series.multisum_rrg(k, a, N), None, series.family_gf("A", k, a, N))),
    # theta series as a triple product
    "jtp_instance": ("gordon", lambda k, a, N: (
        _fixed_gf(k, a, N), None, _jtp(2 * k + 1, a, N))),
    "prelude_ee": _PRELUDE_EE,
    "prelude_oo": _PRELUDE_EE,
    # product rearrangement feeding the OE pipeline
    "prelude_oe": (None, lambda k, a, N: (
        _poch(N, (2, 2)), None, _poch(N, (2, 2, -1), (1, 2, -1), (1, 1)))),
}

IDENTITIES = tuple(_IDENTITIES)


def _identity_sides(identity, k, a, N, mode):
    """The two series an identity F*D = R equates: (F*D, R) in the
    "cross" mode, (F, R*D^-1) through invert_unit in the "invert" one."""
    F, D, R = _IDENTITIES[identity][1](k, a, N)
    if D is None:
        return F, R
    if mode == "invert":
        return F, R * D.invert_unit()
    return F * D, R


def check_identity(identity: str, k: int, a: int, N: int,
                   mode: str = "cross") -> VerificationReport:
    """Compare the two sides of an identity exactly on coefficients
    0..N.  mode "cross" arranges denominators by cross-multiplication;
    mode "invert" uses invert_unit on the denominator instead."""
    t0 = time.monotonic()
    if identity not in IDENTITIES:
        raise ParameterError("identity must be one of %r, got %r"
                             % (IDENTITIES, identity))
    if mode not in ("cross", "invert"):
        raise ParameterError("mode must be cross or invert, got %r" % (mode,))
    scope = _IDENTITIES[identity][0]
    if scope is not None:
        _scope_rules(scope, k, a)
    N = partitions._as_weight(N, "N")
    lhs, rhs = _identity_sides(identity, k, a, N, mode)
    n = series.first_discrepancy(lhs, rhs)
    disc = None if n is None else (n, lhs.coefficient(n), rhs.coefficient(n))
    return VerificationReport(
        identity=identity, params=(k, a), truncation=N,
        status="pass" if n is None else "fail",
        first_discrepancy=disc, elapsed=time.monotonic() - t0)


def _scope_rules(scope, k, a):
    """The scope's row of the scope table, once the scope name and its
    (k, a) are checked."""
    if scope not in SCOPES:
        raise ParameterError("scope must be one of %r, got %r"
                             % (SCOPES, scope))
    rules = pipelines._SCOPES[scope]
    rules.check(k, a)
    return rules


def _image_fault(pair, out, w, member):
    """The first law that out, the image of a ground pair of weight w
    that is no FixedPoint, breaks as its partner, as (law, configuration,
    image), or None when it breaks none: a partner keeps the weight,
    flips the sign and lies in the ground set (member(out) is true).  An
    image whose weight or sign cannot be read (None, an int, a 1-tuple)
    breaks law "map" on the configuration it came from, with no image,
    as a kernel that raises does; a partner outside the ground set, or
    one member cannot decide, breaks law "map" on itself."""
    try:
        if sum(out[0]) + sum(out[1]) != w:
            return "weight", pair, out
        if (len(pair[0]) + len(out[0])) % 2 == 0:
            return "sign", pair, out
    except Exception:
        return "map", pair, None
    try:
        if member(out):
            return None
    except Exception:
        pass
    return "map", out, None


def _workers():
    """How many processes a sweep may use: one per CPU this process may
    run on, or one alone where os cannot fork or another thread runs,
    since a forked child holds a copy of the forking thread only."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _deal(ground, N, workers):
    """The weight classes 0..N dealt to workers, one ascending list each:
    the heaviest class first, each to the least-loaded worker, so the
    first worker takes the first pick and the last the last.  A class
    weighs its pair count, summed over its bucket products."""
    size = [sum(len(ground.As[wa]) * len(ground.Bs[w - wa])
                for wa in range(w + 1)) for w in range(N + 1)]
    loads, hands = [0] * workers, [[] for _ in range(workers)]
    for w in sorted(range(N + 1), key=lambda w: (size[w], w), reverse=True):
        i = loads.index(min(loads))
        loads[i] += size[w]
        hands[i].append(w)
    return [sorted(hand) for hand in hands]


def _sweep_class(ground, w, involute, k, a):
    """Sweep the weight class w: (fault, signed fixed count, the
    configuration being checked at the fault), where fault is the first
    violated law as (law, configuration, image), or None when the class
    passes."""
    cls = dict.fromkeys(ground.pairs(w), True)
    fixed = 0
    for cfg, todo in cls.items():
        if not todo:    # the partner of a configuration checked
            continue
        try:
            out = involute(cfg, k, a)
        except Exception:
            return ("map", cfg, None), fixed, cfg
        try:
            member = out in cls
        except Exception:
            member = False
        if member and (len(cfg[0]) + len(out[0])) % 2:
            cls[out] = False
            try:
                back = involute(out, k, a)
            except Exception:
                return ("map", out, None), fixed, cfg
            if back != cfg:
                return ("involution", cfg, out), fixed, cfg
        elif isinstance(out, FixedPoint):
            fixed += -1 if len(cfg[0]) % 2 else 1
        else:
            return _image_fault(cfg, out, w, cls.__contains__), fixed, cfg
    return None, fixed, None


class _Crew:
    """The forked children of one sweep, and one record of every class
    reported.  Each child sweeps a hand of weight classes in ascending
    order up to its first failing one, and writes one line of three ints
    per class to the pipe all children share, in one os.write, far
    shorter than PIPE_BUF, so no two lines interleave: the weight, then 0
    and the signed fixed count for a class that passed, 1 and a position
    when the map failed on the configuration at that position in
    enumeration order (a fault ("map", configuration, None)), or 2 and 0
    when the class failed otherwise.  It never sends an image, and leaves
    through os._exit, whatever happens."""

    def __init__(self, hands, ground, sweep, low):
        self.ground = ground
        self.low = low      # the lowest weight known to fail
        self.done = {}      # weight -> (fault, fixed) of a class reported
        self.owed = []      # the classes of the hands that forked
        self.pids = []
        self.fd, self.rest = None, b""  # the read end, a line not yet whole
        if any(hands):
            # imported here, so that a process that never forks, as most
            # CLI calls, does not pay for it at start
            import signal
            self.sigkill = signal.SIGKILL
            self.fd, wfd = os.pipe()
            for hand in filter(None, hands):
                self._fork(hand, sweep, wfd)
            os.close(wfd)   # the read end sees EOF once every child is gone

    def _fork(self, hand, sweep, wfd):
        try:
            pid = os.fork()
        except OSError:     # the hand is left unreported, so swept here
            return
        if pid == 0:
            try:
                for w in hand:
                    fault, fixed, cfg = sweep(w)
                    if fault is None:
                        line = w, 0, fixed
                    elif fault == ("map", cfg, None):
                        line = w, 1, list(self.ground.pairs(w)).index(cfg)
                    else:
                        line = w, 2, 0
                    os.write(wfd, b"%d %d %d\n" % line)
                    if fault is not None:
                        break
            finally:
                os._exit(0)
        self.pids.append(pid)
        self.owed += hand

    def listen(self, wait=False):
        """Read what the children have sent, and return low.  With wait,
        read until no child owes a class below low."""
        while self.owed and (not wait or any(
                w < self.low and w not in self.done for w in self.owed)):
            os.set_blocking(self.fd, wait)
            try:
                data = os.read(self.fd, 1 << 16)
            except BlockingIOError:     # nothing sent yet
                break
            if not data:    # every child is gone
                self.owed = []
            *lines, self.rest = (self.rest + data).split(b"\n")
            for line in lines:
                w, status, n = map(int, line.split())
                if status == 0:
                    self.done[w] = None, n
                else:
                    self.low = min(self.low, w)
                    if status == 1:
                        cfg = next(islice(self.ground.pairs(w), n, None))
                        self.done[w] = ("map", cfg, None), None
        return self.low

    def close(self):
        """Close the pipe, and kill and reap every child."""
        if self.fd is not None:
            os.close(self.fd)
        for pid in self.pids:
            # where SIGCHLD is ignored, a child that left is reaped already
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, self.sigkill)
                os.waitpid(pid, 0)


def check_involution_laws(scope: str, k: int, a: int,
                          N: int) -> VerificationReport:
    """Exhaustive sweep of the scope's ground set up to weight N: the
    map must be a sign-reversing weight-preserving involution off its
    fixed configurations, and the signed fixed count must equal the
    fixed-point generating function, a theta series.

    The sweep generates its ground set, so it maps through the scope's
    trusting kernel.  Each weight class is built once, as a dict from
    pair to "not yet checked" in enumeration order, and a partner's
    membership in the ground set is one lookup in it, not the ground
    predicate.  Each orbit is mapped once from each side: a
    configuration is mapped, its partner is looked up, marked checked and
    mapped back, and the partner is then skipped when the enumeration
    reaches it, since its laws are the same facts.  An image that is no
    partner is worded by _image_fault, in the order weight, sign, map.  A
    map that raises is a failing law "map" with no image, not an
    exception.  The report carries the first violating configuration in
    enumeration order, or the first differing coefficient when only the
    series comparison fails.

    Partners share a weight, so the weight classes are swept apart, on
    one process per CPU this process may use (_workers).  The classes are
    dealt heaviest first, each to the least-loaded process.  This process
    keeps the last hand, and forked children (_Crew) sweep the others,
    so the top class, whose first pairs are the costliest single map
    calls, runs in a child, which can be killed.  A child reports each
    class's signed fixed count, or that it failed, never an image.  Each
    process sweeps its classes in ascending weight up to its first
    failure, and this one begins no class above a failure it has heard
    of.  It then builds the report from the lowest failing class: a
    configuration a child's map raised on is read off its position when
    its line arrives, and a class that failed otherwise, or that a child
    left unreported, is swept here again.  So the report, apart from
    elapsed, is the one a sweep in one process gives, and holds the same
    objects."""
    t0 = time.monotonic()
    rules = _scope_rules(scope, k, a)
    N = partitions._as_weight(N, "N")
    cap = sweep_cap()
    if N > cap:
        raise ParameterError(
            "sweep to weight %d exceeds the cap %d; set RRG_MAX_SWEEP "
            "to raise it" % (N, cap))
    ident = "laws_" + scope
    ground = pipelines._Ground(scope, k, a, N)

    def sweep(w):
        return _sweep_class(ground, w, rules.involute, k, a)

    *dealt, own = _deal(ground, N, _workers())
    crew = _Crew(dealt, ground, sweep, N + 1)
    try:
        for w in own:
            if crew.listen() < w:   # a child's lower class failed
                break
            fault, fixed, _ = sweep(w)
            crew.done[w] = fault, fixed
            if fault is not None:
                crew.low = w
                break
        crew.listen(wait=True)
    finally:
        crew.close()
    swept = []
    for w in range(N + 1):
        # a class failed in a child other than by a raise, or left
        # unreported, is swept here again
        fault, fixed = crew.done.get(w) or sweep(w)[:2]
        if fault is not None:
            return VerificationReport(ident, (k, a), N, "fail",
                                      counterexample=fault,
                                      elapsed=time.monotonic() - t0)
        swept.append(fixed)
    got = TruncatedSeries(swept)
    want = rules.fixed_gf(k, a, N)
    n = series.first_discrepancy(got, want)
    if n is not None:
        return VerificationReport(
            ident, (k, a), N, "fail",
            first_discrepancy=(n, got.coefficient(n), want.coefficient(n)),
            elapsed=time.monotonic() - t0)
    return VerificationReport(ident, (k, a), N, "pass",
                              elapsed=time.monotonic() - t0)


def trace_orbit(config, scope: str, k: int, a: int) -> OrbitTrace:
    """Follow a configuration through the involution: one step to its
    partner and one step back, or none if it is fixed.  The orbit is
    checked as a sweep checks it, except that the partner is checked
    with the ground predicate; a broken law raises ConsistencyError, and
    what the map raises propagates."""
    rules = _scope_rules(scope, k, a)
    pair = rules.ground(config, k, a)
    out = rules.involute(pair, k, a)
    if isinstance(out, FixedPoint):
        return OrbitTrace(start=pair, steps=(), terminal="fixed", fixed=out)
    fault = _image_fault(pair, out, sum(pair[0]) + sum(pair[1]),
                         lambda p: rules.fault(p, k, a) is None)
    if fault is None and rules.involute(out, k, a) != pair:
        fault = "involution", pair, out
    if fault is not None:
        law, cfg, image = fault
        raise ConsistencyError("%s law fails on the orbit of %r: %r -> %r"
                               % (law, pair, cfg, image))
    steps = ((rules.label(pair, k, a), out), (rules.label(out, k, a), pair))
    return OrbitTrace(start=pair, steps=steps, terminal="partner")
