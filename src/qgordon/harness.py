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
import time
from collections import Counter
from functools import reduce
from typing import NamedTuple

from . import partitions, pipelines, series
from .gordon import FixedPoint
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
    enumeration walk that is counted as it streams."""
    counts = Counter(map(sum, partitions._walk_family(family, k, a, 0, N)))
    return TruncatedSeries([counts[n] for n in range(N + 1)])


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
        series.theta_sum(2 * k + 1, 2 * (k - a) + 1, N))),
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
        series.theta_sum(2 * k + 1, 2 * (k - a) + 1, N), None,
        _jtp(2 * k + 1, a, N))),
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
    series comparison fails."""
    t0 = time.monotonic()
    rules = _scope_rules(scope, k, a)
    N = partitions._as_weight(N, "N")
    cap = sweep_cap()
    if N > cap:
        raise ParameterError(
            "sweep to weight %d exceeds the cap %d; set RRG_MAX_SWEEP "
            "to raise it" % (N, cap))
    ident = "laws_" + scope
    involute = rules.involute
    ground = pipelines._Ground(scope, k, a, N)
    swept = [0] * (N + 1)
    fault = None
    for w in range(N + 1):
        cls = dict.fromkeys(ground.pairs(w), True)
        for cfg, todo in cls.items():
            if not todo:    # the partner of a configuration checked
                continue
            try:
                out = involute(cfg, k, a)
            except Exception:
                fault = "map", cfg, None
                break
            try:
                member = out in cls
            except Exception:
                member = False
            if member and (len(cfg[0]) + len(out[0])) % 2:
                cls[out] = False
                try:
                    back = involute(out, k, a)
                except Exception:
                    fault = "map", out, None
                    break
                if back != cfg:
                    fault = "involution", cfg, out
                    break
            elif isinstance(out, FixedPoint):
                swept[w] += -1 if len(cfg[0]) % 2 else 1
            else:
                fault = _image_fault(cfg, out, w, cls.__contains__)
                break
        if fault is not None:
            return VerificationReport(ident, (k, a), N, "fail",
                                      counterexample=fault,
                                      elapsed=time.monotonic() - t0)
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
