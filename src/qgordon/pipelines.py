"""Companion involutions for the parity-restricted pair families.

Three pipelines, named by the parities of (k, a), act on pairs (A | B)
where A is strictly decreasing and signed and B satisfies the window
conditions plus a multiplicity-parity restriction:

* EE (k, a even):   A has arbitrary distinct parts, B in W_{k,a}
  (every even part of B occurs an even number of times),
* OO (k, a odd):    A has distinct even parts, B in W_{k,a},
* OE (k odd, a even): A has distinct even parts, B in Wbar_{k,a}
  (every odd part occurs an even number of times).

EE maps as a product: B splits into O, its parts of odd multiplicity
(distinct and odd, as W pairs up its even parts), and G, half its
pairs, in B_{k/2,a/2}, so that B = O + G + G (Andrews, "Parity in
partition identities", 2010).  When A's odd parts differ from O, the
largest part of the difference crosses between A and B; otherwise the
base involution at (k/2, a/2) acts on A's even parts halved and on G.

OO and OE encode a pair as a triple: equal parts of B merge in pairs
into doubled parts (the middle), unpaired parts remain single (D).  On
triples, a ladder of moves applies: the largest middle part crosses to
A when it dominates, otherwise A's largest part crosses into the
middle, and when that image leaves the ground set the base involution
on halved middle values at reduced parameters takes over.  A move is
kept only when the routed image routes straight back.  The rest, the
residue, is paired off by a deterministic maximum matching over a
small library of symmetric weight-preserving carry moves, each flipping
the A-length parity.  The matching is built one connected component of
the residue at a time, reached from the pair by its carry moves, so
mapping a pair enumerates no weight class; a component with more carry
candidates than a fixed budget is refused.  Every move keeps the
weight, so the routes and matchings are kept per weight class, for the
last weight mapped only; a refused pair leaves none of its routes
behind, only its refusal, which a second call repeats at once.

What survives is (apart from the OO a = 1 sector, where the templates
degenerate) a two-family sequence of template triples indexed by n, of
weights (k+1)n^2 +- (k+1-a)n, each carrying a free partition E, so the
signed generating function of the fixed configurations is a theta
series times a fixed product factor.

The pipelines differ in three stated facts: the parities of (k, a)
(_PARITY_RULES), the ground set, A's part parity and B's family
(_SCOPES), and the free-part factor of E (_E_FACTORS).  The rest is
derived from them: B's family fixes the parity of the parts the merge
leaves single, hence the residue of the middle parts that split and the
staircase of a fixed triple (the single-parity sizes up to the top of
its base template); the factor (sign*q^e; q^m)_inf fixes the shape of a
free part (v = e mod m) and whether it counts in the sign (sign +1).
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import groupby
from typing import Callable, NamedTuple

from . import partitions, series
from .gordon import (FixedPoint, _check_pair, _fixed_pair, _involute,
                     _involute_k1, _pair_fault, _trace_label, gordon_fixed_gf,
                     gordon_fixed_point)
from .partitions import ParameterError
from .series import TruncatedSeries

PIPELINES = ("EE", "OO", "OE")


class ConsistencyError(RuntimeError):
    """A pipeline map found no partner for a pair that is no fixed
    configuration, or an orbit broke a law of the involution."""

# the parities of (k, a) each pipeline needs (0 even, 1 odd), as worded
# in its error message
_PARITY_RULES = {"EE": ((0, 0), "k and a even"),
                 "OO": ((1, 1), "k and a odd"),
                 "OE": ((1, 0), "k odd and a even")}
# (e, m, sign) of the product (sign*q^e; q^m)_inf generating the free
# parts E with their signs
_E_FACTORS = {"EE": (2, 4, 1), "OO": (1, 2, -1), "OE": (2, 2, -1)}


class _Scope(NamedTuple):
    """Every per-scope fact the law sweeps, orbit traces and command line
    read.  The ground set is two facts, the parity allowed for A's
    distinct parts and B's family, and its predicate is derived from
    them: fault gives the reason a pair is outside it, ground raises it.
    The validating entries (check, template) raise ParameterError; the
    kernel (involute) maps a ground pair it trusts to its partner or a
    FixedPoint.  The table, _SCOPES, stands after the kernels it names."""
    parity: str | None      # parity of the distinct parts of A
    family: str             # family of B
    check: Callable         # (k, a) -> None
    involute: Callable      # (pair, k, a) -> image, trusting its input
    fixed_gf: Callable      # (k, a, N) -> signed fixed-point series
    template: Callable      # (family, n, k, a) -> fixed configuration
    label: Callable         # (pair, k, a) -> name of an orbit trace step

    def fault(self, pair, k, a):
        """Why pair is outside the ground set, or None when it is in it."""
        return _pair_fault(pair[0], pair[1], k, a, self.parity, self.family)

    def ground(self, pair, k, a):
        """The ground pair as a pair of tuples, or ParameterError."""
        return _check_pair(pair, k, a, self.parity, self.family)


def _require_pipeline(pipeline):
    if pipeline not in PIPELINES:
        raise ParameterError("pipeline must be one of %r, got %r"
                             % (PIPELINES, pipeline))


def _single_parity(pipeline):
    """Parity of the parts the merge leaves single: W pairs up its even
    parts, so only odd ones stay single; Wbar the other way round."""
    return 1 if _SCOPES[pipeline].family == "W" else 0


def _is_free_part(v, pipeline):
    """A free part of (sign*q^e; q^m)_inf is e mod m."""
    e, m = _E_FACTORS[pipeline][:2]
    return v % m == e % m


def _untemplated(pipeline, a):
    """The OO a = 1 sector, whose fixed configurations have no template."""
    return pipeline == "OO" and a == 1


def check_pipeline(pipeline: str, k: int, a: int) -> None:
    """Validate the pipeline id and its parity preconditions on (k, a)."""
    _require_pipeline(pipeline)
    partitions.check_params(k, a)
    parities, wording = _PARITY_RULES[pipeline]
    if (k % 2, a % 2) != parities:
        raise ParameterError("%s needs %s, got (%d, %d)"
                             % (pipeline, wording, k, a))


def inner_params(pipeline: str, k: int, a: int) -> tuple:
    """(k, a) for the reduced involution on halved middle parts; every
    pipeline halves both, rounding down."""
    return k // 2, a // 2


class PartitionTriple(NamedTuple):
    """Triple encoding of a pair.

    B is the merged middle (doubled parts, plus the unpaired odd parts
    for EE), D holds the unpaired single parts for OO/OE (empty for EE),
    and E the extracted free parts (EE: parts 2 mod 4, sign-carrying;
    empty for OO/OE until a fixed configuration is canonicalized)."""
    A: tuple
    B: tuple
    D: tuple
    E: tuple


def triple_weight(triple) -> int:
    A, B, D, E = triple
    return sum(A) + sum(B) + sum(D) + sum(E)


def triple_sign(triple, pipeline: str) -> int:
    """E parts count in the sign when their factor (q^e; q^m)_inf has
    sign +1 (EE), not when it is (-q^e; q^m)_inf (OO/OE)."""
    _require_pipeline(pipeline)
    A, B, D, E = triple
    n = len(A) + (len(E) if _E_FACTORS[pipeline][2] == 1 else 0)
    return -1 if n % 2 else 1


# --------------------------------------------------------------- ground set

def in_ground(pair, pipeline: str, k: int, a: int) -> bool:
    """Membership test for the pipeline's ground set."""
    check_pipeline(pipeline, k, a)
    return _ground_valid(pair, pipeline, k, a)


def _ground_valid(pair, pipeline, k, a):
    return _SCOPES[pipeline].fault(pair, k, a) is None


class _Ground:
    """Weight classes of one ground set, streamed from the distinct-part
    lists of A and the family lists of B.  The B lists come from walks
    of the family bucketed by weight: the first walk covers weights up to
    top, or up to the weight asked for when that is higher, and a later
    one only the weights above those walked, so a sweep that gives its
    top weight walks the family once.  A walk yields each weight's
    members in enumerate_family's order, and each A list is
    enumerate_distinct's, so pairs() keeps that order."""

    def __init__(self, scope, k, a, top=0):
        ground = _SCOPES[scope]
        self.parity, self.family = ground.parity, ground.family
        self.k, self.a, self.top = k, a, top
        self.As, self.Bs = {}, []

    def _A(self, wa):
        As = self.As.get(wa)
        if As is None:
            As = self.As[wa] = partitions.enumerate_distinct(wa, self.parity)
        return As

    def _B(self, wb):
        Bs = self.Bs
        if wb >= len(Bs):
            hi = max(wb, self.top)
            lo = len(Bs)
            Bs.extend([] for _ in range(lo, hi + 1))
            for B in partitions._walk_family(self.family, self.k, self.a,
                                             lo, hi):
                Bs[sum(B)].append(B)
        return Bs[wb]

    def pairs(self, w):
        """The pairs of weight w, A-weight descending."""
        for wa in range(w, -1, -1):
            As = self._A(wa)
            if not As:
                continue
            Bs = self._B(w - wa)
            for A in As:
                for B in Bs:
                    yield (A, B)


def enumerate_ground(pipeline: str, k: int, a: int, n: int):
    """All ground-set pairs of weight exactly n, A-weight descending."""
    check_pipeline(pipeline, k, a)
    if n < 0:
        raise ParameterError("n must be >= 0, got %r" % (n,))
    return list(_Ground(pipeline, k, a, n).pairs(n))


# ------------------------------------------------------------ triple coding

def _merge_pairs(parts):
    """Pair equal parts of a weakly decreasing sequence once: (doubled
    parts, unpaired leftovers), both descending, one pass over its runs."""
    merged, left = [], []
    for v, run in groupby(parts):
        m = len(tuple(run))
        merged += [2 * v] * (m // 2)
        if m % 2:
            left.append(v)
    return tuple(merged), tuple(left)


def _encode(pair, pipeline):
    """Merge-level triple of a ground pair (no redistribution)."""
    A, B = pair
    if pipeline == "EE":
        shared = [x for x in A if x % 2 and x in B]
        rest = list(B)
        for x in shared:
            rest.remove(x)
        merged, left = _merge_pairs(rest)
        return (tuple(x for x in A if x not in shared),
                tuple(sorted(merged + left, reverse=True)), (),
                tuple(2 * x for x in shared))
    C, D = _merge_pairs(B)
    return (tuple(A), C, D, ())


def _rho(C, D, pipeline):
    """Split one middle part per value whose half is absent from D and
    has the single parity (so the part is 2 * parity mod 4); the two
    halves join D."""
    res = 2 * _single_parity(pipeline)
    dset = set(D)
    keep, moved, seen = [], [], set()
    for c in C:
        if c % 4 == res and c // 2 not in dset and c not in seen:
            seen.add(c)
            moved.extend([c // 2, c // 2])
        else:
            keep.append(c)
    if not moved:
        return C, D
    return tuple(keep), tuple(sorted(D + tuple(moved), reverse=True))


def _normalize(t, pipeline):
    """Redistributed form of a triple (identity for EE)."""
    A, mid, D, E = t
    if pipeline == "EE":
        return t
    C, D = _rho(mid, D, pipeline)
    return (A, C, D, E)


def to_triple(pair, pipeline: str, k: int, a: int) -> PartitionTriple:
    """Encode a ground pair: shared odd parts of A and B leave pairwise
    into E (EE only), then equal parts of B merge pairwise into doubled
    middle parts, unpaired parts staying single."""
    check_pipeline(pipeline, k, a)
    return PartitionTriple(*_encode(_SCOPES[pipeline].ground(pair, k, a),
                                    pipeline))


def un_transform(triple, pipeline: str) -> tuple:
    """Invert the triple encoding back to a pair (A, B).  Accepts both
    the merge-level form and the redistributed form."""
    _require_pipeline(pipeline)
    A, mid, D, E = triple
    if pipeline == "EE":
        if D:
            raise ConsistencyError("EE triples carry no D component: %r"
                                   % (triple,))
        B = []
        for v in mid:
            if v % 2 == 0:
                B.extend([v // 2, v // 2])
            else:
                B.append(v)
        back = list(A)
        for e in E:
            if not _is_free_part(e, pipeline):
                raise ConsistencyError("EE free parts must be 2 mod 4: %r"
                                       % (triple,))
            back.append(e // 2)
            B.append(e // 2)
        return (tuple(sorted(back, reverse=True)),
                tuple(sorted(B, reverse=True)))
    if E:
        raise ConsistencyError("%s triples carry no E component before "
                               "canonicalization: %r" % (pipeline, triple))
    B = list(D)
    for c in mid:
        if c % 2:
            raise ConsistencyError("middle parts must be even: %r" % (triple,))
        B.extend([c // 2, c // 2])
    return (tuple(A), tuple(sorted(B, reverse=True)))


def redistribute(triple, pipeline: str) -> PartitionTriple:
    """Split middle parts whose halves are absent from D (one per value,
    which already reaches the stable form), halves joining D.  Only the
    OO/OE pipelines have this step."""
    if pipeline == "EE":
        raise ParameterError("the EE pipeline has no redistribution step")
    _require_pipeline(pipeline)
    A, mid, D, E = triple
    C, D2 = _rho(mid, D, pipeline)
    return PartitionTriple(tuple(A), C, D2, tuple(E))


# ------------------------------------------------------- fixed configurations

def _fixed_core(pipeline, family, n, k, a):
    """(A, middle) of the fixed template: the base fixed pair at the
    reduced parameters with every part doubled."""
    Ah, Bh = _fixed_pair(family, n, *inner_params(pipeline, k, a))
    return (tuple(2 * x for x in Ah), tuple(2 * x for x in Bh))


def _top(A):
    """Top of the base template under a fixed core with parts A (A's top
    part is that top doubled); 0 for the empty core."""
    return A[0] // 2 if A else 0


def _staircase(pipeline, top):
    """Canonical D of a fixed triple whose base template tops out at
    top: the single-parity sizes up to top (EE triples carry no D)."""
    if pipeline == "EE":
        return ()
    p = _single_parity(pipeline)
    return tuple(v for v in range(top, 0, -1) if v % 2 == p)


def _staircase_compat(D, pipeline, top):
    """D equals the staircase with each step once or twice, plus
    distinct extra parts above top (the free parts to extract)."""
    if pipeline == "EE":
        return not D
    cnt = Counter(D)
    return (all(cnt[v] in (1, 2) for v in _staircase(pipeline, top))
            and all(m == 1 for v, m in cnt.items() if v > top))


def _fixed_check(t, pipeline, k, a):
    """(family, n) when the redistributed triple is fixed, else None.
    The weight-0 core reports as (0, 0); the OO a=1 sector has no
    template parametrization and always reports None here."""
    if _untemplated(pipeline, a):
        return None
    A, mid, D, E = t
    n = len(A)
    if n == 0:
        if mid == () and _staircase_compat(D, pipeline, 0):
            return (0, 0)
        return None
    # the base template tops out at 2n in family 1 and 2n - 1 in family 2
    for family, top in ((1, 2 * n), (2, 2 * n - 1)):
        if (A[0] == 2 * top and (A, mid) == _fixed_core(pipeline, family, n, k, a)
                and _staircase_compat(D, pipeline, top)):
            return (family, n)
    return None


def _extract_free(t, pipeline):
    """Free parts of a fixed triple: extras above the staircase plus one
    copy of each duplicated step (EE: the E component itself)."""
    A, mid, D, E = t
    if pipeline == "EE":
        return tuple(E)
    top = _top(A)
    return tuple(v for v, m in sorted(Counter(D).items(), reverse=True)
                 if v > top or m == 2)


def pipeline_fixed_triple(pipeline: str, family: int, n: int,
                          k: int, a: int) -> PartitionTriple:
    """Canonical fixed template triple with empty E: the doubled base
    template as (A, middle) plus the canonical staircase in D.  Weight
    is (k+1)n^2 + (k+1-a)n for family 1 and (k+1)n^2 - (k+1-a)n for
    family 2; n = 0 gives the common empty core (family 0, 1 or 2)."""
    check_pipeline(pipeline, k, a)
    if _untemplated(pipeline, a):
        raise ParameterError("no fixed templates at a = 1")
    if n < 0:
        raise ParameterError("n must be >= 0, got %r" % (n,))
    if family not in (0, 1, 2) or (family == 0 and n != 0):
        raise ParameterError("family must be 1 or 2 (0 only for n = 0), "
                             "got %r" % (family,))
    A, mid = _fixed_core(pipeline, family, n, k, a)
    return PartitionTriple(A, mid, _staircase(pipeline, _top(A)), ())


def canonicalize_fixed(triple, pipeline: str, k: int, a: int) -> tuple:
    """Factor a fixed triple as (family, n, E): extras in D above the
    staircase and one copy of each duplicated step move to E, leaving
    the canonical template.  Raises for non-fixed triples, for OO/OE
    triples that encode no pair (a nonempty E, or a D part of the wrong
    parity: the merge leaves only odd parts single in OO, only even ones
    in OE), and for the OO a=1 sector, whose fixed configurations have
    no template index."""
    check_pipeline(pipeline, k, a)
    if _untemplated(pipeline, a):
        raise ParameterError("fixed configurations at a = 1 carry no "
                             "template index")
    t = _normalize(tuple(triple), pipeline)
    D, E = t[2:]
    if pipeline != "EE" and (E or any(v % 2 != _single_parity(pipeline)
                                      for v in D)):
        raise ParameterError("triple encodes no %s pair: %r"
                             % (pipeline, triple))
    res = _fixed_check(t, pipeline, k, a)
    if res is None:
        raise ParameterError("triple is not a fixed configuration: %r"
                             % (triple,))
    return res + (_extract_free(t, pipeline),)


def canonical_fixed_form(pipeline: str, family: int, n: int, E,
                         k: int, a: int) -> PartitionTriple:
    """Display form of a fixed configuration: for OO/OE the middle parts
    are halved and the staircase absorbed, giving multiplicity blocks
    k-a (even values) and a-2 (odd values) below 2n; EE keeps the
    template middle.  E must hold distinct free parts of the pipeline's
    factor (sign*q^e; q^m)_inf, each e mod m (EE: 2 mod 4; OO: odd; OE:
    even)."""
    check_pipeline(pipeline, k, a)
    E = tuple(sorted(E, reverse=True))
    if (len(set(E)) < len(E)
            or any(v <= 0 or not _is_free_part(v, pipeline) for v in E)):
        raise ParameterError("free parts have the wrong shape for %s: %r"
                             % (pipeline, E))
    core = pipeline_fixed_triple(pipeline, family, n, k, a)
    if pipeline == "EE":
        return PartitionTriple(core.A, core.B, (), E)
    return PartitionTriple(*un_transform(core, pipeline), (), E)


def pipeline_e_factor(pipeline: str, N: int) -> TruncatedSeries:
    """Generating function of the free parts E with their signs."""
    if N < 0:
        raise ParameterError("N must be >= 0, got %r" % (N,))
    _require_pipeline(pipeline)
    e, m, sign = _E_FACTORS[pipeline]
    return series.poch_inf(e, m, N, sign)


def pipeline_fixed_gf(pipeline: str, k: int, a: int, N: int) -> TruncatedSeries:
    """Signed generating function of all fixed configurations: the
    theta series sum_n (-1)^n q^((k+1)n^2 + (k+1-a)n), whose terms are
    the two template families (sign (-1)^n), times the free-part factor.
    The OO a=1 sector has no templates; its fixed set is whatever the
    involution leaves unpaired, and the exhaustive law check validates
    the same series against the swept fixed configurations."""
    check_pipeline(pipeline, k, a)
    return (pipeline_e_factor(pipeline, N)
            * series.theta_sum(2 * (k + 1), 2 * (k + 1 - a), N))


# ---------------------------------------------------------------- EE product

def _half_involute(pair, kk, aa):
    """The base involution at reduced parameters on a halved pair it
    trusts: the Gordon kernel, or at kk = 1 the k = 1 pairing (its B
    empty)."""
    return _involute(pair, kk, aa) if kk >= 2 else _involute_k1(pair)


def _involute_ee(pair, k, a):
    """The EE map on a ground pair it trusts, the product the module
    docstring states; a FixedPoint of the base involution is returned as
    it is, and its partner (Ah, G') joins as (O + 2 Ah, O + G' + G')."""
    A, B = pair
    C, O = _merge_pairs(B)
    odd = set(O).symmetric_difference(x for x in A if x % 2)
    if odd:
        x = max(odd)
        if x in A:
            return (_adel(A, x), _brepl(B, (), (x,)))
        return (_ains(A, x), _brepl(B, (x,), ()))
    out = _half_involute((tuple(x // 2 for x in A if x % 2 == 0),
                          tuple(c // 2 for c in C)), k // 2, a // 2)
    if isinstance(out, FixedPoint):
        return out
    Ah, G = out
    return (tuple(sorted(O + tuple(2 * x for x in Ah), reverse=True)),
            tuple(sorted(O + G + G, reverse=True)))


# -------------------------------------------------------------- scope table

def _pipeline_scope(pipeline, parity, family, involute=None):
    """A pipeline's row; its kernel is the route ladder unless given."""
    return _Scope(
        parity, family,
        lambda k, a: check_pipeline(pipeline, k, a),
        involute or (lambda pair, k, a: _involute_pipeline(pair, pipeline,
                                                           k, a)),
        lambda k, a, N: pipeline_fixed_gf(pipeline, k, a, N),
        lambda f, n, k, a: pipeline_fixed_triple(pipeline, f, n, k, a),
        lambda pair, k, a: pipeline)


# "gordon" is the Gordon map on P_{k,a}, which the law sweeps run alike
_SCOPES = {
    "gordon": _Scope(None, "B", partitions.check_params, _involute,
                     gordon_fixed_gf, gordon_fixed_point, _trace_label),
    "EE": _pipeline_scope("EE", None, "W", _involute_ee),
    "OO": _pipeline_scope("OO", "even", "W"),
    "OE": _pipeline_scope("OE", "even", "Wbar"),
}


# ------------------------------------------------------------------ routing

def _sector_image(t, pipeline, k, a):
    """Base involution at the reduced parameters on halved values; None
    when out of scope or when the reduced pair is fixed."""
    A, mid, D, E = t
    kk, aa = inner_params(pipeline, k, a)
    Ah = tuple(x // 2 for x in A)
    Bh = tuple(x // 2 for x in mid)
    # in scope when Bh is empty at kk = 1, or in B_{kk,aa} above it; the
    # kernel then trusts (Ah, Bh), Ah being halved from even distinct A
    if (Bh if kk < 2 else aa < 1 or not partitions._gordon_ok(Bh, kk, aa)):
        return None
    out = _half_involute((Ah, Bh), kk, aa)
    if isinstance(out, FixedPoint):
        return None
    return (tuple(2 * x for x in out[0]), tuple(2 * x for x in out[1]), D, E)


def _finish(t2, pipeline, k, a):
    """The pair a routed triple encodes, None when there is no image or
    it leaves the ground set.  Every move flips the parity of len(A), so
    an image is never its own state."""
    if t2 is None:
        return None
    Y = un_transform(t2, pipeline)
    return Y if _ground_valid(Y, pipeline, k, a) else None


def _route_triple(t, pipeline, k, a):
    """One rule set for every state, as gordon._blocked decides it for
    the Gordon map: the middle's top part crosses to A when it dominates,
    otherwise A's top part crosses into the middle, and when that image
    leaves the ground set A's top part is blocked and the sector map
    runs."""
    f = _fixed_check(t, pipeline, k, a)
    if f is not None:
        return FixedPoint(*f)
    A, mid, D, E = t
    a1 = A[0] if A else 0
    if mid and mid[0] > a1:
        rest = list(mid)
        rest.remove(mid[0])
        t2 = (tuple(sorted(A + (mid[0],), reverse=True)), tuple(rest), D, E)
        return _finish(t2, pipeline, k, a)
    if not A:
        return None
    t2 = (A[1:], tuple(sorted(mid + (a1,), reverse=True)), D, E)
    r = _finish(t2, pipeline, k, a)
    if r is not None:
        return r
    return _finish(_sector_image(t, pipeline, k, a), pipeline, k, a)


# ------------------------------------------------------------- carry moves

def _ains(A, x):
    if x <= 0 or x in A:
        return None
    return tuple(sorted(A + (x,), reverse=True))


def _adel(A, x):
    return tuple(v for v in A if v != x)


def _brepl(B, take, give):
    """B with the parts take, each of which it has, replaced by give."""
    out = list(B)
    for v in take:
        out.remove(v)
    out += give
    out.sort(reverse=True)
    return tuple(out)


def _carry_candidates(state):
    """Weight-preserving moves flipping len(A) by one, in clause and
    inverse-clause pairs.  An inverse clause fires exactly where its
    clause did, so the moves are symmetric: Y is a candidate of X when X
    is one of Y.  Candidates outside the ground set are the caller's to
    drop."""
    A, B = state
    cnt = Counter(B)
    vals = sorted(cnt, reverse=True)
    # a pair in B fuses to a doubled part of A, and back
    for v in vals:
        if cnt[v] >= 2:
            A2 = _ains(A, 2 * v)
            if A2:
                yield (A2, _brepl(B, (v, v), ()))
    for x in A:
        if x % 2 == 0:
            yield (_adel(A, x), _brepl(B, (), (x // 2, x // 2)))
    # a pair in B sheds 2 into A, and back
    for v in vals:
        if cnt[v] >= 2 and v >= 2:
            A2 = _ains(A, 2)
            if A2:
                yield (A2, _brepl(B, (v, v), (v - 1, v - 1)))
    if 2 in A:
        for v in vals:
            if cnt[v] >= 2:
                yield (_adel(A, 2), _brepl(B, (v, v), (v + 1, v + 1)))
    # a single part of B sheds 2 into A, and back
    for v in vals:
        if v >= 3 and (cnt[v] == 1 or cnt[v - 2] == 0):
            A2 = _ains(A, 2)
            if A2:
                yield (A2, _brepl(B, (v,), (v - 2,)))
    if 2 in A:
        for v in vals:
            if cnt[v] == 1 or cnt[v + 2] == 0:
                yield (_adel(A, 2), _brepl(B, (v,), (v + 2,)))
    # the part 2 of A melts into another part of A, and back
    if 2 in A:
        for x in A:
            if x != 2:
                A2 = _ains(_adel(_adel(A, 2), x), x + 2)
                if A2:
                    yield (A2, B)
    if 2 not in A:
        for x in A:
            if x >= 3:
                A2 = _ains(_adel(A, x), x - 2)
                if A2:
                    A2 = _ains(A2, 2)
                    if A2:
                        yield (A2, B)
    # a part x of A and x-1 of B fuse to 2x-1 in B, and back
    for x in A:
        if cnt[x - 1] >= 1:
            yield (_adel(A, x), _brepl(B, (x - 1,), (2 * x - 1,)))
    for v in vals:
        if v % 2 and v >= 3:
            A2 = _ains(A, (v + 1) // 2)
            if A2:
                yield (A2, _brepl(B, (v,), ((v - 1) // 2,)))
    # one copy of a B part crosses whole to A, and back
    for v in vals:
        A2 = _ains(A, v)
        if A2:
            yield (A2, _brepl(B, (v,), ()))
    for x in A:
        yield (_adel(A, x), _brepl(B, (), (x,)))


def _augment(adj, match, root):
    """Extend the matching by an augmenting path from the unmatched root,
    if there is one: a depth-first search that tries each state's
    neighbours in sorted order and never revisits a state.  It keeps its
    own stack, so a path of any length fits: stack[i] is a state with its
    unread neighbours, and path[i] the neighbour it is trying."""
    seen = set()
    stack, path = [(root, iter(sorted(adj[root])))], []
    while stack:
        u, todo = stack[-1]
        for v in todo:
            if v in seen:
                continue
            seen.add(v)
            if v not in match:
                # flip the path: each state takes the neighbour it tried
                for (x, _), y in zip(reversed(stack), [v] + path[::-1]):
                    match[y] = x
                    match[x] = y
                return
            path.append(v)
            stack.append((match[v], iter(sorted(adj[match[v]]))))
            break
        else:
            stack.pop()
            if path:
                path.pop()


# carry candidates a component build reads before it refuses its pair;
# components to weight 30 on the OO and OE grid read at most 7,553
_CARRY_BUDGET = 100_000


class _Flow:
    """Routing state for one weight class of one (pipeline, k, a): a
    route cache, plus a maximum matching over the carry moves for the
    residue the route ladder leaves unpaired, built one connected
    component at a time.  Routes and carry moves keep the weight, so no
    state of another weight enters it; _flow keeps the flows of the last
    _FLOWS_KEPT weights mapped, and a refused pair leaves its flow as it
    found it but for one entry in refused, which refuses it again at
    once."""

    def __init__(self, pipeline, k, a, weight):
        self.pipeline, self.k, self.a, self.weight = pipeline, k, a, weight
        self.rcache = {}
        self.match = {}     # residue state -> partner, None if unmatched
        self.refused = {}   # root of a refused build -> its message

    def route(self, state):
        hit = self.rcache.get(state)
        if hit is not None:
            return hit[0]
        t = _normalize(_encode(state, self.pipeline), self.pipeline)
        res = _route_triple(t, self.pipeline, self.k, self.a)
        self.rcache[state] = (res,)
        return res

    def safe(self, state):
        """Route outcome accepted only under mutuality: a partner must
        route straight back."""
        r = self.route(state)
        if r is None or isinstance(r, FixedPoint):
            return r
        back = self.route(r)
        return None if isinstance(back, FixedPoint) or back != state else r

    def _residue(self, state):
        """Whether state is a ground pair (every routed state is one)
        that the route ladder leaves unpaired."""
        return ((state in self.rcache
                 or _ground_valid(state, self.pipeline, self.k, self.a))
                and self.safe(state) is None)

    def _match_component(self, root):
        """Match the residue states the carry moves reach from root, by
        augmenting from its even-length states in sorted order.  The moves
        are symmetric, so no augmenting path leaves a component, and each
        state gets the partner a matching over its whole weight class
        would give it.  A component with more than _CARRY_BUDGET carry
        candidates in all raises ConsistencyError, from any root."""
        adj, todo, budget = {}, [root], _CARRY_BUDGET
        while todo:
            s = todo.pop()
            if s not in adj:
                cands = list(_carry_candidates(s))
                budget -= len(cands)
                if budget < 0:
                    raise ConsistencyError(
                        "the carry component of %r in %s (k=%d, a=%d) is "
                        "over budget" % (root, self.pipeline, self.k, self.a))
                adj[s] = {Y for Y in cands if Y in adj or self._residue(Y)}
                todo += adj[s]
        for u in sorted(s for s in adj if len(s[0]) % 2 == 0):
            if u not in self.match:
                _augment(adj, self.match, u)
        for s in adj:
            self.match.setdefault(s, None)

    def involute(self, state):
        if state in self.refused:
            raise ConsistencyError(self.refused[state])
        kept = len(self.rcache)
        r = self.safe(state)
        if r is not None:
            return r
        if state not in self.match:
            try:
                self._match_component(state)
            except ConsistencyError as err:
                # a refused build adds no match; drop the routes this
                # call added, the newest entries of the route cache
                while len(self.rcache) > kept:
                    self.rcache.popitem()
                self.refused[state] = str(err)
                raise
        r = self.match[state]
        if r is None and _untemplated(self.pipeline, self.a):
            # no templates at a = 1: what stays unpaired is fixed
            return FixedPoint(0, 0)
        return r


# a sweep maps its weights one after another, and a pair and its partner
# share a weight, so the flow of the last weight mapped serves them all:
# memory is bounded by one weight class, not by every weight swept
_FLOWS_KEPT = 1
_flow = functools.lru_cache(maxsize=_FLOWS_KEPT)(_Flow)


def involute_pipeline(pair, pipeline: str, k: int, a: int):
    """Partner of a ground pair, or FixedPoint(family, n) when the pair
    is a fixed configuration.  Partners have the same weight and
    opposite A-length parity, and the map is an involution; family 0
    marks fixed configurations outside the two template families (the
    weight-0 core, and the whole OO a=1 fixed sector).  EE maps as a
    product; an OO or OE pair left to the matching costs its residue
    component, not its weight class, and a component over the carry
    budget, or one leaving the pair unmatched, raises ConsistencyError."""
    check_pipeline(pipeline, k, a)
    scope = _SCOPES[pipeline]
    return scope.involute(scope.ground(pair, k, a), k, a)


def _involute_pipeline(pair, pipeline, k, a):
    """The OO and OE kernel: the route ladder, then the matching, on a
    ground pair it trusts, given as tuples."""
    r = _flow(pipeline, k, a, sum(pair[0]) + sum(pair[1])).involute(pair)
    if r is None:
        raise ConsistencyError("no partner and no template match for %r "
                               "in %s (k=%d, a=%d)" % (pair, pipeline, k, a))
    return r
