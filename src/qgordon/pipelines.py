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
The difference is found first, by one toggle over the odd parts of A
and B, and B is split only when it is empty.

OO and OE encode a pair as a triple: equal parts of B merge in pairs
into doubled parts (the middle), unpaired parts remain single (D).  On
triples, a ladder of moves applies: the largest middle part crosses to
A when it dominates, otherwise A's largest part crosses into the
middle, and when that image leaves the ground set the sector takes
over: the base involution at (k/2, a/2) on A and the middle halved,
the reduced step EE's half branch takes too.  The crossings' images
are tested locally, and the sector's needs no test, as the ground
set's arithmetic keeps it inside.  A move is kept only when the routed
image routes straight back.  The rest, the residue, is paired off by a
deterministic maximum matching over a small library of symmetric
weight-preserving carry moves, each flipping the A-length parity; a
move whose image the ground set's parities always refuse is never
built.  The matching is built one connected component of the residue
at a time, reached from the pair by its carry moves, so mapping a pair
enumerates no weight class; a component with more carry candidates
than a fixed budget is refused.  Every move keeps the weight, so the
routes and matchings are kept per weight class, for the last weight
mapped only; a refused pair leaves none of its routes behind.

What survives is (apart from the OO a = 1 sector, where the templates
degenerate) a two-family sequence of template triples indexed by n, of
weights (k+1)n^2 +- (k+1-a)n, each carrying a free partition E, so the
signed generating function of the fixed configurations is a theta
series times a fixed product factor.  Every pipeline reads its fixed
points off the reduced step: a pair is fixed when the base involution
at (k/2, a/2) fixes its halved core, (A, middle), a template, and, for
OO/OE, its D is the staircase under that template plus free parts.  No
fixed triple takes a crossing, so the sector is where OO/OE find them.

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
from itertools import chain, product
from typing import Callable, NamedTuple

from . import partitions, series
from .gordon import (FixedPoint, _check_pair, _fixed_gf, _fixed_pair,
                     _involute, _pair_fault, _template_index,
                     _trace_label, gordon_fixed_point)
from .partitions import ParameterError, _as_parts, _as_sides, _as_weight
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
    kernels (involute, fixed_gf) trust their input.  The table, _SCOPES,
    stands after the kernels it names."""
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
    """Parity of the parts the merge leaves single: the opposite of the
    sizes B's family pairs up (partitions._PAIRED)."""
    return 1 - partitions._PAIRED[_SCOPES[pipeline].family]


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


def inner_params(k: int, a: int) -> tuple:
    """(k, a) for the reduced involution on halved middle parts; every
    pipeline halves both, rounding down."""
    return k // 2, a // 2


class PartitionTriple(NamedTuple):
    """Triple encoding of a pair, one rule for every pipeline.

    E holds the odd parts A shares with B, doubled, so 2 mod 4; A keeps
    the rest.  B is the middle: the rest of the pair's B, its equal
    parts merged pairwise into doubled parts.  D holds the parts left
    single, except in EE, which keeps them in the middle.  OO/OE's A
    has only even parts, so it shares none, and E stays empty until a
    fixed configuration is canonicalized."""
    A: tuple
    B: tuple
    D: tuple
    E: tuple


def triple_weight(triple) -> int:
    return sum(map(sum, _as_sides(triple, 4)))


def triple_sign(triple, pipeline: str) -> int:
    """E parts count in the sign when their factor (q^e; q^m)_inf has
    sign +1 (EE), not when it is (-q^e; q^m)_inf (OO/OE)."""
    _require_pipeline(pipeline)
    A, B, D, E = _as_sides(triple, 4)
    n = len(A) + (len(E) if _E_FACTORS[pipeline][2] == 1 else 0)
    return -1 if n % 2 else 1


# --------------------------------------------------------------- ground set

def in_ground(pair, pipeline: str, k: int, a: int) -> bool:
    """Membership test for the pipeline's ground set; ParameterError for
    a pair that is not two sides of integer parts."""
    check_pipeline(pipeline, k, a)
    return _SCOPES[pipeline].fault(_as_sides(pair, 2), k, a) is None


def _by_weight(walk, top):
    """The partitions of a walk to weight top, one tuple per weight."""
    buckets = [[] for _ in range(top + 1)]
    for p in walk:
        buckets[sum(p)].append(p)
    return tuple(map(tuple, buckets))


class _Ground:
    """Weight classes up to top of one ground set, joined by product from
    two trusting walks to top, A's and B's, each bucketed by weight: a
    bucket keeps its public enumerator's order.  product takes the tuple
    buckets without a copy."""

    def __init__(self, scope, k, a, top):
        ground = _SCOPES[scope]
        self.As = _by_weight(
            partitions._walk_distinct(ground.parity, 0, top), top)
        self.Bs = _by_weight(
            partitions._walk_family(ground.family, k, a, 0, top), top)

    def pairs(self, w):
        """The pairs of weight w, at most top, A-weight descending."""
        return chain.from_iterable(product(self.As[wa], self.Bs[w - wa])
                                   for wa in range(w, -1, -1))


def enumerate_ground(pipeline: str, k: int, a: int, n: int):
    """All ground-set pairs of weight exactly n, A-weight descending."""
    check_pipeline(pipeline, k, a)
    n = _as_weight(n)
    return list(_Ground(pipeline, k, a, n).pairs(n))


# ------------------------------------------------------------ triple coding

def _merge_pairs(parts):
    """Pair equal parts of a weakly decreasing sequence once: (doubled
    parts, unpaired leftovers), both descending, in one pass.  Equal
    parts are adjacent, so a part pairs with the last leftover when it
    equals it."""
    merged, left = [], []
    for v in parts:
        if left and left[-1] == v:
            left.pop()
            merged.append(2 * v)
        else:
            left.append(v)
    return tuple(merged), tuple(left)


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


def to_triple(pair, pipeline: str, k: int, a: int) -> PartitionTriple:
    """Encode a ground pair by PartitionTriple's rule."""
    check_pipeline(pipeline, k, a)
    return _encode(_SCOPES[pipeline].ground(pair, k, a), pipeline)


def _encode(pair, pipeline):
    """to_triple on a ground pair it trusts; B minus the shared parts
    keeps B's descending order, as Counter keeps insertion order."""
    A, B = pair
    shared = [x for x in A if x % 2 and x in B]
    mid, D = _merge_pairs((Counter(B) - Counter(shared)).elements())
    if pipeline == "EE":
        mid, D = tuple(sorted(mid + D, reverse=True)), ()
    return PartitionTriple(tuple(x for x in A if x not in shared), mid, D,
                           tuple(2 * x for x in shared))


def _decode(triple):
    """The pair a triple of tuples names: B is D, each E part halved and
    each middle part, split into halves when even; A gains each E part
    halved."""
    A, mid, D, E = triple
    halves = [e // 2 for e in E]
    B = list(D) + halves
    for v in mid:
        B.extend((v // 2, v // 2) if v % 2 == 0 else (v,))
    return (tuple(sorted((*A, *halves), reverse=True)),
            tuple(sorted(B, reverse=True)))


def _settled(triple, pipeline):
    """A triple as _read_triple compares it: OO/OE's (middle, D)
    redistributed, A as it stands, a strictly decreasing side of the
    pair, and the other sides as multisets, so a partial redistribution
    and any order of D or E settle as the merge-level triple does."""
    A, mid, D, E = triple
    if pipeline != "EE":
        mid, D = _rho(mid, D, pipeline)
    return A, sorted(mid), sorted(D), sorted(E)


def _read_triple(triple, pipeline):
    """The triple as four tuples and the ground pair it encodes, or
    ParameterError naming it: the one rule for what a triple encodes.
    Its decoding must be a ground pair at a (k, a) of the pipeline's
    parities above B's length, where no window or ones cap binds, and
    encoding that pair must give the triple back, both settled."""
    t = _as_sides(triple, 4)
    pair = _decode(t)
    k, a = (2 * len(pair[1]) + 2 + p for p in _PARITY_RULES[pipeline][0])
    if (_SCOPES[pipeline].fault(pair, k, a) is None
            and _settled(_encode(pair, pipeline), pipeline)
            == _settled(t, pipeline)):
        return t, pair
    raise ParameterError("triple encodes no %s pair: %r" % (pipeline, triple))


def un_transform(triple, pipeline: str) -> tuple:
    """Invert the triple encoding, merge-level or redistributed, in part
    or in full; ParameterError for a triple that encodes no pair."""
    _require_pipeline(pipeline)
    return _read_triple(triple, pipeline)[1]


def redistribute(triple, pipeline: str) -> PartitionTriple:
    """Split middle parts whose halves are absent from D (one per value,
    which already reaches the stable form), halves joining D.  Only the
    OO/OE pipelines have this step."""
    if pipeline == "EE":
        raise ParameterError("the EE pipeline has no redistribution step")
    _require_pipeline(pipeline)
    A, mid, D, E = _read_triple(triple, pipeline)[0]
    return PartitionTriple(A, *_rho(mid, D, pipeline), E)


# ------------------------------------------------------- fixed configurations

def _staircase(pipeline, top):
    """Canonical D of a fixed triple whose base template tops out at
    top: the single-parity sizes up to top (EE triples carry no D)."""
    if pipeline == "EE":
        return ()
    p = _single_parity(pipeline)
    return tuple(v for v in range(top, 0, -1) if v % 2 == p)


def _free_parts(D, pipeline, top):
    """The free parts of an OO/OE fixed triple's D, descending: D minus
    the staircase up to top, as multisets, or None unless that leaves
    each part at most once.  D holds only single-parity parts, so each
    part up to top is a step."""
    free = Counter(D)
    free.subtract(_staircase(pipeline, top))
    if any(m not in (0, 1) for m in free.values()):
        return None
    return tuple(sorted((v for v, m in free.items() if m), reverse=True))


def pipeline_fixed_triple(pipeline: str, family: int, n: int,
                          k: int, a: int) -> PartitionTriple:
    """Canonical fixed template triple with empty E: the doubled base
    template as (A, middle) plus the canonical staircase in D.  Weight
    is (k+1)n^2 + (k+1-a)n for family 1 and (k+1)n^2 - (k+1-a)n for
    family 2; n = 0 gives the common empty core (family 0, 1 or 2)."""
    check_pipeline(pipeline, k, a)
    if _untemplated(pipeline, a):
        raise ParameterError("no fixed templates at a = 1")
    Ah, Bh = _fixed_pair(*_template_index(family, n), *inner_params(k, a))
    return PartitionTriple(tuple(2 * x for x in Ah),
                           tuple(2 * x for x in Bh),
                           _staircase(pipeline, Ah[0] if Ah else 0), ())


def canonicalize_fixed(triple, pipeline: str, k: int, a: int) -> tuple:
    """Factor a fixed triple as (family, n, E): extras in D above the
    staircase and one copy of each duplicated step move to E, leaving
    the canonical template.  The triple is fixed when its pair is a
    ground pair at (k, a) that the pipeline's own rule fixes, EE's
    product or the OO/OE route, never the matching, so the order of its
    sides is free as the codec's is.  Raises for triples that encode no
    pair, for non-fixed triples and for the OO a=1 sector, whose fixed
    configurations have no template index."""
    check_pipeline(pipeline, k, a)
    if _untemplated(pipeline, a):
        raise ParameterError("fixed configurations at a = 1 carry no "
                             "template index")
    pair = _read_triple(triple, pipeline)[1]
    fixed = (None if _SCOPES[pipeline].fault(pair, k, a)
             else _involute_ee(pair, k, a) if pipeline == "EE"
             else _route_triple(pair, pipeline, k, a))
    if not isinstance(fixed, FixedPoint):
        raise ParameterError("triple is not a fixed configuration: %r"
                             % (triple,))
    A, mid, D, E = _encode(pair, pipeline)
    if pipeline != "EE":  # E is empty, and D holds the free parts
        E = _free_parts(_rho(mid, D, pipeline)[1], pipeline,
                        A[0] // 2 if A else 0)
    return (*fixed, E)


def canonical_fixed_form(pipeline: str, family: int, n: int, E,
                         k: int, a: int) -> PartitionTriple:
    """Display form of a fixed configuration: for OO/OE the middle parts
    are halved and the staircase absorbed, giving multiplicity blocks
    k-a (even values) and a-2 (odd values) below 2n; EE keeps the
    template middle.  E must hold distinct free parts of the pipeline's
    factor (sign*q^e; q^m)_inf, each e mod m (EE: 2 mod 4; OO: odd; OE:
    even)."""
    core = pipeline_fixed_triple(pipeline, family, n, k, a)
    E = tuple(sorted(_as_parts(E), reverse=True))
    if (len(set(E)) < len(E)
            or any(v <= 0 or not _is_free_part(v, pipeline) for v in E)):
        raise ParameterError("free parts have the wrong shape for %s: %r"
                             % (pipeline, E))
    if pipeline == "EE":
        return PartitionTriple(core.A, core.B, (), E)
    return PartitionTriple(*_decode(core), (), E)


def pipeline_e_factor(pipeline: str, N: int) -> TruncatedSeries:
    """Generating function of the free parts E with their signs."""
    _require_pipeline(pipeline)
    return _e_factor(pipeline, _as_weight(N, "N"))


def _e_factor(pipeline, N):
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
    return _SCOPES[pipeline].fixed_gf(k, a, _as_weight(N, "N"))


# ---------------------------------------------------------- the reduced step

def _reduced_image(A, mid, rest, D, k, a):
    """The base involution at (k//2, a//2) on A and the doubled middle
    parts mid, both halved, which it trusts: the Gordon kernel, at k//2 =
    1 Franklin's pentagonal pairing (mid empty).  A FixedPoint is returned
    as it is, and a partner (Ah, G) joins as (rest + 2 Ah, D + G + G).
    EE's half branch passes O as rest and D, the OO/OE sector () and D."""
    kk, aa = inner_params(k, a)
    half = (tuple(x // 2 for x in A), tuple(c // 2 for c in mid))
    # kk = 1: a only sizes templates' B, empty at a = 1 (OO (3, 1) has aa 0)
    out = _involute(half, kk, aa or 1)
    if isinstance(out, FixedPoint):
        return out
    Ah, G = out
    return (tuple(sorted(rest + tuple(2 * x for x in Ah), reverse=True)),
            tuple(sorted(D + G + G, reverse=True)))


# ---------------------------------------------------------------- EE product

def _involute_ee(pair, k, a):
    """The EE map on a ground pair it trusts, the product the module
    docstring states; the half branch is _reduced_image on A's even
    parts and B's pairs, joining back O, A's odd parts and B's single
    ones.  The odd parts where A and O differ are those with an odd
    count in A and B together, found by one toggle, so B is merged only
    on the half branch."""
    A, B = pair
    odd = set()
    for v in A + B:
        if v % 2:
            if v in odd:
                odd.remove(v)
            else:
                odd.add(v)
    if odd:
        x = max(odd)
        return _flip(A, B, x, (), (x,))
    C, O = _merge_pairs(B)
    return _reduced_image(tuple(x for x in A if x % 2 == 0), C, O, O, k, a)


# -------------------------------------------------------------- scope table

def _pipeline_scope(pipeline, parity, family, involute=None):
    """A pipeline's row; its kernel is the route ladder unless given."""
    return _Scope(
        parity, family,
        lambda k, a: check_pipeline(pipeline, k, a),
        involute or (lambda pair, k, a: _involute_pipeline(pair, pipeline,
                                                           k, a)),
        lambda k, a, N: (_e_factor(pipeline, N) * series.theta_sum(
            2 * (k + 1), 2 * (k + 1 - a), N)),
        lambda f, n, k, a: pipeline_fixed_triple(pipeline, f, n, k, a),
        lambda pair, k, a: pipeline)


# "gordon" is the Gordon map on P_{k,a}, which the law sweeps run alike
_SCOPES = {
    "gordon": _Scope(None, "B", partitions.check_params, _involute,
                     _fixed_gf, gordon_fixed_point, _trace_label),
    "EE": _pipeline_scope("EE", None, "W", _involute_ee),
    "OO": _pipeline_scope("OO", "even", "W"),
    "OE": _pipeline_scope("OE", "even", "Wbar"),
}


# ------------------------------------------------------------------ routing

def _route_triple(state, pipeline, k, a):
    """One rule set for every state, as gordon._blocked decides it for
    the Gordon map, read on the redistributed triple of the ground pair
    state: the middle's top part crosses to A when it dominates,
    otherwise A's top part crosses into the middle, and when that image
    leaves the ground set A's top part is blocked and the sector map
    runs.  The two crossings change B by two equal parts, so their images
    are tested locally.  The sector image (_reduced_image) is a ground
    pair by arithmetic, so it is not tested: D is part of B, of the
    single parity, each size at most twice, so D + G + G keeps the
    windows within 2 + 2(kk - 1) = k - 1 and the ones within a - 1 (OE's
    D has none), the paired parity occurs only in G + G, and A's image
    is doubled from distinct parts.  Every move flips the parity of
    len(A), so an image is never its own state.

    The sector also names the fixed points, as EE's half branch does:
    the reduced map's FixedPoint, when the pipeline has templates and D
    is the staircase under A's top halved plus free parts.  A fixed
    triple never takes a crossing: a template's middle never tops its A,
    and with t = A[0]/2, sizes t and t - 1 hold 2(kk - 1) parts of G + G
    and one staircase part, k - 2 in all, so B gaining (t, t) breaks
    their window, and at t = 1 the cap on ones."""
    A, B = state
    mid, D = _rho(*_merge_pairs(B), pipeline)
    a1 = A[0] if A else 0
    if mid and mid[0] > a1:
        # B loses two parts v, so no multiplicity grows, and A gains an
        # even part above its top: the image is a ground pair
        i = B.index(mid[0] // 2)
        return ((mid[0],) + A, B[:i] + B[i + 2:])
    # B gains two parts v, read at that one size, not by _member: the
    # windows (v-1, v) and (v, v+1), which hold the cap k-1, and the cap
    # a-1 on ones are all that can break; f_v keeps its parity
    v, c = a1 // 2, B.count
    if A and (c(v) + 2 + max(c(v - 1), c(v + 1)) < k
              and (v > 1 or c(1) + 2 < a)):
        return (A[1:], tuple(sorted(B + (v, v), reverse=True)))
    # the sector, in scope when the middle halves into B_{kk,aa}: only
    # the empty middle at kk = 1 (aa = 0 too), and aa >= 1 at kk > 1
    kk, aa = inner_params(k, a)
    if aa < 1 < kk or not partitions._member(
            tuple(x // 2 for x in mid), "B", kk, aa):
        return None
    out = _reduced_image(A, mid, (), D, k, a)
    if isinstance(out, FixedPoint) and (
            _untemplated(pipeline, a) or _free_parts(D, pipeline, v) is None):
        return None
    return out


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


def _flip(A, B, c, take, give):
    """c leaves A as B's parts take turn into give, or, when A lacks c,
    joins it as give turn back into take."""
    if c in A:
        return (_adel(A, c), _brepl(B, take, give))
    return (_ains(A, c), _brepl(B, give, take))


def _carry_candidates(state, single):
    """Weight-preserving moves flipping len(A) by one, on a state of the
    ground set whose A has even parts and whose B may hold parts of
    parity single unpaired.  Each move is stated once, keyed by a value
    whose membership in A picks its direction; its image flips that
    membership and keeps the move's condition, so the same move maps the
    image back.  The moves are symmetric by construction: Y is a
    candidate of X when X is one of Y.  A move whose image always leaves
    the ground set is not built; other candidates outside it are the
    caller's to drop."""
    A, B = state
    cnt = Counter(B)
    # a part c of A splits into a pair (c/2, c/2) of B, or the pair fuses
    for c in set(A) | {2 * v for v in cnt if cnt[v] >= 2}:
        yield _flip(A, B, c, (), (c // 2, c // 2))
    # the part 2 leaves A (d = 1) or joins it (d = -1), and its weight
    # moves a pair of B by d, a part of B by 2d or a part of A by 2d; in
    # OO a B part 1 or 3 always moves, as the x / 2x-1 fusion at x = 2
    d = 1 if 2 in A else -1
    A1 = _adel(A, 2) if d == 1 else _ains(A, 2)
    for v in cnt:
        if cnt[v] >= 2 and v + d >= 1:
            yield (A1, _brepl(B, (v, v), (v + d, v + d)))
        if v + 2 * d >= 1 and (cnt[v] == 1 or cnt[v + 2 * d] == 0
                               or single and v + d == 2):
            yield (A1, _brepl(B, (v,), (v + 2 * d,)))
    for x in set(A1) - {2}:
        A2 = _ains(_adel(A1, x), x + 2 * d)
        if A2:
            yield (A2, B)
    if single:
        # a part x >= 4 of A and x-1 of B fuse to 2x-1 in B, or it
        # splits: x is even, so 2x-1 is 3 mod 4.  Where odd parts must
        # pair up (Wbar) each would leave one unpaired
        for x in set(A) | {(v + 1) // 2 for v in cnt if v % 4 == 3}:
            if x >= 4 and (x not in A or cnt[x - 1]):
                yield _flip(A, B, x, (x - 1,), (2 * x - 1,))
    else:
        # an even part c crosses whole between A and B (an odd one would
        # be odd in A).  Where even parts must pair up (W) each would
        # leave one unpaired
        for c in set(A) | {v for v in cnt if v % 2 == 0}:
            yield _flip(A, B, c, (), (c,))


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
# components to weight 30 on the OO and OE points with k = 3, 5, 7 read
# at most 9,027 (OE (7, 6)), and at most 4,939 on OO (OO (7, 7))
_CARRY_BUDGET = 100_000


class _Flow:
    """Routing state for one weight class of one (pipeline, k, a): a
    route cache, plus a maximum matching over the carry moves for the
    residue the route ladder leaves unpaired, built one connected
    component at a time.  Routes and carry moves keep the weight, so no
    state of another weight enters it; _flow keeps the flows of the last
    _FLOWS_KEPT weights mapped, and a refused pair leaves its flow as it
    found it."""

    def __init__(self, pipeline, k, a, weight):
        self.pipeline, self.k, self.a, self.weight = pipeline, k, a, weight
        self.scope = _SCOPES[pipeline]
        self.rcache = {}
        self.match = {}     # residue state -> partner, None if unmatched

    def route(self, state):
        hit = self.rcache.get(state)
        if hit is not None:
            return hit[0]
        res = _route_triple(state, self.pipeline, self.k, self.a)
        self.rcache[state] = (res,)
        return res

    def safe(self, state):
        """Route outcome accepted only under mutuality: a partner must
        route straight back."""
        r = self.route(state)
        if r is None or isinstance(r, FixedPoint):
            return r
        back = self.route(r)
        return None if back != state else r

    def _residue(self, state):
        """Whether state is a ground pair (every routed state is one)
        that the route ladder leaves unpaired."""
        return ((state in self.rcache
                 or self.scope.fault(state, self.k, self.a) is None)
                and self.safe(state) is None)

    def _match_component(self, root):
        """Match the residue states the carry moves reach from root, by
        augmenting from its even-length states in sorted order.  The moves
        are symmetric, so no augmenting path leaves a component, and each
        state gets the partner a matching over its whole weight class
        would give it.  A component with more than _CARRY_BUDGET carry
        candidates in all raises ConsistencyError, from any root."""
        adj, todo, budget = {}, [root], _CARRY_BUDGET
        single = _single_parity(self.pipeline)
        while todo:
            s = todo.pop()
            if s not in adj:
                cands = list(_carry_candidates(s, single))
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
        kept = len(self.rcache)
        r = self.safe(state)
        if r is not None:
            return r
        if state not in self.match:
            try:
                self._match_component(state)
            except ConsistencyError:
                # a refused build adds no match; drop the routes this
                # call added, the newest entries of the route cache
                while len(self.rcache) > kept:
                    self.rcache.popitem()
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
