"""Sign-reversing involution on pairs (A|B) of a signed distinct-part
partition A and a window-conditioned partition B.

The state space P_{k,a} consists of pairs (A|B) where A is strictly
decreasing (carrying sign (-1)^len(A)) and B lies in family B_{k,a}.
The involution pairs off almost all of P_{k,a} in a weight-preserving,
sign-reversing fashion; what survives is one configuration per term of
the theta series with alpha = 2k+1, beta = 2(k-a)+1.

The classification below works with four parameters measured on a pair:

* p: smallest part of A,
* q: length of the maximal unit-staircase prefix of A,
* r: length of the maximal difference-two chain along B at positions
  k-1, 2(k-1), 3(k-1), ...,
* s: the same kind of chain anchored at position i-1 (only defined for
  witness 2 <= i <= k-1),

with n the minimum of those defined.  A chain link only counts when both
anchor positions exist; a missing part ends the chain, and a missing
largest part compares as 0.  The "move a_1 into B would leave the
family" test is decided locally: B is already in the family and a_1 is
at least its largest part, so only the new top window and the count of
ones can break, and both are read off in O(1).

The fixed points of the involution are exactly the template pairs, so a
blocked pair is matched against the templates before any map runs, and
every other blocked pair has a partner in P_{k,a}: the maps build it
without checking it, and the law sweeps and orbit traces check it.
The six maps (alpha, beta, gamma and their inverses) are each one or
two column shifts, _shifted: n units move between one part and a
column of n parts, A's top n or B's parts k-1 apart.

Public functions validate their input (parameters and pair) once.  The
``_``-prefixed kernels trust it: their pair is a member of P_{k,a} with
k >= 2 and 1 <= a <= k, and they never re-validate.  Each public entry
point is a thin wrapper that validates and calls a kernel, so callers
that generate valid pairs themselves (the parity pipelines and the law
sweeps) call the kernels directly.
"""

from __future__ import annotations

from typing import NamedTuple

from . import series
from .partitions import (ParameterError, _as_sides, _as_weight, _member,
                         check_params)


class Move(NamedTuple):
    """Step-1 outcome: the top part crosses between A and B."""
    direction: str  # "b_to_a" or "a_to_b"


class ClassParams(NamedTuple):
    p: int
    q: int
    r: int
    s: int | None
    n: int


class UClass(NamedTuple):
    """Blocked pair: witness position i (1..k) and class 1..4."""
    i: int
    cls: int
    params: ClassParams


class FixedPoint(NamedTuple):
    """Fixed configuration: template family 1 or 2 with index n >= 1,
    or the empty pair (family 0, n = 0).  It is a 2-tuple, the shape of
    a pair, so a map's result is tested with isinstance(out, FixedPoint)
    before it is read as a pair."""
    family: int
    n: int


def _pair_fault(A, B, k, a, parity=None, family="B"):
    """Why (A|B) is not a ground pair, or None when it is: A strictly
    decreasing with positive parts, all even when parity is "even", and
    B in the family (B_{k,a} by default, which makes the ground set
    P_{k,a}).  One pass over A, then the family test on B."""
    even = parity == "even"
    prev = None
    for x in A:
        if prev is not None and x >= prev:
            return "A must be strictly decreasing: %r" % (A,)
        if even and x % 2:
            return "A must have even parts: %r" % (A,)
        prev = x
    if prev is not None and prev < 1:
        return "A must have positive parts: %r" % (A,)
    if not _member(B, family, k, a):
        return "B fails the family conditions: %r" % (B,)
    return None


def _check_pair(pair, k, a, parity=None, family="B"):
    """The pair as a pair of tuples, once _pair_fault finds no fault in
    it; ParameterError with the fault otherwise."""
    A, B = pair = _as_sides(pair, 2)
    fault = _pair_fault(A, B, k, a, parity, family)
    if fault is not None:
        raise ParameterError(fault)
    return pair


def _blocked(a1, B, k, a):
    # moving a1 >= B[0] on top of B in B_{k,a} would leave it, read at
    # that one point, not by _member: the window a1, B[0..k-2] spans less
    # than 2 (the window or the cap k-1), or a1 is the a-th 1 (cap a-1)
    return ((len(B) >= k - 1 and a1 - B[k - 2] < 2)
            or (a1 == 1 and len(B) >= a - 1))


def _witness(a1, B, k):
    count = 0
    for j in range(min(len(B), k - 1)):
        if B[j] == a1:
            count += 1
        else:
            break
    return count + 1


def _staircase_prefix(A):
    q = 1
    while q < len(A) and A[q - 1] - A[q] == 1:
        q += 1
    return q


def _chain(B, start, step):
    """Maximal t >= 1 such that parts at 1-based positions
    start, start+step, ..., start+(t-1)*step exist pairwise-consecutively
    and each link drops by exactly 2.  A link needs both ends present."""
    m = len(B)
    t = 1
    pos = start
    while pos + step <= m and pos <= m and B[pos - 1] - B[pos + step - 1] == 2:
        t += 1
        pos += step
    return t


def _params(A, B, k, i):
    """Class parameters of a blocked pair with witness i."""
    p = A[-1]
    q = _staircase_prefix(A)
    r = _chain(B, k - 1, k - 1)
    s = _chain(B, i - 1, k - 1) if 2 <= i <= k - 1 else None
    n = min(p, q, r) if s is None else min(p, q, r, s)
    return ClassParams(p, q, r, s, n)


def compute_params(pair, k, a):
    """Class parameters (p, q, r, s, n) of a blocked pair."""
    check_params(k, a)
    A, B = _check_pair(pair, k, a)
    if not A or (B and B[0] > A[0]) or not _blocked(A[0], B, k, a):
        raise ParameterError("pair is not blocked; parameters undefined")
    return _params(A, B, k, _witness(A[0], B, k))


_B_TO_A = Move("b_to_a")
_A_TO_B = Move("a_to_b")
_EMPTY = FixedPoint(0, 0)


def _classify(A, B, k, a):
    if not A and not B:
        return _EMPTY
    a1 = A[0] if A else 0
    if B and B[0] > a1:
        return _B_TO_A
    if not _blocked(a1, B, k, a):
        return _A_TO_B
    return _uclass(A, B, k)


def _uclass(A, B, k):
    """The class of a blocked pair, which it trusts to be one."""
    i = _witness(A[0], B, k)
    params = _params(A, B, k, i)
    n = params.n
    if params.p == n:
        cls = 1
    elif i == 1:
        cls = 2 if params.q == n else 3
    elif i == k:
        cls = 2 if params.r == n else 4
    elif params.s == n:
        cls = 2
    else:
        cls = 4 if params.q == n else 3
    return UClass(i, cls, params)


def classify(pair, k, a):
    """Route a pair: Move for the step-1 cases, UClass when the top
    parts tie up in a blocked configuration, FixedPoint for the empty
    pair."""
    check_params(k, a)
    A, B = _check_pair(pair, k, a)
    return _classify(A, B, k, a)


def step1_move(pair, k, a):
    """Carry out the step-1 exchange of the top part."""
    check_params(k, a)
    A, B = _check_pair(pair, k, a)
    if not isinstance(_classify(A, B, k, a), Move):
        raise ParameterError("pair is not in a move state")
    return _involute((A, B), k, a)


def _shifted(parts, start, n, step, d):
    """parts with d added at the n 1-based positions start, start+step,
    ..., a column of A (step 1) or of B (step k-1), which parts holds.
    A drop (d = -1) meets parts of at least 2 on a pair that is no
    template.  A column of A stays in A: n <= q <= len(A) in alpha and
    gamma, and q > n in gamma^-1 (class 3 needs q != n).  alpha^-1 never
    meets n = len(A): p = q = n = len(A) makes A = (2n-1, ..., n), and
    i = k with r >= n forces, window by window, a = k and B =
    ((2n-1)^(k-1), ..., 3^(k-1), 1^(k-1)), the family-2 template (at
    k = 1, A alone is it).  A bump never runs past the end of B:
    - beta with n >= 2: r >= n puts position n(k-1) >= i+(n-1)(k-1) in B;
    - beta with n = 1: a window-blocked B has at least k-1 >= i parts,
      or the pair is the template ((1,), (1,)^(a-1));
    - gamma: r > n or s > n leaves at least n(k-1)+1 parts in B."""
    out = list(parts)
    for pos in range(start - 1, start - 1 + n * step, step):
        out[pos] += d
    return tuple(out)


def _template_index(family, n):
    """(family, n) of a template in every scope: family 1 or 2 with
    n >= 0, or family 0 at n = 0, the empty pair; else ParameterError."""
    n = _as_weight(n)
    if family not in (0, 1, 2) or (family == 0 and n != 0):
        raise ParameterError("family must be 1 or 2 (0 only for n = 0), "
                             "got %r" % (family,))
    return family, n


def _fixed_pair(family, n, k, a):
    """gordon_fixed_point on input it trusts; at k = 1 (where a = 1) B
    is empty."""
    if n == 0:
        return ((), ())
    top = 2 * n if family == 1 else 2 * n - 1
    B = []
    for v in range(top, 0, -1):
        B.extend([v] * ((k - a) if v % 2 == 0 else (a - 1)))
    return (tuple(range(top, top - n, -1)), tuple(B))


def gordon_fixed_point(family, n, k, a):
    """The weight-((k+1/2)n^2 +- (k-a+1/2)n) template pair.

    Family 1: A = (2n, ..., n+1) with B running down from part 2n in
    alternating multiplicity blocks k-a (even parts) and a-1 (odd
    parts); family 2: A = (2n-1, ..., n) with B from 2n-1 in blocks a-1
    (odd) and k-a (even).  n = 0 gives the empty pair (family 0, 1, 2)."""
    check_params(k, a)
    return _fixed_pair(*_template_index(family, n), k, a)


def _match_template(pair, k, a):
    """FixedPoint when the pair, whose A is not empty, equals a template,
    None otherwise: the one of index n has n parts in A, and the top part
    of its A is 2n in family 1 and 2n - 1 in family 2."""
    n = len(pair[0])
    family = 2 * n + 1 - pair[0][0]
    if family in (1, 2) and _fixed_pair(family, n, k, a) == pair:
        return FixedPoint(family, n)
    return None


def _apply(A, B, k, i, cls, n):
    """The partner of a blocked pair that is no template, by its witness
    i, class cls and index n: its class's map, which lands in P_{k,a}."""
    if cls == 1:  # A's last part n leaves A
        return ((_shifted(A[:-1], 1, n, 1, 1), B) if i == k  # alpha^-1
                else (A[:-1], _shifted(B, i, n, k - 1, 1)))  # beta
    if cls == 2:  # a last part n joins A
        return ((_shifted(A, 1, n, 1, -1) + (n,), B) if i == 1  # alpha
                else (A + (n,), _shifted(B, i - 1, n, k - 1, -1)))  # beta^-1
    if cls == 3:  # gamma^-1: a_1 tops B, B's column feeds A's next n
        return (_shifted(A[1:], 1, n, 1, 1),
                (A[0],) + _shifted(B, k - 1, n, k - 1, -1))
    return ((B[0],) + _shifted(A, 1, n, 1, -1),  # gamma: b_1 tops A,
            _shifted(B[1:], k - 1, n, k - 1, 1))  # A's top n feed B's column


def apply_map(pair, k, a):
    """Act on a blocked pair: FixedPoint when it is a template, which is
    decided before any map runs, and its partner otherwise."""
    check_params(k, a)
    A, B = _check_pair(pair, k, a)
    if not isinstance(_classify(A, B, k, a), UClass):
        raise ParameterError("apply_map needs a blocked pair")
    return _involute((A, B), k, a)


def _involute(pair, k, a):
    """involute_gordon on a pair of tuples it trusts: the step-1 moves
    are decided inline, as _classify decides them; a blocked pair is
    matched against the templates, and classed and mapped if it is none
    of them."""
    A, B = pair
    if not A:
        return ((B[0],), B[1:]) if B else _EMPTY
    a1 = A[0]
    if B and B[0] > a1:
        return ((B[0],) + A, B[1:])
    if not _blocked(a1, B, k, a):
        return (A[1:], (a1,) + B)
    fixed = _match_template(pair, k, a)
    if fixed:
        return fixed
    i, cls, params = _uclass(A, B, k)
    return _apply(A, B, k, i, cls, params.n)


def involute_gordon(pair, k, a):
    """Total involution on P_{k,a}: partner pair, or FixedPoint."""
    check_params(k, a)
    return _involute(_check_pair(pair, k, a), k, a)


def _trace_label(pair, k, a):
    """An orbit trace's name for the step the map takes on a pair of a
    partner orbit, which it trusts: move(direction) or U(witness,class)."""
    lab = _classify(pair[0], pair[1], k, a)
    if isinstance(lab, Move):
        return "move(%s)" % lab.direction
    return "U(%d,%d)" % (lab.i, lab.cls)


def gordon_fixed_gf(k, a, N):
    """Signed generating function of the fixed configurations: the
    empty pair plus both template families, sign (-1)^len(A), which are
    the terms of the theta series with alpha = 2k+1, beta = 2(k-a)+1."""
    check_params(k, a)
    return _fixed_gf(k, a, _as_weight(N, "N"))


def _fixed_gf(k, a, N):
    """gordon_fixed_gf on input it trusts."""
    return series.theta_sum(2 * k + 1, 2 * (k - a) + 1, N)


# --- degenerate single-column case (k = 1), used by the parity
# --- pipelines after their halving step; B must be empty there

def _involute_k1(pair):
    """Involution on pairs (A | ()) it trusts, A a tuple of distinct
    parts: the classic pentagonal-number pairing.  A template is fixed;
    otherwise compare the smallest part p with the staircase prefix q,
    and the smaller one is peeled off or spread back."""
    A = pair[0]
    if not A:
        return _EMPTY
    p = A[-1]
    n = min(p, _staircase_prefix(A))
    cls = 1 if p == n else 2  # alpha^-1 or alpha, at i = k = 1
    return _match_template(pair, 1, 1) or _apply(A, (), 1, 1, cls, n)
