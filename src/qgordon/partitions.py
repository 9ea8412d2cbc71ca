"""Partition families with difference-two window conditions and parity filters.

All families are parametrized by integers k >= 2 and 1 <= a <= k.

* ``A``: partitions whose parts avoid the residues 0, a and -a mod 2k+1.
* ``B``: partitions b_1 >= b_2 >= ... with b_i - b_{i+k-1} >= 2 whenever
  both parts exist, and at most a-1 parts equal to 1.
* ``W``: members of ``B`` in which every even part has even multiplicity.
* ``Wbar``: members of ``B`` in which every odd part has even multiplicity.

A partition is a tuple of positive ints in weakly decreasing order; the
empty tuple is the unique partition of 0.  In multiplicities f_s a
family is one size rule, _size_rule, plus the window f_s + f_(s+1) <=
k-1, B's condition on k consecutive parts.  The walk, the counting DP
and the member test _member read both; gordon._blocked and
pipelines._route_triple read them at one insertion point.

The enumerators walk a range of weights at once and fix only the order
within a weight, descending lexicographic.  A family walk searches the
parts above a split size set by k and appends the smaller ones from
tables it builds per call, bounded by _TAIL_WEIGHT.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import accumulate, chain, groupby
from math import comb, factorial, inf, isqrt
from operator import add, index, itemgetter

FAMILIES = ("A", "B", "W", "Wbar")

# the parity of the part sizes each family holds an even number of
# times; B pairs up none
_PAIRED = {"B": None, "W": 0, "Wbar": 1}


class ParameterError(ValueError):
    """Raised for out-of-range family parameters."""


def check_params(k: int, a: int) -> None:
    """Validate integers (operator.index) k >= 2 and 1 <= a <= k."""
    try:
        index(k), index(a)
    except TypeError:
        raise ParameterError("k and a must be integers, got k=%r a=%r"
                             % (k, a)) from None
    if k < 2:
        raise ParameterError("k must be >= 2, got %r" % (k,))
    if not 1 <= a <= k:
        raise ParameterError("need 1 <= a <= k, got a=%r k=%r" % (a, k))


def _as_weight(n, name="n"):
    """n, a weight, truncation or index, as an int >= 0 read by
    operator.index; ParameterError, naming it name, otherwise."""
    try:
        if index(n) >= 0:
            return index(n)
    except TypeError:
        pass
    raise ParameterError("%s must be an integer >= 0, got %r" % (name, n))


def _as_sides(config, n):
    """config, a pair (n = 2) or a pipeline triple (n = 4), as n tuples,
    each side read by _as_parts; ParameterError unless it has n sides."""
    try:
        if len(config) == n:
            return tuple(map(_as_parts, config))
    except TypeError:
        pass
    raise ParameterError("expected %d sequences of integer parts, got %r"
                         % (n, config))


def _as_parts(parts):
    """parts as a tuple of ints, read by operator.index, so a float or a
    string is refused with ParameterError."""
    try:
        return tuple(map(index, parts))
    except TypeError:
        raise ParameterError("parts must be a sequence of integers, got %r"
                             % (parts,)) from None


def is_gordon(parts, k: int, a: int) -> bool:
    """True iff ``parts`` is a weakly decreasing tuple of positive ints
    with every window of k consecutive parts spanning at least 2
    (parts[i] - parts[i+k-1] >= 2) and at most a-1 parts equal to 1."""
    check_params(k, a)
    return _member(_as_parts(parts), "B", k, a)


def satisfies_parity(parts, mode: str) -> bool:
    """Parity filter on multiplicities, the one fact W or Wbar adds to B.

    mode "even": every even part value occurs an even number of times (W).
    mode "odd":  every odd part value occurs an even number of times (Wbar).
    mode "none": always true (B).
    """
    family = (isinstance(mode, str)
              and {"none": "B", "even": "W", "odd": "Wbar"}.get(mode))
    if not family:
        raise ParameterError("unknown parity mode %r" % (mode,))
    paired = _PAIRED[family]
    return not any(v % 2 == paired and len(tuple(run)) % 2
                   for v, run in groupby(sorted(_as_parts(parts))))


def _size_rule(family, k, a, s):
    """(cap, step) of the multiplicity of size s by itself: at most a-1
    ones and k-1 parts of any larger size, in steps of 2 on the sizes
    the family pairs up.  Only the window f_s + f_(s+1) <= k-1 joins two
    sizes."""
    return (a - 1 if s == 1 else k - 1), (2 if s % 2 == _PAIRED[family] else 1)


def _member(parts, family, k, a):
    """Whether parts, a sequence of ints, is a member of the family at
    (k, a): positive sizes in descending order, each run within its size
    rule, and each two adjacent sizes within the window.  Trusts k and a;
    at k = 1 the window admits only the empty partition."""
    prev, prev_f = inf, 0
    for v, run in groupby(parts):
        f = len(tuple(run))
        cap, step = _size_rule(family, k, a, v)
        if (f > cap or f % step or v < 1 or v > prev
                or (v + 1 == prev and f + prev_f >= k)):
            return False
        prev, prev_f = v, f
    return True


def _tail_bound(size, k):
    # upper bound on the weight of a valid suffix using part sizes <= size:
    # pair sizes (s, s-1) jointly carry at most k-1 parts, each <= s, so
    # the bound is (k-1) * (size + (size-2) + ... down to 1 or 2)
    return (k - 1) * ((size + 1) // 2) * ((size + 2) // 2)


# A family walk's split size is the largest size whose tails, the parts
# of at most that size, weigh at most _TAIL_WEIGHT by _tail_bound: 8, 6,
# 4, 4, 3, 3, 2 for k = 2..8.  Its tables then hold at most 190 tails in
# 671 entries for k <= 8, built in well under a millisecond.
_TAIL_WEIGHT = 24


def _walk_family(family, k, a, lo, hi):
    """Every member of the family with weight in lo..hi, each once, as an
    iterator, by _walk on the family's size rules.  Each weight's members
    come out in descending lexicographic order, enumerate_family's; the
    order across weights is not fixed.  Trusts its input."""
    return _walk([_size_rule(family, k, a, s) for s in range(hi + 1)],
                 k, lo, hi)


def _walk(rule, k, lo, hi):
    """The partitions with weight in lo..hi whose multiplicities keep
    rule[s], the (cap, step) of size s, and the window f_s + f_(s+1) <=
    k-1, each once, in descending lexicographic order within a weight:
    _walk_heads' members, head by head."""
    return chain.from_iterable(map(itemgetter(0),
                                   _walk_heads(rule, k, lo, hi)))


def _walk_heads(rule, k, lo, hi):
    """_walk's members as one run per head, (members, n, sizes): the
    head's members in their order, an iterator, of which sizes[i] weigh
    n + i.

    A member is a head, its parts above the split size S (_TAIL_WEIGHT),
    and a tail, its parts of at most S.  Only heads are searched, picking
    the next size and its multiplicity in descending order and cutting
    branches that cannot reach weight lo.  Since f_S + f_(S+1) <= k-1 is
    all that couples a tail to its head, the tails are tabulated once per
    call, table m holding those with f_S <= k-1-m by weight, and a head
    with f_(S+1) = m and weight w takes its table's tails of weight
    lo-w..hi-w in C.  The tables die with the iterator; nothing is cached
    across calls."""
    bound = [_tail_bound(s, k) for s in range(hi + 1)]
    split = bisect_right(bound, _TAIL_WEIGHT) - 1
    top = min(hi, bound[split])

    def prefixes(prefix, size, above, w, floor, lo, hi):
        # prefix weighs w and its smallest size is size+1, with
        # multiplicity above; yields each extension of it by sizes in
        # floor+1..size that parts <= floor can bring to weight lo, the
        # prefix itself last, with its weight and its multiplicity of
        # floor+1: the heads (floor S) and the tails (floor 0)
        for s in range(min(size, hi - w), floor, -1):
            if w + bound[s] < lo:
                break
            cap, step = rule[s]
            cap = min(cap, (hi - w) // s, k - 1 - (above if s == size else 0))
            for mult in range(cap - cap % step, 0, -step):
                w2 = w + mult * s
                if w2 + bound[s - 1] < lo:
                    break
                yield from prefixes(prefix + (s,) * mult, s - 1, mult, w2,
                                    floor, lo, hi)
        if w + bound[floor] >= lo:
            yield prefix, w, above if size == floor else 0

    by_weight = [[] for _ in range(top + 1)]
    for tail, u, _ in prefixes((), split, 0, 0, 0, 0, top):
        by_weight[u].append(tail)
    tables = []
    for m in range(min(k - 1, hi // (split + 1)) + 1):
        kept = [[t for t in ts if t.count(split) < k - m] for ts in by_weight]
        sizes = list(map(len, kept))
        tables.append((tuple(chain.from_iterable(kept)),
                       [0, *accumulate(sizes)], sizes))
    for head, w, m in prefixes((), hi, 0, 0, split, lo, hi):
        tails, starts, sizes = tables[m]
        u, v = max(lo - w, 0), min(hi - w, top) + 1
        yield (map(head.__add__, tails[starts[u]:starts[v]]), w + u,
               sizes[u:v])


def _walked_counts(family, k, a, N):
    """The family's members at each weight 0..N, counted from one walk:
    every member is built, and counted at its head's weight plus its
    tail's.  Counting the tables without building the members would be a
    second counting DP, which this count stays independent of."""
    counts = [0] * (N + 1)
    rule = [_size_rule(family, k, a, s) for s in range(N + 1)]
    for members, n, sizes in _walk_heads(rule, k, 0, N):
        deque(members, 0)
        counts[n:n + len(sizes)] = map(add, counts[n:n + len(sizes)], sizes)
    return counts


def enumerate_family(family: str, k: int, a: int, n: int):
    """All partitions of n in the family, as a list of tuples in
    largest-part-first lexicographic (descending) order: the weight
    range [n, n] of _walk_family.

    family is one of "B", "W", "Wbar"; the residue-avoiding family "A"
    has no enumerator here, only counts.
    """
    check_params(k, a)
    if family not in _PAIRED:
        raise ParameterError("family %r has no enumerator; it must be B, W "
                             "or Wbar" % (family,))
    n = _as_weight(n)
    return list(_walk_family(family, k, a, n, n))


def enumerate_distinct(n: int, part_parity: str | None = None):
    """Strictly decreasing partitions of n, largest-part-first descending
    lexicographic order.  part_parity "even"/"odd" restricts every part
    to that parity; None allows all parts."""
    n = _as_weight(n)
    if part_parity not in (None, "even", "odd"):
        raise ParameterError("part_parity must be None, 'even' or 'odd', "
                             "got %r" % (part_parity,))
    return list(_walk_distinct(part_parity, n, n))


def _walk_distinct(parity, lo, hi):
    """The strictly decreasing partitions with weight in lo..hi and every
    part of the given parity ("even", "odd", or None for any part), each
    once, in descending lexicographic order within a weight: _walk with
    cap 1 on each size of that parity and 0 on the others.  At k = 3 the
    window f_s + f_(s+1) <= 2 never binds on caps of 1.  Trusts its
    input."""
    odd = {"even": 0, "odd": 1}.get(parity)
    return _walk([(int(odd is None or s % 2 == odd), 1)
                  for s in range(hi + 1)], 3, lo, hi)


def _inv_one_minus(c, s):
    """c *= 1/(1 - q^s) in place, truncated at len(c) - 1: a prefix sum
    along each residue class mod s.  With few classes (s*s < len(c))
    each class is one accumulate; otherwise each block of s weights adds
    the block below it, which is already final."""
    if s * s < len(c):
        for r in range(s):
            c[r::s] = accumulate(c[r::s])
        return
    for lo in range(s, len(c), s):
        c[lo:lo + s] = map(add, c[lo:lo + s], c[lo - s:lo])


def _avoiding_counts(forbidden, modulus, limit):
    """Partitions of 0..limit into parts whose residue mod ``modulus`` is
    not in ``forbidden``: the restricted-parts DP, one division by
    (1 - q^s) per allowed part size s."""
    dp = [1] + [0] * limit
    for s in range(1, limit + 1):
        if s % modulus not in forbidden:
            _inv_one_minus(dp, s)
    return dp


def family_counts(family: str, k: int, a: int, limit: int):
    """Counts of family members at every weight 0..limit, one DP pass.

    For "A" this is the restricted-parts DP.  For the other families it
    runs over part sizes from high to low, carrying the multiplicity of
    the previous size, since the window condition only couples adjacent
    sizes (f_j + f_{j+1} <= k-1) and the parity filter is per size.
    Each step works on whole weight rows: the row of multiplicity f at
    size s is the sum of the rows whose previous multiplicity is at most
    k-1-f, moved up by f*s.  A row is one int of nb-byte slots with
    weight w in slot limit - w, so a sum of rows is one addition and a
    move one right shift, under which weights past limit fall off the
    bottom: no mask.  After the step for size s an entry counts distinct
    partitions of its weight into parts >= s, which _step_bytes bounds,
    so the slots widen as s falls: no carries.
    """
    check_params(k, a)
    limit = _as_weight(limit, "limit")
    if family == "A":
        modulus = 2 * k + 1
        return _avoiding_counts({0, a % modulus, (modulus - a) % modulus},
                                modulus, limit)
    if family not in _PAIRED:
        raise ParameterError("unknown family %r" % (family,))
    # cur[c]: assignments of multiplicities to sizes > s with the size
    # s+1 multiplicity equal to c, packed by weight so far; a multiplicity
    # above L = min(k - 1, limit) weighs more than limit, so its row is 0
    # and is not kept.  Two parts above limit // 2 weigh more than limit,
    # so the steps for those sizes leave the empty partition and each
    # single part its size rule allows, f = 1: 1-byte slots, and a part
    # of size h = limit // 2 + 1, the first step's s+1, in cur[1]
    L, h = min(k - 1, limit), limit // 2 + 1
    row = bytearray(limit + 1)
    row[0] = 1
    for s in range(h, limit + 1):
        cap, step = _size_rule(family, k, a, s)
        row[s] = cap >= 1 and step == 1
    cur = [0] * (L + 1)
    if L:
        cur[1], row[h] = row[h] << 8 * (limit - h), 0
    cur[0], nb = int.from_bytes(row, "big"), 1
    for s, wide in _step_bytes(limit):
        if wide > nb:
            cur, nb = [_widen(x, nb, wide, limit + 1) for x in cur], wide
        # pre[m]: the same, summed over size s+1 multiplicities c <= m;
        # a zero row is skipped, since x + 0 copies all of x
        pre = list(accumulate(cur, lambda x, y: x + y if y else x))
        cap, step = _size_rule(family, k, a, s)
        cur = [pre[L]] + [0 if f > cap or f % step else
                          pre[min(k - 1 - f, L)] >> 8 * nb * f * s
                          for f in range(1, L + 1)]
    return _unpack(sum(cur), nb, limit + 1, "big")


def _slot_bytes(limit):
    """Bytes per slot that hold any count of partitions of <= limit:
    p(n) < exp(pi*sqrt(2n/3)) / n**(3/4) (de Azevedo Pribitkin, Ramanujan
    J. 18, 2009), so log2 p(n) < 3.701*sqrt(n) - (3/4)*log2(n), rounded up
    in integers, plus one spare bit; 1 byte for n < 2."""
    bits = ((3701 * (isqrt(limit * 10 ** 6) + 1)) // 10 ** 6 + 2
            - (3 * (limit.bit_length() - 1)) // 4)
    return (bits + 7) // 8 if limit > 1 else 1


def _step_bytes(limit):
    """(s, nb) for s = limit // 2 down to 1: nb-byte slots hold the number
    of partitions of any weight <= limit into parts >= s.  Those have at
    most limit // s parts, and the partitions of n into j parts map one
    to one onto those of n + j(j-1)/2 into j distinct parts, of which
    there are at most C(n + j(j-1)/2 - 1, j - 1) / j!.  So 1 plus that
    at n = limit, summed over j <= limit // s, bounds them; the sum gains
    one term per new j as s falls, and stops once it needs
    _slot_bytes(limit) bytes, which hold p(limit)."""
    top = _slot_bytes(limit)
    nb, bound, j = 1, 2, 1
    for s in range(limit // 2, 0, -1):
        while nb < top and j < limit // s:
            j += 1
            bound += comb(limit + j * (j - 1) // 2 - 1, j - 1) // factorial(j)
            nb = min(top, (bound.bit_length() + 7) // 8)
        yield s, nb


def _widen(x, nb, wide, n):
    """Int x's n big-endian nb-byte slots as wide-byte slots, wide > nb."""
    raw = x.to_bytes(nb * n, "big")
    out = bytearray(wide * n)
    for i in range(nb):
        out[wide - nb + i::wide] = raw[i::nb]
    return int.from_bytes(out, "big")


def _unpack(x, nb, n, order="little"):
    """The n nb-byte slots of int x >= 0, low to high ("big": high to low)."""
    raw = x.to_bytes(nb * n, order)
    return [int.from_bytes(raw[i:i + nb], order)
            for i in range(0, nb * n, nb)]


def count_family(family: str, k: int, a: int, n: int) -> int:
    """Number of weight-n members of the family, from the counting DP in
    family_counts.  The enumerator is not used, so a check that counts
    enumerate_family's output stays independent of this."""
    return family_counts(family, k, a, n)[n]
