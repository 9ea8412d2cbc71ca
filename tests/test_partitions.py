"""Oracle tests for the partition families.

The brute-force generators and condition checkers here are written
independently of the package (straight from the defining inequalities)
so they can act as oracles for the optimized enumerators and DP counts.
"""

import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations, zip_longest
from operator import add

import pytest

from qgordon import gordon, harness, partitions, pipelines


def gen_partitions(n, max_part=None):
    """Every partition of n, largest part first."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in gen_partitions(n - first, first):
            yield (first,) + rest


def window_ok(parts, k, a):
    """Direct restatement of the family-B conditions."""
    for i in range(len(parts) - k + 1):
        if parts[i] - parts[i + k - 1] < 2:
            return False
    return sum(1 for p in parts if p == 1) <= a - 1


def parity_ok(parts, which):
    for v in set(parts):
        if v % 2 == which and parts.count(v) % 2 == 1:
            return False
    return True


def brute_family(family, k, a, n):
    out = []
    for p in gen_partitions(n):
        if not window_ok(p, k, a):
            continue
        if family == "W" and not parity_ok(p, 0):
            continue
        if family == "Wbar" and not parity_ok(p, 1):
            continue
        out.append(p)
    return out


def brute_count_a(k, a, n):
    modulus = 2 * k + 1
    banned = {0, a % modulus, (modulus - a) % modulus}
    total = 0
    for p in gen_partitions(n):
        if all(x % modulus not in banned for x in p):
            total += 1
    return total


def triple_loop_counts(family, k, a, limit):
    """The counting DP one weight at a time: a loop over multiplicity c
    of the size above, weight w and multiplicity f of the current size
    (test oracle for the whole-row DP)."""
    if family == "A":
        modulus = 2 * k + 1
        banned = {0, a % modulus, (modulus - a) % modulus}
        dp = [1] + [0] * limit
        for s in range(1, limit + 1):
            if s % modulus not in banned:
                for w in range(s, limit + 1):
                    dp[w] += dp[w - s]
        return dp
    even_parity = {"B": None, "W": 0, "Wbar": 1}[family]
    cur = [[0] * (limit + 1) for _ in range(k)]
    cur[0][0] = 1
    for s in range(limit, 0, -1):
        nxt = [[0] * (limit + 1) for _ in range(k)]
        for c in range(k):
            for w in range(limit + 1):
                ways = cur[c][w]
                if not ways:
                    continue
                top = k - 1 - c if s > 1 else min(k - 1 - c, a - 1)
                for f in range(top + 1):
                    if f % 2 == 1 and s % 2 == even_parity:
                        continue
                    if w + f * s > limit:
                        break
                    nxt[f][w + f * s] += ways
        cur = nxt
    return [sum(cur[c][w] for c in range(k)) for w in range(limit + 1)]


def list_row_counts(family, k, a, limit):
    """The B/W/Wbar counting DP on list rows, one list of ints per
    multiplicity (test oracle for the packed rows at depth, where a slot
    is many bytes wide)."""
    even_parity = {"B": None, "W": 0, "Wbar": 1}[family]
    width = limit + 1
    zero = [0] * width
    cur = [[1] + [0] * limit] + [zero] * (k - 1)
    for s in range(limit, 0, -1):
        pre = [cur[0]]
        for row in cur[1:]:
            pre.append(pre[-1] if row is zero
                       else list(map(add, pre[-1], row)))
        top = k - 1 if s > 1 else a - 1
        nxt = [pre[k - 1]]
        for f in range(1, k):
            shift = f * s
            if f > top or shift > limit or (f % 2 and s % 2 == even_parity):
                nxt.append(zero)
            else:
                nxt.append([0] * shift + pre[k - 1 - f][:width - shift])
        cur = nxt
    counts = cur[0]
    for row in cur[1:]:
        if row is not zero:
            counts = list(map(add, counts, row))
    return counts


def pentagonal_p(limit):
    """p(0..limit) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total, j = 0, 1
        while True:
            g = j * (3 * j - 1) // 2
            if g > n:
                break
            sign = 1 if j % 2 else -1
            total += sign * p[n - g]
            if g + j <= n:
                total += sign * p[n - g - j]
            j += 1
        p[n] = total
    return p


def reference_walk(family, k, a, lo, hi):
    """Members of weight lo..hi by one recursion over every part size,
    multiplicities descending, a member after its extensions: descending
    lexicographic order overall.  This was partitions' family walk before
    that split a member into searched large parts and tabulated small
    ones."""
    want = {"B": None, "W": 0, "Wbar": 1}[family]

    def bound(s):
        # pairs of sizes (s, s-1) carry at most k-1 parts, each <= s
        return (k - 1) * ((s + 1) // 2) * ((s + 2) // 2)

    def rec(prefix, top, above, w):
        for s in range(min(top, hi - w), 0, -1):
            if w + bound(s) < lo:
                break
            cap = min(k - 1 - above if s == top else k - 1, (hi - w) // s)
            if s == 1:
                cap = min(cap, a - 1)
            for mult in range(cap, 0, -1):
                if s % 2 == want and mult % 2:
                    continue
                w2 = w + mult * s
                if w2 + bound(s - 1) < lo:
                    break
                yield from rec(prefix + (s,) * mult, s - 1, mult, w2)
        if w >= lo:
            yield prefix

    return rec((), hi, 0, 0)


def test_is_gordon_fixed_cases():
    assert partitions.is_gordon((3, 1, 1), 3, 3)
    assert not partitions.is_gordon((2, 2, 1), 3, 3)
    assert partitions.is_gordon((), 2, 1)
    assert partitions.is_gordon((), 5, 5)
    # too many ones
    assert not partitions.is_gordon((3, 1, 1, 1), 3, 3)
    # not weakly decreasing
    assert not partitions.is_gordon((1, 2), 3, 3)
    # nonpositive part
    assert not partitions.is_gordon((2, 0), 3, 3)


def test_is_gordon_matches_bruteforce():
    # is_gordon is the member test of B; W and Wbar's member test must
    # add exactly their parity filter
    for k in (2, 3, 4):
        for a in range(1, k + 1):
            for n in range(11):
                for p in gen_partitions(n):
                    ok = window_ok(p, k, a)
                    assert partitions.is_gordon(p, k, a) == ok
                    for family, which in (("W", 0), ("Wbar", 1)):
                        assert (partitions._member(p, family, k, a)
                                == (ok and parity_ok(p, which))), (family, p)


def test_satisfies_parity():
    assert partitions.satisfies_parity((4, 4, 3), "even")
    assert not partitions.satisfies_parity((4, 3), "even")
    assert partitions.satisfies_parity((5, 5, 4), "odd")
    assert partitions.satisfies_parity((7, 2), "none")
    assert partitions.satisfies_parity((), "even")
    # the public filter takes parts in any order
    assert partitions.satisfies_parity((4, 3, 4), "even")
    assert not partitions.satisfies_parity((5, 4, 1, 5, 4), "odd")
    with pytest.raises(partitions.ParameterError):
        partitions.satisfies_parity((1,), "both")


def test_enumerate_family_fixed_cases():
    assert partitions.enumerate_family("B", 3, 3, 5) == [
        (5,), (4, 1), (3, 2), (3, 1, 1)]
    assert partitions.enumerate_family("W", 3, 3, 5) == [(5,), (3, 1, 1)]
    assert partitions.enumerate_family("Wbar", 3, 2, 4) == [(4,), (2, 2)]
    assert partitions.enumerate_family("B", 2, 2, 0) == [()]


def test_enumerate_family_matches_bruteforce():
    for k in (2, 3, 4, 5):
        for a in range(1, k + 1):
            for n in range(13):
                for family in ("B", "W", "Wbar"):
                    got = partitions.enumerate_family(family, k, a, n)
                    want = brute_family(family, k, a, n)
                    assert got == want, (family, k, a, n)


def test_enumeration_order_is_descending_lex():
    out = partitions.enumerate_family("B", 4, 4, 9)
    assert out == sorted(out, reverse=True)
    assert len(set(out)) == len(out)


def test_walk_covers_each_weight_in_enumeration_order():
    N = 30
    for k in (2, 3, 4, 5):
        for a in range(1, k + 1):
            for family in ("B", "W", "Wbar"):
                walk = list(partitions._walk_family(family, k, a, 0, N))
                # a stable sort by weight keeps each weight's own order
                by_weight = sorted(walk, key=sum)
                want = [p for n in range(N + 1)
                        for p in partitions.enumerate_family(family, k, a, n)]
                assert by_weight == want, (family, k, a)
                counts = [0] * (N + 1)
                for p in walk:
                    counts[sum(p)] += 1
                assert counts == partitions.family_counts(family, k, a, N)
                inner = list(partitions._walk_family(family, k, a, 11, 23))
                assert inner == [p for p in walk if 11 <= sum(p) <= 23]


# the split size of each k: the largest size whose tails weigh at most
# partitions._TAIL_WEIGHT under partitions._tail_bound
SPLIT = {2: 8, 3: 6, 4: 4, 5: 4, 6: 3, 7: 3, 8: 2}


def test_split_sizes():
    for k, t in SPLIT.items():
        assert (partitions._tail_bound(t, k) <= partitions._TAIL_WEIGHT
                < partitions._tail_bound(t + 1, k)), k


def test_walk_agrees_with_the_reference_walker():
    # every split size, and weight ranges that end below, at and above it;
    # each weight's list is the reference's, and enumerate_family's at the
    # range ends
    for k, t in SPLIT.items():
        for a in range(1, k + 1):
            for family in ("B", "W", "Wbar"):
                want = [[] for _ in range(31)]
                for p in reference_walk(family, k, a, 0, 30):
                    want[sum(p)].append(p)
                for hi in {0, 1, t - 1, t, t + 1, 30}:
                    assert (partitions.enumerate_family(family, k, a, hi)
                            == want[hi]), (family, k, a, hi)
                    for lo in {0, min(11, hi), hi}:
                        got = partitions._walk_family(family, k, a, lo, hi)
                        # a stable sort keeps each weight's own order
                        assert sorted(got, key=sum) == [
                            p for n in range(lo, hi + 1) for p in want[n]
                        ], (family, k, a, lo, hi)


def test_interleaved_walks_share_no_state():
    alone = {}
    runs = [("B", 3, 2, 0, 30), ("Wbar", 5, 4, 11, 30), ("W", 8, 8, 0, 30)]
    for args in runs:
        alone[args] = list(partitions._walk_family(*args))
    for x, y in [(runs[0], runs[1]), (runs[1], runs[2]), (runs[0], runs[0])]:
        got_x, got_y = [], []
        for p, q in zip_longest(partitions._walk_family(*x),
                                partitions._walk_family(*y)):
            if p is not None:
                got_x.append(p)
            if q is not None:
                got_y.append(q)
        assert got_x == alone[x] and got_y == alone[y], (x, y)


def test_walk_tables_are_bounded():
    # 39,172 members, counted by weight as they stream, not stored: the
    # peak is the walk's own tables and frames
    tracemalloc.start()
    try:
        counts = Counter(map(sum, partitions._walk_family("B", 3, 3, 0, 45)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == 39172
    assert peak < 256 * 1024, peak


def test_counts_match_enumeration_and_dp():
    for k in (2, 3, 4):
        for a in range(1, k + 1):
            for family in ("B", "W", "Wbar"):
                counts = partitions.family_counts(family, k, a, 14)
                for n in range(15):
                    assert counts[n] == len(brute_family(family, k, a, n))
                    assert partitions.count_family(family, k, a, n) == counts[n]


@pytest.mark.parametrize("family", partitions.FAMILIES)
def test_family_counts_match_triple_loop(family):
    for k in range(2, 7):
        for a in range(1, k + 1):
            for limit in (0, 1, 2, 7, 97):
                got = partitions.family_counts(family, k, a, limit)
                want = triple_loop_counts(family, k, a, limit)
                assert got == want, (family, k, a, limit)


@pytest.mark.parametrize("family", ["B", "W", "Wbar"])
def test_family_counts_at_huge_k(family):
    # below weight 31 no window of k = 40 can fill, so a larger k counts
    # the same; the DP keeps only the multiplicities a weight can reach,
    # so k = 10^6 costs what k = 40 does, not time linear in k
    for a in (1, 3, 31):
        t0 = time.perf_counter()
        got = partitions.family_counts(family, 10 ** 6, a, 30)
        assert time.perf_counter() - t0 < 0.5
        assert got == partitions.family_counts(family, 40, a, 30)
        assert got == triple_loop_counts(family, 40, a, 30), (family, a)


@pytest.mark.parametrize("family", ["B", "W", "Wbar"])
def test_packed_rows_match_list_rows_at_depth(family):
    # at limit 600 a slot is 13 bytes wide, at 300 it is 9
    for k in range(2, 6):
        for a in sorted({1, (k + 1) // 2, k}):
            for limit in (300, 600):
                got = partitions.family_counts(family, k, a, limit)
                assert got == list_row_counts(family, k, a, limit), \
                    (family, k, a, limit)


def test_slot_holds_every_partition_count():
    p = pentagonal_p(5000)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15] and p[100] == 190569292
    for n, pn in enumerate(p):
        assert pn.bit_length() < 8 * partitions._slot_bytes(n), n


def test_count_family_uses_the_dp(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("count_family enumerated")

    monkeypatch.setattr(partitions, "enumerate_family", no_enumeration)
    for family in partitions.FAMILIES:
        counts = partitions.family_counts(family, 5, 3, 40)
        assert partitions.count_family(family, 5, 3, 40) == counts[40]


def test_count_a_against_bruteforce():
    for k in (2, 3, 4):
        for a in range(1, k + 1):
            counts = partitions.family_counts("A", k, a, 12)
            for n in range(13):
                assert counts[n] == brute_count_a(k, a, n)
                assert partitions.count_family("A", k, a, n) == counts[n]


def test_count_fixed_cases():
    assert partitions.count_family("A", 2, 2, 4) == 2
    assert partitions.count_family("B", 2, 2, 4) == 2
    assert partitions.count_family("B", 4, 2, 0) == 1


def test_families_a_and_b_agree():
    for k in (2, 3, 4):
        for a in range(1, k + 1):
            b = partitions.family_counts("B", k, a, 18)
            av = partitions.family_counts("A", k, a, 18)
            assert av == b, (k, a)


def test_count_monotone_in_a():
    for k in (2, 3, 4):
        for n in range(12):
            row = [partitions.count_family("B", k, a, n) for a in range(1, k + 1)]
            assert row == sorted(row)


def test_w_with_k2_has_only_odd_parts():
    # distinctness from the k=2 window rule plus the parity filter leaves
    # no room for even parts at all
    for n in range(16):
        for p in partitions.enumerate_family("W", 2, 2, n):
            assert all(x % 2 == 1 for x in p)


def test_enumerate_distinct():
    assert partitions.enumerate_distinct(0) == [()]
    assert partitions.enumerate_distinct(5) == [(5,), (4, 1), (3, 2)]
    assert partitions.enumerate_distinct(6, part_parity="even") == [(6,), (4, 2)]
    assert partitions.enumerate_distinct(6, part_parity="odd") == [(5, 1)]
    for n in range(12):
        got = partitions.enumerate_distinct(n)
        want = [p for p in gen_partitions(n) if len(set(p)) == len(p)]
        assert got == want
    # every parity to n = 24, against subsets of the allowed sizes: a
    # descending size list gives descending tuples, and at most six
    # distinct parts fit under 25 (1 + 2 + ... + 7 = 28)
    for parity in (None, "even", "odd"):
        sizes = [s for s in range(24, 0, -1)
                 if parity is None or s % 2 == (parity == "odd")]
        want = [[] for _ in range(25)]
        for r in range(7):
            for c in combinations(sizes, r):
                if sum(c) <= 24:
                    want[sum(c)].append(c)
        for n in range(25):
            assert (partitions.enumerate_distinct(n, parity)
                    == sorted(want[n], reverse=True))


def test_enumerate_distinct_rejects_unknown_parity():
    for parity in ("evn", "none", "", 0, 1):
        with pytest.raises(partitions.ParameterError):
            partitions.enumerate_distinct(5, parity)


def test_parameter_errors():
    with pytest.raises(partitions.ParameterError):
        partitions.is_gordon((1,), 1, 1)
    with pytest.raises(partitions.ParameterError):
        partitions.enumerate_family("B", 3, 0, 4)
    with pytest.raises(partitions.ParameterError):
        partitions.enumerate_family("B", 3, 4, 4)
    with pytest.raises(partitions.ParameterError):
        partitions.enumerate_family("A", 3, 3, 4)
    with pytest.raises(partitions.ParameterError):
        partitions.count_family("X", 3, 3, 4)
    with pytest.raises(partitions.ParameterError):
        partitions.count_family("B", 3, 3, -1)
    with pytest.raises(partitions.ParameterError):
        partitions.enumerate_family("B", 3, 3, -1)
    with pytest.raises(partitions.ParameterError):
        partitions.enumerate_distinct(-1)
    with pytest.raises(partitions.ParameterError):
        partitions.family_counts("B", 3, 3, -1)
    # k, a and parts are read by operator.index: a float is refused even
    # where it compares like an integer
    for call in (lambda: gordon.involute_gordon(((3,), ()), 2.5, 1),
                 lambda: gordon.classify(((3,), ()), 2.5, 1),
                 lambda: pipelines.in_ground(((4,), ()), "OO", 3.0, 3),
                 lambda: harness.check_involution_laws("gordon", 2.5, 1, 5),
                 lambda: partitions.is_gordon((2.5,), 2, 2),
                 lambda: partitions.satisfies_parity((2.5,), "even")):
        with pytest.raises(partitions.ParameterError):
            call()


# every public entry point that takes a weight, truncation or template
# index, called on otherwise valid input with that one argument n
WEIGHT_ENTRY_POINTS = {
    "enumerate_family": lambda n: partitions.enumerate_family("B", 3, 3, n),
    "enumerate_distinct": lambda n: partitions.enumerate_distinct(n),
    "family_counts": lambda n: partitions.family_counts("B", 3, 3, n),
    "count_family": lambda n: partitions.count_family("W", 3, 3, n),
    "gordon_fixed_point": lambda n: gordon.gordon_fixed_point(1, n, 3, 3),
    "gordon_fixed_gf": lambda n: gordon.gordon_fixed_gf(3, 3, n),
    "enumerate_ground": lambda n: pipelines.enumerate_ground("EE", 2, 2, n),
    "pipeline_fixed_triple":
        lambda n: pipelines.pipeline_fixed_triple("OO", 2, n, 3, 3),
    "pipeline_e_factor": lambda n: pipelines.pipeline_e_factor("OE", n),
    "pipeline_fixed_gf": lambda n: pipelines.pipeline_fixed_gf("OE", 3, 2, n),
    "check_identity": lambda n: harness.check_identity("ebf", 3, 3, n),
    "check_involution_laws":
        lambda n: harness.check_involution_laws("gordon", 3, 3, n),
}


@pytest.mark.parametrize("n", [2.5, -1])
@pytest.mark.parametrize("entry", sorted(WEIGHT_ENTRY_POINTS))
def test_weight_errors(entry, n):
    # a weight is read by operator.index and must be >= 0: a float is a
    # ParameterError, not a TypeError from inside the kernel
    with pytest.raises(partitions.ParameterError):
        WEIGHT_ENTRY_POINTS[entry](n)
    WEIGHT_ENTRY_POINTS[entry](3)


def test_inv_one_minus_residue_classes_match_blocks():
    # both forms of c *= 1/(1 - q^s): one accumulate per residue class
    # when s*s < len(c), one block of s weights at a time otherwise
    rng = random.Random(7)
    for length in (1, 2, 61, 601):
        for s in range(1, 61):
            c = [rng.randint(-9, 9) for _ in range(length)]
            want = list(c)
            for lo in range(s, length, s):
                want[lo:lo + s] = map(add, want[lo:lo + s], want[lo - s:lo])
            partitions._inv_one_minus(c, s)
            assert c == want, (length, s)
