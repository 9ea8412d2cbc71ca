"""Tests for the pair involution: worked fixtures, template fixed
points, and exhaustive law sweeps on a small grid."""

import random

import pytest

from qgordon import gordon, partitions, series
from qgordon.gordon import (
    ClassParams,
    FixedPoint,
    Move,
    UClass,
    _blocked,
    _fixed_pair,
    _involute_k1,
    _pair_fault,
    apply_map,
    classify,
    compute_params,
    gordon_fixed_gf,
    gordon_fixed_point,
    involute_gordon,
    step1_move,
)
from qgordon.partitions import ParameterError


def pairs_of_weight(k, a, w):
    for wa in range(w + 1):
        for A in partitions.enumerate_distinct(wa):
            for B in partitions.enumerate_family("B", k, a, w - wa):
                yield (A, B)


def sign(pair):
    return -1 if len(pair[0]) % 2 else 1


def test_classify_fixtures():
    lab = classify(((6,), (5, 5, 1)), 3, 3)
    assert isinstance(lab, UClass) and (lab.i, lab.cls) == (1, 2)
    lab = classify(((6, 1), (5, 5)), 3, 3)
    assert isinstance(lab, UClass) and (lab.i, lab.cls) == (1, 1)
    assert classify(((), (5, 4, 1)), 3, 3) == Move("b_to_a")
    assert classify(((7,), (5, 5, 1)), 3, 3) == Move("a_to_b")
    assert classify(((), ()), 3, 3) == FixedPoint(0, 0)
    lab = classify(((5,), (5, 4, 3)), 3, 3)
    assert (lab.i, lab.cls) == (2, 4)


def test_records_are_frozen_tuples_with_stable_reprs():
    assert repr(FixedPoint(1, 2)) == "FixedPoint(family=1, n=2)"
    assert repr(Move("a_to_b")) == "Move(direction='a_to_b')"
    assert repr(UClass(1, 2, ClassParams(1, 2, 3, None, 1))) == (
        "UClass(i=1, cls=2, params=ClassParams(p=1, q=2, r=3, s=None, n=1))")
    records = [FixedPoint(1, 2), Move("b_to_a"), ClassParams(6, 1, 1, None, 1),
               UClass(1, 2, ClassParams(6, 1, 1, None, 1))]
    for rec in records:
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], 0)
        twin = type(rec)(*rec)
        assert twin == rec and hash(twin) == hash(rec)
        assert rec == tuple(rec)
    assert FixedPoint(1, 2) != FixedPoint(2, 1)
    assert len({FixedPoint(1, 2), FixedPoint(1, 2), FixedPoint(0, 0)}) == 2


def test_compute_params_fixtures():
    assert compute_params(((6,), (5, 5, 1)), 3, 3) == ClassParams(6, 1, 1, None, 1)
    assert compute_params(((4, 3, 2, 1), (3, 3, 1)), 3, 3) == ClassParams(1, 4, 1, None, 1)
    assert compute_params(((6, 1), (5, 5)), 3, 3) == ClassParams(1, 1, 1, None, 1)
    with pytest.raises(ParameterError):
        compute_params(((7,), (5, 5, 1)), 3, 3)


def test_step1_move():
    assert step1_move(((), (5, 4, 1)), 3, 3) == ((5,), (4, 1))
    assert step1_move(((7,), (5, 5, 1)), 3, 3) == ((), (7, 5, 5, 1))
    assert step1_move(step1_move(((), (5, 4, 1)), 3, 3), 3, 3) == ((), (5, 4, 1))
    with pytest.raises(ParameterError):
        step1_move(((6,), (5, 5, 1)), 3, 3)


def test_apply_map_fixtures():
    # the two chain rows that are stable across the source formulas
    assert apply_map(((6, 1), (5, 5)), 3, 3) == ((6,), (6, 5))
    assert apply_map(((6,), (6, 5)), 3, 3) == ((6, 1), (5, 5))
    assert apply_map(((4, 3, 2, 1), (3, 3, 1)), 3, 3) == ((4, 3, 2), (4, 3, 1))
    assert apply_map(((4, 3, 2), (4, 3, 1)), 3, 3) == ((4, 3, 2, 1), (3, 3, 1))
    # the first map applied to (6 | 5,5,1) by the formula (the worked
    # tables print a different, internally inconsistent image)
    assert apply_map(((6,), (5, 5, 1)), 3, 3) == ((5, 1), (5, 5, 1))
    assert apply_map(((5, 1), (5, 5, 1)), 3, 3) == ((6,), (5, 5, 1))
    assert apply_map(((5,), (5, 4, 3)), 3, 3) == ((5, 4), (4, 4))
    assert apply_map(((5, 4), (4, 4)), 3, 3) == ((5,), (5, 4, 3))
    with pytest.raises(ParameterError):
        apply_map(((7,), (5, 5, 1)), 3, 3)


def test_more_alpha_and_beta_rows():
    rows = [
        (((5, 3), (4, 4, 1)), ((4, 3, 1), (4, 4, 1))),
        (((5, 2), (4, 4, 2)), ((4, 2, 1), (4, 4, 2))),
        (((5, 2), (4, 4, 1, 1)), ((4, 2, 1), (4, 4, 1, 1))),
        (((5,), (4, 4, 2, 2)), ((4, 1), (4, 4, 2, 2))),
        (((5, 3, 1), (4, 4)), ((5, 3), (5, 4))),
        (((5, 2, 1), (4, 4, 1)), ((5, 2), (5, 4, 1))),
        (((5, 1), (4, 4, 2, 1)), ((5,), (5, 4, 2, 1))),
        (((5, 2, 1), (5, 4)), ((5, 2), (5, 5))),
        (((5, 1), (5, 4, 2)), ((5,), (5, 5, 2))),
        (((4, 3, 2, 1), (4, 3)), ((4, 3, 2), (4, 4))),
        (((4, 3, 1), (4, 3, 2)), ((4, 3), (4, 4, 2))),
        (((4, 3, 1), (4, 3, 1, 1)), ((4, 3), (4, 4, 1, 1))),
        (((4, 2, 1), (4, 3, 2, 1)), ((4, 2), (4, 4, 2, 1))),
    ]
    for src, dst in rows:
        assert involute_gordon(src, 3, 3) == dst, src
        assert involute_gordon(dst, 3, 3) == src, dst


def test_blocked_is_membership_of_the_extended_b():
    # the O(1) test reads the top window and the ones of (a1,) + B; it
    # must agree with the family test on every a1 >= B[0] it is asked
    cases = 0
    for k in range(2, 7):
        for a in range(1, k + 1):
            for w in range(19):
                for B in partitions.enumerate_family("B", k, a, w):
                    top = B[0] if B else 1
                    for a1 in range(top, top + 4):
                        want = not partitions._member((a1,) + B, "B", k, a)
                        assert _blocked(a1, B, k, a) == want, (a1, B, k, a)
                        cases += 1
    assert cases == 47980


def test_inline_step1_agrees_with_classify():
    # the kernel decides the step-1 moves without classifying; every pair
    # of P_{k,a} must get the image its _classify label names: the move's
    # crossing, or the template or map of its class (and step1_move and
    # apply_map, which dispatch to the kernel, must give the same)
    counts = {"b_to_a": 0, "a_to_b": 0, "blocked": 0, "empty": 0}
    for k in range(2, 7):
        for a in range(1, k + 1):
            for w in range(17):
                for pair in pairs_of_weight(k, a, w):
                    out = gordon._involute(pair, k, a)
                    label = gordon._classify(*pair, k, a)
                    if isinstance(label, Move):
                        A, B = pair
                        want = (((B[0],) + A, B[1:])
                                if label.direction == "b_to_a"
                                else (A[1:], (A[0],) + B))
                        assert out == want, (pair, k, a)
                        assert out == step1_move(pair, k, a)
                        counts[label.direction] += 1
                    elif isinstance(label, UClass):
                        want = (gordon._match_template(pair, k, a)
                                or gordon._apply(*pair, k, label.i, label.cls,
                                                 label.params.n))
                        assert out == want == apply_map(pair, k, a), (pair, k, a)
                        counts["blocked"] += 1
                    else:
                        assert out == label == FixedPoint(0, 0)
                        counts["empty"] += 1
    assert counts == {"b_to_a": 34041, "a_to_b": 34041, "blocked": 1108,
                      "empty": 20}


def test_fixed_point_templates():
    assert gordon_fixed_point(1, 1, 3, 3) == ((2,), (1, 1))
    assert gordon_fixed_point(2, 1, 3, 3) == ((1,), (1, 1))
    assert gordon_fixed_point(1, 1, 2, 1) == ((2,), (2,))
    assert gordon_fixed_point(1, 0, 4, 2) == ((), ())
    assert gordon_fixed_point(2, 2, 3, 2) == ((3, 2), (3, 2, 1))
    for family in (1, 2):
        for n in range(1, 5):
            for k in range(2, 6):
                for a in range(1, k + 1):
                    A, B = gordon_fixed_point(family, n, k, a)
                    assert partitions.is_gordon(B, k, a)
                    assert all(A[i] > A[i + 1] for i in range(len(A) - 1))
                    w = sum(A) + sum(B)
                    lin = 2 * (k - a) + 1
                    want = ((2 * k + 1) * n * n + (lin * n if family == 1 else -lin * n)) // 2
                    assert w == want
                    assert len(A) == n


def test_fixed_points_recognized():
    assert involute_gordon(((2,), (1, 1)), 3, 3) == FixedPoint(1, 1)
    assert involute_gordon(((1,), (1, 1)), 3, 3) == FixedPoint(2, 1)
    assert involute_gordon(((), ()), 4, 2) == FixedPoint(0, 0)
    assert involute_gordon(((3, 2), (3, 2, 1)), 3, 2) == FixedPoint(2, 2)
    for family in (1, 2):
        for n in range(1, 4):
            for k in range(2, 5):
                for a in range(1, k + 1):
                    pair = gordon_fixed_point(family, n, k, a)
                    assert involute_gordon(pair, k, a) == FixedPoint(family, n)


def test_fixed_gf_equals_theta():
    # against the templates on a grid: test_pipelines.py's
    # test_fixed_gf_is_the_signed_template_sum
    assert list(gordon_fixed_gf(2, 2, 7).coeffs) == [1, 0, -1, -1, 0, 0, 0, 0]
    assert gordon_fixed_gf(4, 1, 0) == series.TruncatedSeries.one(0)


def test_involution_laws_exhaustive():
    for k in range(2, 5):
        for a in range(1, k + 1):
            limit = 13
            fixed_signed = [0] * (limit + 1)
            for w in range(limit + 1):
                for pair in pairs_of_weight(k, a, w):
                    out = involute_gordon(pair, k, a)
                    if isinstance(out, FixedPoint):
                        fixed_signed[w] += sign(pair)
                        continue
                    assert sum(out[0]) + sum(out[1]) == w
                    assert (len(out[0]) - len(pair[0])) % 2 == 1
                    assert involute_gordon(out, k, a) == pair
            th = series.theta_sum(2 * k + 1, 2 * (k - a) + 1, limit)
            assert fixed_signed == list(th.coeffs), (k, a)


def test_global_signed_sum_cancels_to_theta():
    # sum of signs over all pairs of each weight equals the theta series,
    # independently of the involution plumbing
    k, a = 3, 2
    limit = 12
    total = [0] * (limit + 1)
    for w in range(limit + 1):
        for pair in pairs_of_weight(k, a, w):
            total[w] += sign(pair)
    assert total == list(series.theta_sum(7, 3, limit).coeffs)


def test_single_column_engine():
    fixed = [0] * 21
    for w in range(21):
        for A in partitions.enumerate_distinct(w):
            out = _involute_k1((A, ()))
            if isinstance(out, FixedPoint):
                fixed[w] += -1 if len(A) % 2 else 1
            else:
                assert _involute_k1(out) == (A, ())
    assert fixed == list(series.theta_sum(3, 1, 20).coeffs)


def test_templates_are_fixed_before_any_map_runs(monkeypatch):
    # a template is recognised as itself, so no map is tried on it: every
    # map, and the k = 1 pairing, is an _apply built of _shifted columns
    calls = []

    def recorder(name):
        real = getattr(gordon, name)

        def wrapped(*args):
            calls.append((name, args))
            return real(*args)
        monkeypatch.setattr(gordon, name, wrapped)

    for name in ("_apply", "_shifted"):
        recorder(name)
    for n in range(1, 13):
        for family in (1, 2):
            want = FixedPoint(family, n)
            assert _involute_k1(_fixed_pair(family, n, 1, 1)) == want
            for k in range(2, 7):
                for a in range(1, k + 1):
                    pair = gordon_fixed_point(family, n, k, a)
                    assert involute_gordon(pair, k, a) == want
                    assert apply_map(pair, k, a) == want
    assert calls == []


def blocked_pair(rng, k, a, w):
    """A seeded blocked pair of weight w: the top k-1 parts of B are T
    and T-1 (T at least once), the top part of A is T, or T+1 when B's
    top k-1 parts all equal T, and the other parts of both sides are
    drawn at random below them."""
    while True:
        T = rng.randint(3, max(3, w // k))
        top = rng.randint(1, k - 1)
        mult = {T: top, T - 1: k - 1 - top}
        a1 = T + (top == k - 1 and rng.random() < 0.5)
        left = w - a1 - T * top - (T - 1) * (k - 1 - top)
        if left < 0:
            continue
        budget = rng.randint(0, left)
        for v in range(T - 2, 0, -1):
            room = k - 1 - mult[v + 1] if v > 1 else min(a - 1, k - 1 - mult[2])
            mult[v] = rng.randint(0, max(0, min(room, budget // v)))
            budget -= v * mult[v]
        B = tuple(v for v in sorted(mult, reverse=True) for _ in range(mult[v]))
        rest = w - a1 - sum(B)
        if rest > a1 * (a1 - 1) // 2:
            continue
        A = [a1]
        for v in range(a1 - 1, 0, -1):
            # take v when the parts below v cannot make up the rest alone
            if rest > v * (v - 1) // 2 or (v <= rest and rng.random() < 0.5):
                A.append(v)
                rest -= v
        return (tuple(A), B)


def test_blocked_pairs_at_high_weight():
    # the maps build an image without checking it, so check it here, far
    # above the weights the exhaustive sweeps reach
    rng = random.Random(7)
    for k in range(2, 9):
        for w in (40, 80, 200):
            for _ in range(60):
                a = rng.randint(1, k)
                pair = blocked_pair(rng, k, a, w)
                assert sum(pair[0]) + sum(pair[1]) == w
                assert isinstance(classify(pair, k, a), UClass), pair
                out = involute_gordon(pair, k, a)
                if isinstance(out, FixedPoint):
                    assert gordon_fixed_point(*out, k, a) == pair
                    continue
                assert _pair_fault(out[0], out[1], k, a) is None, (pair, out)
                assert sum(out[0]) + sum(out[1]) == w
                assert (len(out[0]) - len(pair[0])) % 2 == 1
                assert involute_gordon(out, k, a) == pair


def test_list_pairs_map_as_tuple_pairs():
    # the validating entry points turn a pair into tuples once, so a pair
    # of lists maps exactly as the same pair of tuples
    for fn, pair, k, a in [
            (involute_gordon, ([9, 8, 5, 3, 1], [6, 2]), 3, 2),
            (step1_move, ([9, 8, 5, 3, 1], [6, 2]), 3, 2),
            (involute_gordon, ([6, 1], [5, 5]), 3, 3),
            (apply_map, ([6, 1], [5, 5]), 3, 3)]:
        got = fn(pair, k, a)
        assert got == fn((tuple(pair[0]), tuple(pair[1])), k, a)
        assert all(type(side) is tuple for side in got)
    assert involute_gordon(([6, 1], [5, 5]), 3, 3) == ((6,), (6, 5))


def test_invalid_pairs_rejected():
    for pair, message in [
            (((3, 3), ()), "A must be strictly decreasing: (3, 3)"),
            (((3, 0), ()), "A must have positive parts: (3, 0)"),
            (((), (1, 1, 1)), "B fails the family conditions: (1, 1, 1)")]:
        with pytest.raises(ParameterError) as info:
            involute_gordon(pair, 3, 3)
        assert str(info.value) == message
    with pytest.raises(ParameterError):
        involute_gordon(((2,), (1,)), 1, 1)  # k out of range
    with pytest.raises(ParameterError):
        involute_gordon(((1.5,), ()), 2, 2)  # parts must be integers
    with pytest.raises(ParameterError):
        gordon_fixed_point(3, 1, 3, 3)
    with pytest.raises(ParameterError):
        gordon_fixed_point(1, -1, 3, 3)
    with pytest.raises(ParameterError):
        gordon_fixed_point(0, 1, 3, 3)
