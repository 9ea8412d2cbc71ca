"""Tests for the parity-pipeline involutions: worked fixtures for the
triple encoding and the full maps, template fixed points, and exhaustive
law sweeps on the small parameter grid."""

import gc
import itertools
import random
import sys

import pytest
from test_gordon import blocked_pair

from qgordon import gordon, harness, partitions, pipelines, series
from qgordon.gordon import FixedPoint, UClass, classify, involute_gordon
from qgordon.partitions import ParameterError
from qgordon.pipelines import (
    ConsistencyError,
    PartitionTriple,
    canonical_fixed_form,
    canonicalize_fixed,
    check_pipeline,
    enumerate_ground,
    in_ground,
    inner_params,
    involute_pipeline,
    pipeline_e_factor,
    pipeline_fixed_gf,
    pipeline_fixed_triple,
    redistribute,
    to_triple,
    triple_sign,
    triple_weight,
    un_transform,
)

GRID = [
    ("EE", 2, 2), ("EE", 4, 2), ("EE", 4, 4),
    ("OO", 3, 1), ("OO", 3, 3), ("OO", 5, 3), ("OO", 5, 5),
    ("OE", 3, 2), ("OE", 5, 2), ("OE", 5, 4),
]


def test_check_pipeline():
    check_pipeline("EE", 4, 2)
    check_pipeline("OO", 3, 1)
    check_pipeline("OE", 5, 4)
    for pl, k, a in [("EE", 3, 2), ("EE", 4, 3), ("OO", 4, 3),
                     ("OO", 3, 2), ("OE", 4, 2), ("OE", 3, 3)]:
        with pytest.raises(ParameterError):
            check_pipeline(pl, k, a)
    with pytest.raises(ParameterError):
        check_pipeline("XX", 2, 2)
    with pytest.raises(ParameterError):
        check_pipeline("EE", 2, 4)  # a > k


def test_inner_params():
    assert inner_params(6, 6) == (3, 3)
    assert inner_params(2, 2) == (1, 1)
    assert inner_params(9, 9) == (4, 4)
    assert inner_params(3, 1) == (1, 0)
    assert inner_params(7, 6) == (3, 3)


def test_ground_membership():
    assert in_ground(((10, 8, 5), (5, 4, 4, 4, 4)), "EE", 6, 6)
    # odd part in A is fine for EE, not for OO/OE
    assert in_ground(((5,), ()), "EE", 6, 6)
    assert not in_ground(((5,), ()), "OO", 5, 5)
    assert not in_ground(((5,), ()), "OE", 5, 4)
    # B parity: even part with odd multiplicity leaves W
    assert not in_ground(((), (2,)), "EE", 4, 4)
    assert in_ground(((), (2, 2)), "EE", 4, 4)
    # Wbar instead pairs the odd parts
    assert not in_ground(((), (1,)), "OE", 5, 4)
    assert in_ground(((), (1, 1)), "OE", 5, 4)
    # window conditions still apply
    assert not in_ground(((), (1, 1, 1, 1)), "OO", 3, 3)
    # a pair is exactly two sides of integer parts
    for bad, pl, k, a in [(((),), "OO", 3, 3), ((("a",), ()), "EE", 2, 2)]:
        with pytest.raises(ParameterError):
            in_ground(bad, pl, k, a)


def test_enumerate_ground_counts():
    # sizes factor: distinct-A count times the B-family count
    for pl, k, a in GRID:
        ground = pipelines._SCOPES[pl]
        for w in range(8):
            got = len(enumerate_ground(pl, k, a, w))
            want = sum(
                len(partitions.enumerate_distinct(wa, ground.parity))
                * partitions.count_family(ground.family, k, a, w - wa)
                for wa in range(w + 1))
            assert got == want
    assert enumerate_ground("EE", 2, 2, 0) == [((), ())]
    with pytest.raises(ParameterError):
        enumerate_ground("EE", 2, 2, -1)


SCOPE_GRID = ([("gordon", k, a) for k in (2, 3, 4) for a in range(1, k + 1)]
              + GRID)


def _predicate(scope, pair, k, a):
    return pipelines._SCOPES[scope].fault(pair, k, a) is None


def _in_class(cls, pair):
    """Membership as a law sweep decides it for an image: one lookup in
    the weight class it built, and no member when the lookup raises."""
    try:
        return pair in cls
    except Exception:
        return False


def test_ground_contains_agrees_with_the_predicate():
    # the sweep's class membership is the ground predicate at that weight
    for scope, k, a in SCOPE_GRID:
        ground = pipelines._Ground(scope, k, a, 14)
        for w in range(15):
            cls = dict.fromkeys(ground.pairs(w), True)
            for A, B in cls:
                assert _in_class(cls, (A, B))
                assert _predicate(scope, (A, B), k, a)
                # well-formed pairs, mostly non-members: unsorted B, a
                # zero part, a repeated A part, an odd A part
                for bad in [(A, B[::-1]), (A, B + (0,)), (A + (0,), B),
                            (A + A[-1:], B), (A + (1,), B)]:
                    assert _in_class(cls, bad) == (
                        sum(bad[0]) + sum(bad[1]) == w
                        and _predicate(scope, bad, k, a))
                # malformed: lists, unhashable parts, another arity
                for bad in [(list(A), B), (A, list(B)), [A, B], (A, B, ()),
                            (A + ([1],), B), (A,), None]:
                    assert not _in_class(cls, bad)


def test_ground_classes_follow_enumerate_family():
    # one bucketed walk gives each weight's B list in enumerate_family's
    # order, and another each A list in enumerate_distinct's;
    # that order decides the counterexample a sweep reports first
    for scope, k, a in SCOPE_GRID:
        ground = pipelines._Ground(scope, k, a, 20)
        family = pipelines._SCOPES[scope].family
        parity = pipelines._SCOPES[scope].parity
        for n in range(21):
            assert (list(ground.Bs[n])
                    == partitions.enumerate_family(family, k, a, n))
            assert list(ground.As[n]) == partitions.enumerate_distinct(n, parity)
        assert len(ground.Bs) == len(ground.As) == 21


def test_class_sizes_count_the_walked_buckets():
    # the pair counts a sweep is budgeted by, from the counting DP and
    # Euler's product, against the buckets of the two walks
    for scope, k, a in SCOPE_GRID:
        ground = pipelines._Ground(scope, k, a, 20)
        assert pipelines._class_sizes(scope, k, a, 20) == [
            sum(len(ground.As[wa]) * len(ground.Bs[w - wa])
                for wa in range(w + 1)) for w in range(21)], (scope, k, a)


def test_over_budget_sweep_builds_no_ground(monkeypatch):
    def refuse(*args):
        raise AssertionError("a ground set was built")

    monkeypatch.setattr(pipelines, "_Ground", refuse)
    with pytest.raises(ParameterError, match="951351637 pairs"):
        harness.check_involution_laws("gordon", 3, 3, 80)


@pytest.fixture
def fresh_flows():
    """No flow built before the test, and none it built kept after it."""
    pipelines._flow.cache_clear()
    yield
    pipelines._flow.cache_clear()


def test_each_ground_enumerates_a_weight_once(monkeypatch, fresh_flows,
                                              serial):
    walks, lists = [], []
    real = partitions._walk_family

    def counted(family, k, a, lo, hi):
        walks.append((family, k, a, lo, hi))
        return real(family, k, a, lo, hi)

    real_distinct = partitions._walk_distinct

    def counted_distinct(parity, lo, hi):
        walks.append((parity, lo, hi))
        return real_distinct(parity, lo, hi)

    monkeypatch.setattr(partitions, "_walk_family", counted)
    monkeypatch.setattr(partitions, "_walk_distinct", counted_distinct)
    for name in ("enumerate_family", "enumerate_distinct"):
        monkeypatch.setattr(partitions, name,
                            lambda *args, name=name: lists.append(name))
    assert harness.check_involution_laws("OE", 5, 4, 21).passed
    # the sweep walks A and the family once each, to its top weight, and
    # calls neither public enumerator; the matching reads none of them
    assert walks == [("even", 0, 21), ("Wbar", 5, 4, 0, 21)]
    assert lists == []


def test_one_pair_maps_enumerate_nothing(monkeypatch, fresh_flows):
    calls = []
    monkeypatch.setattr(partitions, "enumerate_family",
                        lambda *args: calls.append(args))
    pair = ((10, 8, 5), (5, 4, 4, 4, 4))
    partner = involute_pipeline(pair, "EE", 6, 6)
    assert partner == ((10, 5), (5, 5, 5, 4, 4, 3, 3))
    assert involute_pipeline(partner, "EE", 6, 6) == pair
    assert harness.trace_orbit(pair, "EE", 6, 6).terminal == "partner"
    # a pair the route ladder leaves to the matching
    pair = ((20,), ())
    assert pipelines._flow("OE", 5, 4, 20).safe(pair) is None
    partner = involute_pipeline(pair, "OE", 5, 4)
    assert partner == ((), (10, 10))
    assert involute_pipeline(partner, "OE", 5, 4) == pair
    assert harness.trace_orbit(pair, "OE", 5, 4).terminal == "partner"
    # and at weight 60, which no sweep in the tests reaches
    pair = ((60,), ())
    assert pipelines._flow("OE", 5, 4, 60).safe(pair) is None
    partner = involute_pipeline(pair, "OE", 5, 4)
    assert partner == ((), (30, 30))
    assert involute_pipeline(partner, "OE", 5, 4) == pair
    partner = involute_gordon(((6, 1), (5, 5)), 3, 3)
    assert involute_gordon(partner, 3, 3) == ((6, 1), (5, 5))
    assert harness.trace_orbit(((6, 1), (5, 5)), "gordon", 3, 3).steps
    assert calls == []


def test_flows_are_kept_for_the_last_weights_only(fresh_flows, serial):
    assert harness.check_involution_laws("OO", 5, 5, 21).passed
    info = pipelines._flow.cache_info()
    assert info.currsize <= info.maxsize
    # an evicted flow is freed: the live ones are the cached ones, of
    # the last weights swept, and hold states of their own weight only
    gc.collect()
    flows = [f for f in gc.get_objects() if isinstance(f, pipelines._Flow)]
    assert len(flows) == info.currsize
    for f in flows:
        assert 21 - info.maxsize < f.weight <= 21
        for A, B in list(f.rcache) + list(f.match):
            assert sum(A) + sum(B) == f.weight


@pytest.mark.parametrize("pl,k,a", [("OE", 5, 4), ("OO", 5, 5)])
def test_evicting_a_flow_changes_no_partner(pl, k, a, fresh_flows):
    classes = [enumerate_ground(pl, k, a, w) for w in range(17)]
    want = {s: pipelines._involute_pipeline(s, pl, k, a)
            for c in classes for s in c}
    # one pair of each weight in turn: the flow of a weight is evicted
    # and built again mid-class, its components matched from new roots
    pipelines._flow.cache_clear()
    got = {s: pipelines._involute_pipeline(s, pl, k, a)
           for row in itertools.zip_longest(*classes)
           for s in row if s is not None}
    assert pipelines._flow.cache_info().misses > len(classes)
    assert got == want


def test_a_component_over_the_carry_budget_is_refused(monkeypatch,
                                                      fresh_flows):
    # OE (3, 2) ((200,), ()) has a residue component that grows without
    # bound in practice; the build must stop at its budget, not run on
    read = [0]
    real = pipelines._carry_candidates

    def counted(state, *rest):
        out = list(real(state, *rest))
        read[0] += len(out)
        assert read[0] <= 2 * pipelines._CARRY_BUDGET, "build ran on"
        return out

    monkeypatch.setattr(pipelines, "_carry_candidates", counted)
    # a pair of the same weight the route ladder pairs, so the flow the
    # refused pair meets is not empty
    assert involute_pipeline(((150, 50), ()), "OE", 3, 2) == ((50,), (75, 75))
    flow = pipelines._flow("OE", 3, 2, 200)
    rcache, match = dict(flow.rcache), dict(flow.match)
    assert rcache
    with pytest.raises(ConsistencyError, match=r"\(\(200,\), \(\)\)"):
        involute_pipeline(((200,), ()), "OE", 3, 2)
    assert pipelines._CARRY_BUDGET < read[0]
    # nothing of the refused build is kept: no match, and no route
    assert pipelines._flow("OE", 3, 2, 200) is flow
    assert flow.rcache == rcache and flow.match == match


def test_to_triple_fixtures():
    t = to_triple(((10, 8, 5), (5, 4, 4, 4, 4)), "EE", 6, 6)
    assert t == PartitionTriple((10, 8), (8, 8), (), (10,))
    t = to_triple(((10, 2), (4, 4, 4, 4, 4, 2, 2, 2, 1, 1)), "OE", 7, 6)
    assert t == PartitionTriple((10, 2), (8, 8, 4, 2), (4, 2), ())
    # EE keeps its odd single parts in the middle
    pair = ((7, 5, 2), (7, 5, 5, 3, 2, 2))
    t = to_triple(pair, "EE", 4, 4)
    assert t == PartitionTriple((2,), (5, 4, 3), (), (14, 10))
    assert un_transform(t, "EE") == pair
    for pl, k, a in GRID:
        assert to_triple(((), ()), pl, k, a) == PartitionTriple((), (), (), ())
    with pytest.raises(ParameterError):
        to_triple(((5,), ()), "OO", 3, 3)
    with pytest.raises(ParameterError):
        to_triple(((), (), ()), "OO", 3, 3)


def test_to_triple_merge_level():
    # merge pairs only; redistribution is a separate step
    B = (9,) + (7,) * 8 + (5,) * 8 + (3,) * 8 + (1,) * 8
    t = to_triple(((16, 14, 12, 10), B), "OO", 9, 9)
    assert t.B == (14,) * 4 + (10,) * 4 + (6,) * 4 + (2,) * 4
    assert t.D == (9,)
    assert t.E == ()


def test_round_trip_exhaustive():
    for pl, k, a in GRID:
        for w in range(13):
            for s in enumerate_ground(pl, k, a, w):
                t = to_triple(s, pl, k, a)
                assert un_transform(t, pl) == s
                assert triple_weight(t) == w
                # redistribution never disturbs the decoding
                if pl != "EE":
                    assert un_transform(redistribute(t, pl), pl) == s


def test_redistribute_fixture():
    C = (14,) * 4 + (10,) * 4 + (6,) * 4 + (2,) * 4
    t = PartitionTriple((16, 14, 12, 10), C, (9,), ())
    out = redistribute(t, "OO")
    assert out.B == (14, 14, 14, 10, 10, 10, 6, 6, 6, 2, 2, 2)
    assert out.D == (9, 7, 7, 5, 5, 3, 3, 1, 1)
    assert triple_weight(out) == triple_weight(t)
    # stable when every splittable half is already present
    t = PartitionTriple((10, 2), (8, 8, 4, 2), (4, 2), ())
    assert redistribute(t, "OE") == t
    # nothing of the splitting residue: unchanged
    t = PartitionTriple((), (8, 4), (1,), ())
    assert redistribute(t, "OO") == t
    with pytest.raises(ParameterError):
        redistribute(PartitionTriple((), (), (), ()), "EE")


def test_involute_worked_chains():
    x = ((10, 8, 5), (5, 4, 4, 4, 4))
    y = ((10, 5), (5, 5, 5, 4, 4, 3, 3))
    assert involute_pipeline(x, "EE", 6, 6) == y
    assert involute_pipeline(y, "EE", 6, 6) == x
    x = ((10, 2), (4, 4, 4, 4, 4, 2, 2, 2, 1, 1))
    y = ((10,), (5, 5, 4, 4, 4, 2, 2, 2, 1, 1))
    assert involute_pipeline(x, "OE", 7, 6) == y
    assert involute_pipeline(y, "OE", 7, 6) == x
    B = (9,) + (7,) * 8 + (5,) * 8 + (3,) * 8 + (1,) * 8
    assert involute_pipeline(((16, 14, 12, 10), B), "OO", 9, 9) == \
        FixedPoint(1, 4)
    for pl, k, a in GRID:
        assert involute_pipeline(((), ()), pl, k, a) == FixedPoint(0, 0)
    with pytest.raises(ParameterError):
        involute_pipeline(((3,), ()), "OO", 3, 3)


def test_fixed_templates():
    t = pipeline_fixed_triple("EE", 1, 1, 6, 6)
    assert t == PartitionTriple((4,), (2, 2), (), ())
    assert triple_weight(t) == 8
    t = pipeline_fixed_triple("OO", 1, 4, 9, 9)
    assert t.A == (16, 14, 12, 10)
    assert t.B == (14, 14, 14, 10, 10, 10, 6, 6, 6, 2, 2, 2)
    assert t.D == (7, 5, 3, 1)
    assert triple_weight(t) == 164
    for pl, k, a in GRID:
        if pl == "OO" and a == 1:
            with pytest.raises(ParameterError):
                pipeline_fixed_triple(pl, 1, 1, k, a)
            continue
        assert pipeline_fixed_triple(pl, 0, 0, k, a) == ((), (), (), ())
        for n in range(1, 5):
            w1 = triple_weight(pipeline_fixed_triple(pl, 1, n, k, a))
            w2 = triple_weight(pipeline_fixed_triple(pl, 2, n, k, a))
            assert w1 == (k + 1) * n * n + (k + 1 - a) * n
            assert w2 == (k + 1) * n * n - (k + 1 - a) * n
            assert w1 - w2 == 2 * (k + 1 - a) * n
            assert len(pipeline_fixed_triple(pl, 1, n, k, a).A) == n
    with pytest.raises(ParameterError):
        pipeline_fixed_triple("EE", 3, 1, 4, 4)
    with pytest.raises(ParameterError):
        pipeline_fixed_triple("EE", 0, 2, 4, 4)
    with pytest.raises(ParameterError):
        pipeline_fixed_triple("EE", 1, -1, 4, 4)


def test_template_index_rule_is_shared():
    # family 0 names the empty pair, exactly at n = 0, in every scope;
    # families 1 and 2 give it there too
    for scope, k, a in [("gordon", 3, 2), ("EE", 4, 4), ("OO", 3, 3),
                        ("OE", 3, 2)]:
        template = pipelines._SCOPES[scope].template
        assert template(0, 0, k, a) == template(1, 0, k, a)
        assert template(0, 0, k, a) == template(2, 0, k, a)
        for family, n in [(0, 1), (0, -1), (3, 0), (1, -1), (1, 0.0)]:
            with pytest.raises(ParameterError):
                template(family, n, k, a)


def test_fixed_templates_are_fixed():
    # each template triple decodes to a ground pair that the full map
    # reports as fixed with the same index
    for pl, k, a in GRID:
        if pl == "OO" and a == 1:
            continue
        for family in (1, 2):
            for n in (1, 2):
                t = pipeline_fixed_triple(pl, family, n, k, a)
                pair = un_transform(t, pl)
                assert in_ground(pair, pl, k, a)
                assert involute_pipeline(pair, pl, k, a) == FixedPoint(family, n)
                assert canonicalize_fixed(t, pl, k, a) == (family, n, ())
    # OO/OE templates with free parts in D, up to k = 13 where the blocks
    # are widest: the route reads each off the reduced map as fixed, and
    # canonicalize_fixed gives back its index and free parts
    for pl, k, a in [("OO", k, a) for k in range(3, 14, 2)
                     for a in range(3, k + 1, 2)] + [
                     ("OE", k, a) for k in range(3, 14, 2)
                     for a in range(2, k + 1, 2)]:
        frees = [v for v in range(1, 12) if pipelines._is_free_part(v, pl)]
        Es = [()] + [E for r in (1, 2)
                     for E in itertools.combinations(frees[::-1], r)]
        for family, n in itertools.product((1, 2), range(1, 5)):
            A, mid, D, _ = pipeline_fixed_triple(pl, family, n, k, a)
            for E in Es:
                pair = un_transform((A, mid, D + E, ()), pl)
                assert involute_pipeline(pair, pl, k, a) == FixedPoint(
                    family, n), (pl, k, a, pair)
                assert canonicalize_fixed(to_triple(pair, pl, k, a), pl, k,
                                          a) == (family, n, E), (pl, k, a, E)


def test_canonicalize_fixed_fixture():
    C = (14, 14, 14, 10, 10, 10, 6, 6, 6, 2, 2, 2)
    t = PartitionTriple((16, 14, 12, 10), C, (9, 7, 7, 5, 5, 3, 3, 1, 1), ())
    assert canonicalize_fixed(t, "OO", 9, 9) == (1, 4, (9, 7, 5, 3, 1))
    # the middle's order is free, as it is for un_transform: this triple
    # and criterion 7's to_triple triple, each with its middle reversed
    B = (9,) + (7,) * 8 + (5,) * 8 + (3,) * 8 + (1,) * 8
    u = to_triple(((16, 14, 12, 10), B), "OO", 9, 9)
    for r in (t, u):
        r = r._replace(B=r.B[::-1])
        assert canonicalize_fixed(r, "OO", 9, 9) == (1, 4, (9, 7, 5, 3, 1))
    form = canonical_fixed_form("OO", 1, 4, (9, 7, 5, 3, 1), 9, 9)
    assert form.A == (16, 14, 12, 10)
    assert form.B == (7,) * 7 + (5,) * 7 + (3,) * 7 + (1,) * 7
    assert form.E == (9, 7, 5, 3, 1)
    assert triple_weight(form) == 189
    # EE fixed triples canonicalize in place
    t = PartitionTriple((4,), (2, 2), (), ())
    assert canonicalize_fixed(t, "EE", 6, 6) == (1, 1, ())
    assert canonical_fixed_form("EE", 1, 1, (), 6, 6) == t
    # E given in any order gives its free parts in descending order
    for E in [(10, 6), (6, 10)]:
        assert canonicalize_fixed(t[:3] + (E,), "EE", 6, 6) == (1, 1, (10, 6))
    with pytest.raises(ParameterError):
        canonicalize_fixed(PartitionTriple((2,), (), (), ()), "EE", 4, 4)
    with pytest.raises(ParameterError):
        canonical_fixed_form("OO", 1, 1, (2,), 3, 3)
    with pytest.raises(ParameterError):
        canonical_fixed_form("EE", 1, 1, (4,), 2, 2)


def test_canonicalize_extracts_duplicated_steps():
    # a duplicated staircase step contributes one copy to E
    base = pipeline_fixed_triple("OO", 1, 2, 5, 5)
    D = tuple(sorted(base.D + (3, 9), reverse=True))
    t = PartitionTriple(base.A, base.B, D, ())
    family, n, E = canonicalize_fixed(t, "OO", 5, 5)
    assert (family, n) == (1, 2)
    assert E == (9, 3)
    form = canonical_fixed_form("OO", family, n, E, 5, 5)
    assert triple_weight(form) == triple_weight(t)
    assert un_transform(t, "OO")[1] == tuple(sorted(
        [c // 2 for c in t.B for _ in (0, 1)] + list(D), reverse=True))
    # a D given out of order gives its free parts in descending order
    assert canonicalize_fixed(((2,), (), (1, 1, 9), ()), "OO", 3, 3) == (
        2, 1, (9, 1))


def test_fixed_set_agrees_with_the_map():
    # a ground pair canonicalizes exactly when the map reports it fixed,
    # with the same index; an EE pair with an odd part of A below its
    # top, such as (2, 2) ((6, 5), ()), is no fixed configuration
    fixed = 0
    for pl, k, a in GRID:
        if pl == "OO" and a == 1:
            continue
        for w in range(17):
            for s in enumerate_ground(pl, k, a, w):
                out = involute_pipeline(s, pl, k, a)
                try:
                    res = canonicalize_fixed(to_triple(s, pl, k, a), pl, k, a)
                except ParameterError:
                    assert not isinstance(out, FixedPoint), s
                    continue
                assert isinstance(out, FixedPoint), s
                assert res[:2] == tuple(out), s
                fixed += 1
    assert fixed == 413


def test_ground_lookup_refuses_a_fixed_point():
    # a FixedPoint is a 2-tuple, the shape of a pair, but no pair
    for pl, k, a in GRID:
        ground = pipelines._Ground(pl, k, a, 3)
        for w in (0, 3):
            cls = dict.fromkeys(ground.pairs(w), True)
            assert not _in_class(cls, FixedPoint(0, 0))
            assert not _in_class(cls, FixedPoint(1, 2))
            assert _in_class(cls, ((), ())) == (w == 0)


def test_canonicalize_refuses_triples_that_encode_no_pair():
    # un_transform refuses the E part, so the triple decodes to no pair;
    # canonicalization must not drop it and report (2, 1, ())
    t = ((2,), (), (1,), (99,))
    with pytest.raises(ParameterError):
        un_transform(t, "OO")
    with pytest.raises(ParameterError):
        canonicalize_fixed(t, "OO", 3, 3)
    assert canonicalize_fixed(t[:3] + ((),), "OO", 3, 3) == (2, 1, ())
    # the merge leaves only odd parts single in OO, only even ones in OE
    with pytest.raises(ParameterError):
        canonicalize_fixed(((2,), (), (2, 1), ()), "OO", 3, 3)
    with pytest.raises(ParameterError):
        canonicalize_fixed(((4,), (), (3, 2), ()), "OE", 3, 2)
    assert canonicalize_fixed(((4,), (), (2,), ()), "OE", 3, 2) == (1, 1, ())
    # an EE free part is an odd part A shares with B, doubled: E's 4 is no
    # such part, and two 6's would put 3 in A twice
    for E in [(4,), (6, 6)]:
        with pytest.raises(ParameterError, match="encodes no EE pair"):
            canonicalize_fixed(((4,), (2, 2), (), E), "EE", 6, 6)


def test_matching_needs_no_call_stack_per_path_step():
    # the OE (3, 2) weight-24 residue has augmenting paths 52 states
    # deep; with every route cached, the matching must fit in a call
    # stack 25 frames above the caller's
    flow = pipelines._Flow("OE", 3, 2, 24)
    residue = [s for s in pipelines._Ground("OE", 3, 2, 24).pairs(24)
               if flow.safe(s) is None]
    frame, depth = sys._getframe(), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 25)
    try:
        for s in residue:
            if s not in flow.match:
                flow._match_component(s)
    finally:
        sys.setrecursionlimit(limit)
    matched = {u: v for u, v in flow.match.items() if v is not None}
    assert len(matched) == 166
    for u, v in matched.items():
        assert matched[v] == u


# every OO and OE (k, a) with k = 3, 5, 7
OO_OE_POINTS = ([("OO", k, a) for k in (3, 5, 7) for a in range(1, k + 1, 2)]
                + [("OE", k, a) for k in (3, 5, 7) for a in range(2, k + 1, 2)])


# states the route ladder leaves to the matching on each OO and OE grid
# point, to weight 20; a route rule that pairs more of them lowers its
# count (EE maps as a product, with no ladder)
RESIDUE_20 = {
    ("OO", 3, 1): 213, ("OO", 3, 3): 384, ("OO", 5, 3): 350,
    ("OO", 5, 5): 396,
    ("OE", 3, 2): 224, ("OE", 5, 2): 210, ("OE", 5, 4): 282,
}


@pytest.mark.parametrize("pl,k,a", RESIDUE_20)
def test_route_ladder_residue(pl, k, a):
    ground = pipelines._Ground(pl, k, a, 20)
    unpaired = 0
    for w in range(21):
        flow = pipelines._Flow(pl, k, a, w)
        unpaired += sum(flow.safe(s) is None for s in ground.pairs(w))
    assert unpaired == RESIDUE_20[(pl, k, a)]


# the OO/OE failure frontier: each point's counterexample in the sweep
# to weight 40, None where it passes.  Each failure is a pair the
# matching leaves unpaired; a map that pairs it edits its row.  CI
# sweeps every row, this test the failing ones, which stop early
FRONTIER_40 = {
    ("OO", 3, 1): None, ("OO", 3, 3): ("map", ((8, 6, 4), (3,)), None),
    ("OO", 5, 1): None, ("OO", 5, 3): ("map", ((30,), (3,)), None),
    ("OO", 5, 5): ("map", ((26, 4, 2), (1,)), None),
    ("OO", 7, 1): None, ("OO", 7, 3): None, ("OO", 7, 5): None,
    ("OO", 7, 7): None,
    ("OE", 3, 2): ("map", ((16, 14, 6), ()), None),
    ("OE", 5, 2): None, ("OE", 5, 4): None,
    ("OE", 7, 2): None, ("OE", 7, 4): None, ("OE", 7, 6): None,
}


@pytest.mark.parametrize("pl,k,a", [p for p in FRONTIER_40 if FRONTIER_40[p]])
def test_frontier_failures(pl, k, a):
    r = harness.check_involution_laws(pl, k, a, 40)
    assert (r.status, r.counterexample) == ("fail", FRONTIER_40[(pl, k, a)])


def test_ladder_local_tests_equal_the_ground_predicate():
    # the two crossings change B by two equal parts and are tested
    # locally: an up-move image is a ground pair, and a down-move image
    # is taken exactly when it is one.  A down move the local test
    # refuses routes to the sector, whose image is trusted untested: it
    # is a ground pair, a fixed point, or None, where the sector is out
    # of scope or the reduced map's fixed point is none of the pipeline's.
    # A fixed state takes no crossing: the up move does not apply, and
    # the down-move image leaves the ground set
    counts = {"up": 0, "down": 0, "sector": 0, "none": 0, "fixed": 0}
    for pl, k, a in OO_OE_POINTS:
        scope = pipelines._SCOPES[pl]

        def fault(pair):
            return gordon._pair_fault(*pair, k, a, scope.parity, scope.family)

        ground = pipelines._Ground(pl, k, a, 20)
        for w in range(21):
            for A, B in ground.pairs(w):
                out = pipelines._route_triple((A, B), pl, k, a)
                mid, D = pipelines._rho(*pipelines._merge_pairs(B), pl)
                a1 = A[0] if A else 0
                up = bool(mid) and mid[0] > a1
                if up:
                    Y = un_transform(((mid[0],) + A, mid[1:], D, ()), pl)
                elif A:
                    Y = un_transform((A[1:], mid + (a1,), D, ()), pl)
                if isinstance(out, FixedPoint):
                    assert not up, (pl, k, a, A, B)
                    assert not A or fault(Y) is not None, (pl, k, a, A, B)
                    counts["fixed"] += 1
                    continue
                if up:
                    assert out == Y, (pl, k, a, A, B)
                    counts["up"] += 1
                elif A:
                    if fault(Y) is None:
                        assert out == Y, (pl, k, a, A, B)
                        counts["down"] += 1
                    else:
                        counts["none" if out is None else "sector"] += 1
                assert out is None or fault(out) is None, (pl, k, a, A, B, out)
    assert counts == {"up": 5624, "down": 8512, "sector": 803, "none": 611,
                      "fixed": 1138}


def test_carry_moves_are_symmetric():
    # every ground candidate of a ground pair lists that pair among its
    # own candidates, so the matching can stay inside one component
    for pl, k, a in RESIDUE_20:
        single = pipelines._single_parity(pl)
        for w in range(17):
            for s in enumerate_ground(pl, k, a, w):
                for Y in pipelines._carry_candidates(s, single):
                    if in_ground(Y, pl, k, a):
                        assert s in set(pipelines._carry_candidates(
                            Y, single)), (s, Y)


def test_carry_candidates_list_each_image_once():
    # at x = 2 the x / 2x-1 fusion is the part-2 move on a B part 1 or
    # 3, so it is built once, and a component build charges it once
    # against the carry budget
    cands = list(pipelines._carry_candidates(((8,), (3,)), 1))
    assert cands == [((), (4, 4, 3)), ((8, 2), (1,)), ((6, 2), (3,))]
    for pl, k, a in OO_OE_POINTS:
        single = pipelines._single_parity(pl)
        ground = pipelines._Ground(pl, k, a, 16)
        for w in range(17):
            for s in ground.pairs(w):
                cands = list(pipelines._carry_candidates(s, single))
                assert len(cands) == len(set(cands)), (pl, k, a, s)


def _skipped_carry_images(state, family):
    """The images of the carry clauses _carry_candidates does not build
    for family, built as the clauses would: in W both whole-part
    crossings and the halving of a part 1 mod 4, in Wbar the x / x-1
    fusion, every halving and an odd part crossing whole to A."""
    A, B = state

    def a_with(x):
        return tuple(sorted(A + (x,), reverse=True))

    def b_with(take, give):
        out = list(B)
        for v in take:
            out.remove(v)
        return tuple(sorted(out + list(give), reverse=True))

    # a clause adds no part that A already has
    halved = [v for v in set(B) if v % 2 and v >= 3
              and (family == "Wbar" or v % 4 == 1) and (v + 1) // 2 not in A]
    crossing = [v for v in set(B) if (family == "W" or v % 2) and v not in A]
    images = [(a_with((v + 1) // 2), b_with((v,), ((v - 1) // 2,)))
              for v in halved]
    images += [(a_with(v), b_with((v,), ())) for v in crossing]
    if family == "W":
        images += [(tuple(y for y in A if y != x), b_with((), (x,)))
                   for x in A]
    else:
        images += [(tuple(y for y in A if y != x),
                    b_with((x - 1,), (2 * x - 1,)))
                   for x in A if x - 1 in B]
    return images


def test_skipped_carry_clauses_leave_the_ground_set():
    # _carry_candidates builds no clause whose image always leaves the
    # ground set: A's parts are even, and W pairs up B's even parts,
    # Wbar its odd ones.  Dropping them changes no matching, since only
    # ground states join a component
    built = 0
    for pl, k, a in OO_OE_POINTS:
        family = pipelines._SCOPES[pl].family
        ground = pipelines._Ground(pl, k, a, 18)
        for w in range(19):
            for s in ground.pairs(w):
                for Y in _skipped_carry_images(s, family):
                    assert not in_ground(Y, pl, k, a), (pl, k, a, s, Y)
                    built += 1
    assert built == 25123


def test_a_middle_that_tops_a_is_never_fixed():
    # the route ladder moves the middle's top part up to A before it
    # looks for a fixed triple, which is exact because no fixed triple's
    # redistributed middle tops its A
    topped = 0
    for pl, k, a in OO_OE_POINTS:
        if a == 1 and pl == "OO":
            continue
        ground = pipelines._Ground(pl, k, a, 18)
        for w in range(19):
            for A, B in ground.pairs(w):
                mid, D = pipelines._rho(*pipelines._merge_pairs(B), pl)
                if mid and mid[0] > (A[0] if A else 0):
                    with pytest.raises(ParameterError, match="not a fixed"):
                        canonicalize_fixed((A, mid, D, ()), pl, k, a)
                    topped += 1
    assert topped == 3134


EE_POINTS = [(k, a) for k in (2, 4, 6, 8) for a in range(2, k + 1, 2)]


def test_ee_split_and_join():
    # B in W_{k,a} splits into O, its parts of odd multiplicity, distinct
    # and odd, and G, half its pairs, in B_{k/2,a/2}; O + G + G is B, so
    # |W_{k,a}(n)| is the convolution of the distinct-odd counts with
    # the B_{k/2,a/2} counts at n/2
    N = 30
    odd = [len(partitions.enumerate_distinct(n, "odd")) for n in range(N + 1)]
    for k, a in EE_POINTS:
        kk, aa = k // 2, a // 2
        half = (partitions.family_counts("B", kk, aa, N // 2) if kk >= 2
                else [1] + [0] * (N // 2))
        for n in range(N + 1):
            W = partitions.enumerate_family("W", k, a, n)
            for B in W:
                C, O = pipelines._merge_pairs(B)
                G = tuple(c // 2 for c in C)
                assert len(set(O)) == len(O) and all(v % 2 for v in O), B
                assert partitions._member(G, "B", kk, aa), B
                assert tuple(sorted(O + G + G, reverse=True)) == B
            assert len(W) == sum(odd[n - 2 * j] * half[j]
                                 for j in range(n // 2 + 1)), (k, a, n)


def _involute_ee_merge_first(pair, k, a):
    """The EE map as first written: B split into O and G by counting
    each size, then the toggle on A's odd parts against O, then the
    half map on G."""
    A, B = pair
    count = {v: B.count(v) for v in B}
    O = tuple(v for v in count if count[v] % 2)
    G = tuple(v for v in count for _ in range(count[v] // 2))
    odd = set(O).symmetric_difference(x for x in A if x % 2)
    if odd:
        x = max(odd)
        if x in A:
            return (tuple(v for v in A if v != x),
                    tuple(sorted(B + (x,), reverse=True)))
        rest = list(B)
        rest.remove(x)
        return tuple(sorted(A + (x,), reverse=True)), tuple(rest)
    half = (tuple(x // 2 for x in A if x % 2 == 0), G)
    out = gordon._involute(half, k // 2, a // 2)
    if isinstance(out, FixedPoint):
        return out
    Ah, G2 = out
    return (tuple(sorted(O + tuple(2 * x for x in Ah), reverse=True)),
            tuple(sorted(O + G2 + G2, reverse=True)))


def test_ee_toggle_first_equals_merge_first():
    # _involute_ee finds the differing odd parts with one toggle over A
    # and B and merges B only on the half-map branch.  That branch keeps
    # A's odd parts, and the toggle moves one of them
    def odd(A):
        return {x for x in A if x % 2}

    pairs = halves = 0
    for k, a in [(2, 2), (4, 2), (4, 4), (6, 4), (6, 6)]:
        ground = pipelines._Ground("EE", k, a, 20)
        for w in range(21):
            for pair in ground.pairs(w):
                want = _involute_ee_merge_first(pair, k, a)
                assert pipelines._involute_ee(pair, k, a) == want, pair
                pairs += 1
                halves += (isinstance(want, FixedPoint)
                           or odd(want[0]) == odd(pair[0]))
    assert (pairs, halves) == (27286, 2896)


def _odd_parts(rng, budget):
    """Seeded distinct odd parts summing to at most budget."""
    parts = []
    for v in range(budget - 1 + budget % 2, 0, -2):
        if v <= budget and rng.random() < 0.3:
            parts.append(v)
            budget -= v
    return tuple(parts)


def _distinct_parts(rng, n):
    """A seeded partition of n into distinct parts."""
    parts = []
    for v in range(n, 0, -1):
        # take v when the parts below v cannot make up the rest alone
        if n > v * (v - 1) // 2 or (v <= n and rng.random() < 0.3):
            parts.append(v)
            n -= v
    return tuple(parts)


def test_ee_pairs_at_high_weight():
    # the EE map builds an image without checking it, so check it here,
    # far above the weights the exhaustive sweeps reach.  A pair is built
    # from its factors: B joins a distinct odd O with the G of a halved
    # pair (Ah, G), blocked at (k/2, a/2) when k >= 4, and A's odd parts
    # are O (the Gordon factor acts) or, for about half the pairs, drawn
    # apart from it (the toggle acts)
    rng = random.Random(7)
    blocked = 0
    for k, a in [(2, 2), (4, 2), (4, 4), (6, 4)]:
        kk, aa = k // 2, a // 2
        for w in (40, 80, 200):
            for _ in range(40):
                O = _odd_parts(rng, rng.randint(0, w // 4))
                Ao = O if rng.random() < 0.5 else _odd_parts(rng, w // 4)
                rest = w - sum(O) - sum(Ao)
                if rest % 2:
                    Ao = O
                    rest = w - 2 * sum(O)
                if kk >= 2:
                    Ah, G = blocked_pair(rng, kk, aa, rest // 2)
                    assert isinstance(classify((Ah, G), kk, aa), UClass)
                    blocked += Ao == O
                else:
                    Ah, G = _distinct_parts(rng, rest // 2), ()
                pair = (tuple(sorted(Ao + tuple(2 * x for x in Ah),
                                     reverse=True)),
                        tuple(sorted(O + G + G, reverse=True)))
                assert in_ground(pair, "EE", k, a), pair
                assert sum(pair[0]) + sum(pair[1]) == w
                out = involute_pipeline(pair, "EE", k, a)
                if isinstance(out, FixedPoint):
                    t = to_triple(pair, "EE", k, a)
                    assert canonicalize_fixed(t, "EE", k, a)[:2] == out
                    continue
                assert in_ground(out, "EE", k, a), (pair, out)
                assert sum(out[0]) + sum(out[1]) == w
                assert (len(out[0]) - len(pair[0])) % 2 == 1
                assert involute_pipeline(out, "EE", k, a) == pair
    assert blocked > 100


def test_ee_reaches_no_ladder_and_no_matching(monkeypatch, serial):
    # EE maps as a product: no flow is built, no state routed, and no
    # carry move read
    calls = []
    for name in ("_flow", "_route_triple", "_carry_candidates"):
        real = getattr(pipelines, name)
        monkeypatch.setattr(pipelines, name,
                            lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    assert harness.check_involution_laws("EE", 4, 4, 21).passed
    assert calls == []


def test_fixed_gf_is_the_signed_template_sum():
    # every scope's fixed-point series (a theta series, times the
    # free-part factor for a pipeline) is the signed sum over its
    # templates, each built part by part and weighed, on every valid
    # (k, a) with k <= 7; OO at a = 1 has no templates
    N, points = 60, 0
    for scope, rules in pipelines._SCOPES.items():
        for k in range(2, 8):
            for a in range(1, k + 1):
                try:
                    rules.check(k, a)
                except ParameterError:
                    continue
                if (scope, a) == ("OO", 1):
                    continue
                signed = [1] + [0] * N      # the empty core
                for family in (1, 2):
                    for n in itertools.count(1):
                        cfg = rules.template(family, n, k, a)
                        w = sum(map(sum, cfg))
                        if w > N:
                            break
                        signed[w] += (-1) ** len(cfg[0])
                factor = (series.TruncatedSeries.one(N) if scope == "gordon"
                          else pipeline_e_factor(scope, N))
                assert rules.fixed_gf(k, a, N) == series.mul(
                    factor, series.TruncatedSeries(signed)), (scope, k, a)
                points += 1
    assert points == 45


def test_fixed_gf_matches_products():
    # explicit small case: core 1 - q^2 - q^4 at this truncation
    got = pipeline_fixed_gf("EE", 2, 2, 6)
    core = series.TruncatedSeries([1, 0, -1, 0, -1, 0, 0])
    assert got == series.mul(series.poch_inf(2, 4, 6), core)
    assert pipeline_fixed_gf("OO", 3, 3, 0) == series.TruncatedSeries.one(0)


def test_involution_laws_swept():
    # the four laws plus the fixed-point generating function, checked
    # exhaustively on every grid point up to weight 14
    W = 14
    for pl, k, a in GRID:
        fixed = [0] * (W + 1)
        for w in range(W + 1):
            for s in enumerate_ground(pl, k, a, w):
                r = involute_pipeline(s, pl, k, a)
                if isinstance(r, FixedPoint):
                    fixed[w] += -1 if len(s[0]) % 2 else 1
                    continue
                assert sum(r[0]) + sum(r[1]) == w
                assert (len(s[0]) + len(r[0])) % 2 == 1
                assert involute_pipeline(r, pl, k, a) == s
        want = pipeline_fixed_gf(pl, k, a, W)
        assert series.TruncatedSeries(fixed) == want
        # signed ground-set sum collapses to the same series
        par = series.poch_inf(1, 1, W) if pl == "EE" else series.poch_inf(2, 2, W)
        fam = series.family_gf(pipelines._SCOPES[pl].family, k, a, W)
        assert series.mul(par, fam) == want


def test_a1_sector_has_no_templates():
    # fixed configurations exist but carry no (family, n) index
    found = 0
    for w in range(10):
        for s in enumerate_ground("OO", 3, 1, w):
            r = involute_pipeline(s, "OO", 3, 1)
            if isinstance(r, FixedPoint):
                assert r == FixedPoint(0, 0)
                found += 1
    assert found > 1
    # canonicalization is refused: there is no template index
    with pytest.raises(ParameterError):
        canonicalize_fixed(PartitionTriple((), (), (), ()), "OO", 3, 1)


def test_triple_sign():
    assert triple_sign(PartitionTriple((10, 8), (8, 8), (), (10,)), "EE") == -1
    assert triple_sign(PartitionTriple((10, 8), (8, 8), (), ()), "EE") == 1
    assert triple_sign(PartitionTriple((16, 14, 12, 10), (), (), (9,)), "OO") == 1
    assert triple_sign(PartitionTriple((2,), (), (), ()), "OE") == -1
    for bad in ("ee", "XX", None):
        with pytest.raises(ParameterError):
            triple_sign(PartitionTriple((2,), (), (), ()), bad)


# The literal per-pipeline tables the derivations replaced, kept as the
# reference they must reproduce.
_OLD_LEFTOVER_PARITY = {"EE": 1, "OO": 1, "OE": 0}
_OLD_SPLIT_RESIDUE = {"OO": 2, "OE": 0}


def _old_staircase(pipeline, family, n):
    if pipeline == "EE" or n == 0:
        return ()
    if pipeline == "OO":
        return tuple(range(2 * n - 1, 0, -2))
    if family == 1:
        return tuple(range(2 * n, 0, -2))
    return tuple(range(2 * n - 2, 0, -2))


def _old_free_shape(pipeline, v):
    return not ((pipeline == "EE" and v % 4 != 2)
                or (pipeline == "OO" and v % 2 == 0)
                or (pipeline == "OE" and v % 2))


def test_derived_parities_match_the_old_tables():
    for pl in pipelines.PIPELINES:
        assert pipelines._single_parity(pl) == _OLD_LEFTOVER_PARITY[pl]
    for pl, res in _OLD_SPLIT_RESIDUE.items():
        assert 2 * pipelines._single_parity(pl) == res
        # a part of that residue splits when its half is absent from D
        c = 4 + res
        assert pipelines._rho((c,), (), pl) == ((), (c // 2, c // 2))
        assert pipelines._rho((c + 2,), (), pl) == ((c + 2,), ())


def test_derived_staircase_matches_the_old_ranges():
    for pl, k, a in [("EE", 4, 4), ("OO", 5, 3), ("OE", 5, 4)]:
        for family in (1, 2):
            for n in range(1, 13):
                t = pipeline_fixed_triple(pl, family, n, k, a)
                assert t.D == _old_staircase(pl, family, n)


def test_derived_free_shape_matches_the_old_branches():
    for pl, k, a in [("EE", 4, 4), ("OO", 3, 3), ("OE", 3, 2)]:
        for v in range(1, 41):
            assert pipelines._is_free_part(v, pl) == _old_free_shape(pl, v)
            try:
                canonical_fixed_form(pl, 1, 1, (v,), k, a)
                ok = True
            except ParameterError:
                ok = False
            assert ok == _old_free_shape(pl, v)


TRIPLE_CALLS = {
    "triple_weight": lambda t: triple_weight(t),
    "triple_sign": lambda t: triple_sign(t, "OO"),
    "un_transform": lambda t: un_transform(t, "OO"),
    "redistribute": lambda t: redistribute(t, "OO"),
    "canonicalize_fixed": lambda t: canonicalize_fixed(t, "OO", 3, 3),
}


@pytest.mark.parametrize("call", sorted(TRIPLE_CALLS))
def test_malformed_triples_rejected(call):
    # a triple is exactly four sides of integer parts, read once by
    # partitions._as_sides: another arity or a part that is no integer
    # (even 4.0) is a ParameterError, not an unpacking error or a result
    for bad in [(1, 2), ((4,), (), ()), ((4,), (), (), (), ()), None, 7,
                ((2.5,), (), (), ()), ((4.0,), (), (), ()),
                ((4,), ("2",), (), ()), ((4,), (), ([1],), ())]:
        with pytest.raises(ParameterError):
            TRIPLE_CALLS[call](bad)
    # a well-formed triple given as lists: OO (3, 3)'s template of index 1
    TRIPLE_CALLS[call]([[4], [], [1], []])


def test_canonical_fixed_form_reads_free_parts_as_integers():
    assert canonical_fixed_form("OO", 1, 1, [3], 3, 3).E == (3,)
    for E in [(3.0,), ("3",), (None,), 3]:
        with pytest.raises(ParameterError):
            canonical_fixed_form("OO", 1, 1, E, 3, 3)


def test_un_transform_shape_errors():
    with pytest.raises(ParameterError):
        un_transform(PartitionTriple((), (), (1,), ()), "EE")
    with pytest.raises(ParameterError):
        un_transform(PartitionTriple((), (), (), (4,)), "EE")
    with pytest.raises(ParameterError):
        un_transform(PartitionTriple((), (3,), (), ()), "OO")
    with pytest.raises(ParameterError):
        un_transform(PartitionTriple((), (), (), (2,)), "OE")


def _sides_to(top):
    """Every four-side tuple of partitions of total weight at most top."""
    parts = [partitions.enumerate_family("B", top + 1, top + 1, n)
             for n in range(top + 1)]
    for ws in itertools.product(range(top + 1), repeat=4):
        if sum(ws) <= top:
            yield from itertools.product(*(parts[w] for w in ws))


def _settled(t, pl):
    A, mid, D, E = t
    if pl != "EE":
        mid, D = pipelines._rho(mid, D, pl)
    return tuple(tuple(sorted(side)) for side in (A, mid, D, E))


def test_un_transform_accepts_exactly_the_encodings():
    # at these (k, a) no window binds to weight 8, so a tuple encodes a
    # pair exactly when it settles as the pair's triple does: (middle, D)
    # redistributed (OO/OE), each side compared as a multiset.  Those
    # accepted include partial redistributions; every other tuple is
    # refused, naming it
    accepted = {}
    for pl, k, a in [("EE", 14, 14), ("OO", 15, 15), ("OE", 15, 14)]:
        want = {}
        for w in range(9):
            for p in enumerate_ground(pl, k, a, w):
                want[_settled(to_triple(p, pl, k, a), pl)] = p
        tuples = accepted[pl] = 0
        for t in _sides_to(8):
            tuples += 1
            p = want.get(_settled(t, pl))
            if p is None:
                with pytest.raises(ParameterError, match="encodes no"):
                    un_transform(t, pl)
            else:
                assert un_transform(t, pl) == p, (pl, t)
                accepted[pl] += 1
        assert tuples == 4810
    assert accepted == {"EE": 158, "OO": 91, "OE": 68}
