"""Tests for exact truncated q-series arithmetic and builders."""

import random
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgordon import partitions, series
from qgordon.gordon import gordon_fixed_gf
from qgordon.partitions import ParameterError
from qgordon.pipelines import pipeline_e_factor, pipeline_fixed_gf
from qgordon.series import TruncatedSeries


def coeffs(s):
    return list(s.coeffs)


def brute_p(n):
    """Partition numbers by direct recursion (test oracle)."""

    def count(n, max_part):
        if n == 0:
            return 1
        return sum(count(n - p, p) for p in range(min(n, max_part), 0, -1))

    return count(n, n)


small_series = st.builds(
    TruncatedSeries,
    st.lists(st.integers(min_value=-9, max_value=9), min_size=9, max_size=9),
)


def test_constructor_and_accessors():
    s = TruncatedSeries([1, 2], truncation=4)
    assert s.truncation == 4
    assert coeffs(s) == [1, 2, 0, 0, 0]
    assert s.coefficient(1) == 2
    with pytest.raises(IndexError):
        s.coefficient(5)
    with pytest.raises(ValueError):
        TruncatedSeries([1, 2, 3], truncation=1)
    with pytest.raises(ValueError):
        TruncatedSeries([])
    with pytest.raises(ValueError):
        TruncatedSeries([1], -1)
    with pytest.raises(TypeError):
        s + [1]
    # integers only: a float is not rounded and a string is not parsed
    for bad in ([0.5, 1.9, 2], ["3"], [1, 2.0]):
        with pytest.raises(TypeError):
            TruncatedSeries(bad)


def test_sub_eq_hash_and_repr():
    s = TruncatedSeries([1, 2, 3], truncation=3)
    t = TruncatedSeries([0, 5, 0, -1])
    assert coeffs(s - t) == [1, -3, 3, 1]
    assert (s - s).is_zero()
    with pytest.raises(ValueError):
        s - TruncatedSeries([1, 2])
    # a series equals no other type, not even the list of its
    # coefficients, and equal series hash alike
    assert s.__eq__([1, 2, 3, 0]) is NotImplemented
    assert s != [1, 2, 3, 0] and s != 1
    twin = TruncatedSeries([1, 2, 3, 0])
    assert twin == s and twin is not s and hash(twin) == hash(s)
    assert len({s, twin, t}) == 2
    assert repr(TruncatedSeries([0, 1, -2], 3)) == (
        "<TruncatedSeries N=3 +1*q^1 -2*q^2>")
    assert repr(TruncatedSeries.zero(2)) == "<TruncatedSeries N=2 0>"
    # the first 8 nonzero terms, then an ellipsis
    assert repr(TruncatedSeries([0] + list(range(1, 11)))) == (
        "<TruncatedSeries N=10 +1*q^1 +2*q^2 +3*q^3 +4*q^4 +5*q^5 +6*q^6 "
        "+7*q^7 +8*q^8 ...>")
    # exactly 8 terms leave nothing out, so no ellipsis
    assert repr(TruncatedSeries(range(1, 9))).endswith("+8*q^7>")


def test_mul_fixed_cases():
    one_plus = TruncatedSeries([1, 1], truncation=2)
    one_minus = TruncatedSeries([1, -1], truncation=2)
    assert coeffs(one_plus * one_minus) == [1, 0, -1]
    geo = TruncatedSeries([1] * 6)
    assert coeffs(TruncatedSeries([1, -1], truncation=5) * geo) == [1, 0, 0, 0, 0, 0]
    s = TruncatedSeries([3, 1, 4, 1, 5])
    assert s * TruncatedSeries.one(4) == s
    # factors in q^2: (1 + q^2)(1 - q^2), a constant times s, the zero
    # series, and (q^2; q^2)_inf (q; q^2)_inf = (q; q)_inf
    t = TruncatedSeries([1, 0, 1, 0, 0])
    assert coeffs(t * TruncatedSeries([1, 0, -1, 0, 0])) == [1, 0, 0, 0, -1]
    assert coeffs(TruncatedSeries([-2], 4) * s) == [-6, -2, -8, -2, -10]
    assert (TruncatedSeries.zero(4) * t).is_zero()
    assert (series.poch_inf(2, 2, 100) * series.poch_inf(1, 2, 100)
            == series.poch_inf(1, 1, 100))


def schoolbook(a, b):
    """Truncated Cauchy product, term by term (test oracle)."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += x * b[j]
    return out


big = st.integers(min_value=-10 ** 40, max_value=10 ** 40)


@st.composite
def operand_pairs(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    elements = draw(st.sampled_from(
        [st.just(0), st.integers(-9, 9), big,
         st.one_of(st.just(0), big)]))
    a = draw(st.lists(elements, min_size=n + 1, max_size=n + 1))
    b = draw(st.lists(elements, min_size=n + 1, max_size=n + 1))
    return a, b


@settings(max_examples=200)
@given(operand_pairs(), big)
def test_mul_matches_schoolbook(pair, scalar):
    a, b = pair
    s, t = TruncatedSeries(a), TruncatedSeries(b)
    assert coeffs(s * t) == schoolbook(a, b)
    assert coeffs(scalar * s) == [scalar * x for x in a]
    assert coeffs(s * scalar) == [scalar * x for x in a]


@st.composite
def lattice_pairs(draw):
    # a second operand supported on the multiples of g, as (q^g; q^g)_inf
    # is; at g > n only its constant term is left.  The first operand
    # may live in q^2 or q^3, or be dense
    n = draw(st.integers(min_value=0, max_value=40))
    g = draw(st.integers(min_value=2, max_value=9))
    h = draw(st.sampled_from([1, 1, 2, 3]))
    elements = draw(st.sampled_from(
        [st.just(0), st.integers(-9, 9), big,
         st.one_of(st.just(0), big)]))
    a = [draw(elements) if i % h == 0 else 0 for i in range(n + 1)]
    b = [draw(elements) if i % g == 0 else 0 for i in range(n + 1)]
    return a, b


@settings(max_examples=300)
@given(lattice_pairs())
def test_lattice_products_match_schoolbook(pair):
    a, b = pair
    s, t = TruncatedSeries(a), TruncatedSeries(b)
    want = schoolbook(a, b)
    assert coeffs(s * t) == want
    assert coeffs(t * s) == want


def test_sparse_factor_products_match_schoolbook():
    # a factor with at most a sixth of its terms live (of b[::g] in q^g)
    # is multiplied as shifted sums of the other side: here just either
    # side of that share, with signed 100-bit terms, at g = 1 with either
    # side sparse, and in q^2 and q^3, where the dense side has every
    # class mod g
    rng = random.Random(5)
    for n, g in ((60, 1), (61, 1), (47, 2), (120, 3)):
        slots = range(g, n + 1, g)
        for live in ((len(slots) + 1) // 6, (len(slots) + 1) // 6 + 1):
            b = [0] * (n + 1)
            # exponent g is live, so b lives in q^g and in no coarser q^h
            for j in [g, *rng.sample(slots[1:], live - 1)]:
                b[j] = rng.choice((-1, 1)) * rng.randrange(1, 2 ** 100)
            a = [rng.randrange(-2 ** 100, 2 ** 100) for _ in range(n + 1)]
            want = schoolbook(a, b)
            assert coeffs(TruncatedSeries(a) * TruncatedSeries(b)) == want
            assert coeffs(TruncatedSeries(b) * TruncatedSeries(a)) == want


def test_mul_extreme_operands():
    for n in (0, 1, 40):
        zero = TruncatedSeries.zero(n)
        top = TruncatedSeries([-10 ** 40] * (n + 1))
        assert (zero * top).is_zero() and (top * zero).is_zero()
        assert coeffs(top * top) == schoolbook(top.coeffs, top.coeffs)
        assert coeffs(top * -top) == [-c for c in coeffs(top * top)]


def test_mul_truncation_mismatch():
    with pytest.raises(ValueError):
        TruncatedSeries([1, 1]) * TruncatedSeries([1, 1, 1])


@settings(max_examples=60)
@given(small_series, small_series)
def test_mul_commutative(s, t):
    assert s * t == t * s


@settings(max_examples=60)
@given(small_series, small_series, small_series)
def test_mul_associative_and_distributive(s, t, u):
    assert (s * t) * u == s * (t * u)
    assert s * (t + u) == s * t + s * u


def test_invert_unit():
    assert coeffs(TruncatedSeries([1, -1], truncation=3).invert_unit()) == [1, 1, 1, 1]
    assert coeffs(TruncatedSeries.one(4).invert_unit()) == [1, 0, 0, 0, 0]
    euler = series.poch_inf(1, 1, 6)
    assert coeffs(euler.invert_unit()) == [1, 1, 2, 3, 5, 7, 11]
    with pytest.raises(ValueError):
        TruncatedSeries([2, 1]).invert_unit()


def dense_inverse(c):
    """The inversion recurrence over every j, zero or not (test oracle)."""
    c0 = c[0]
    out = [0] * len(c)
    out[0] = c0
    for m in range(1, len(c)):
        s = 0
        for j in range(1, m + 1):
            if c[j]:
                s += c[j] * out[m - j]
        out[m] = -c0 * s
    return out


@st.composite
def gappy_units(draw):
    # runs of zeros between terms, as in the sparse denominators
    n = draw(st.integers(min_value=0, max_value=80))
    term = st.one_of(st.just(0), st.just(0), st.integers(-9, 9), big)
    tail = draw(st.lists(term, min_size=n, max_size=n))
    gap = draw(st.integers(min_value=0, max_value=n))
    tail[:gap] = [0] * gap
    return [draw(st.sampled_from([1, -1]))] + tail


@settings(max_examples=150)
@given(gappy_units())
def test_invert_unit_matches_dense_loop(c):
    assert coeffs(TruncatedSeries(c).invert_unit()) == dense_inverse(c)


def test_invert_unit_bench_denominators():
    # (q;q)_inf, (q^2;q^2)_inf and (-q;q^2)_inf (q;q)_inf at q^600 have
    # 40, 28 and 18 nonzero coefficients of 601
    N = 600
    for d, nonzero in ((series.poch_inf(1, 1, N), 40),
                       (series.poch_inf(2, 2, N), 28),
                       (series.poch_inf(1, 2, N, -1)
                        * series.poch_inf(1, 1, N), 18)):
        assert sum(1 for c in d.coeffs if c) == nonzero
        assert coeffs(d.invert_unit()) == dense_inverse(d.coeffs)
        assert coeffs((-d).invert_unit()) == dense_inverse((-d).coeffs)


@settings(max_examples=100)
@given(gappy_units(), st.integers(2, 9))
def test_invert_unit_on_a_lattice(c, g):
    # a unit in q^g inverts on its q^g terms; the scattered result must
    # be the dense recurrence's
    u = [c[i // g] if i % g == 0 else 0 for i in range(len(c))]
    assert coeffs(TruncatedSeries(u).invert_unit()) == dense_inverse(u)


@settings(max_examples=40)
@given(small_series, st.sampled_from([1, -1]))
def test_invert_unit_roundtrip(s, c0):
    t = TruncatedSeries([c0] + coeffs(s)[1:])
    assert t * t.invert_unit() == TruncatedSeries.one(t.truncation)


def test_poch_inf_fixed_cases():
    assert coeffs(series.poch_inf(1, 1, 3)) == [1, -1, -1, 0]
    assert coeffs(series.poch_inf(1, 2, 4, sign=-1)) == [1, 1, 0, 1, 1]
    assert series.poch_inf(5, 4, 4) == TruncatedSeries.one(4)
    with pytest.raises(ValueError):
        series.poch_inf(0, 1, 4)
    with pytest.raises(ValueError):
        series.poch_inf(1, 1, 4, sign=2)


def factor_by_factor_poch(a, m, N, sign=1):
    """(sign*q^a; q^m)_inf multiplied out one factor (1 - sign*q^e) and
    one coefficient at a time (test oracle for Euler's sum)."""
    out = [0] * (N + 1)
    out[0] = 1
    e = a
    while e <= N:
        for i in range(N, e - 1, -1):
            out[i] -= sign * out[i - e]
        e += m
    return out


@settings(max_examples=150)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 200),
       st.sampled_from([1, -1]))
def test_poch_inf_matches_factor_by_factor(a, m, N, sign):
    want = factor_by_factor_poch(a, m, N, sign)
    assert coeffs(series.poch_inf(a, m, N, sign)) == want


@pytest.mark.parametrize("a, m, sign", [
    (1, 1, 1), (1, 2, -1), (2, 2, 1), (2, 2, -1), (3, 7, 1),
    # the bench's factors that live on a lattice of exponents
    (2, 4, 1), (1, 8, 1), (8, 8, 1), (4, 10, 1), (12, 12, 1)])
def test_poch_inf_deep(a, m, sign):
    want = factor_by_factor_poch(a, m, 600, sign)
    assert coeffs(series.poch_inf(a, m, 600, sign)) == want


def test_poch_inf_first_factor_past_truncation():
    for sign in (1, -1):
        assert series.poch_inf(8, 1, 7, sign) == TruncatedSeries.one(7)
        assert series.poch_inf(601, 3, 600, sign) == TruncatedSeries.one(600)
        assert series.poch_inf(1, 5, 0, sign) == TruncatedSeries.one(0)
        # a = N: the one factor inside the truncation
        assert coeffs(series.poch_inf(5, 5, 5, sign)) == [1, 0, 0, 0, 0, -sign]


def test_poch_inf_counts_partitions():
    # 1/(q^2;q^2)_inf generates partitions into even parts
    inv = series.poch_inf(2, 2, 12).invert_unit()
    for n in range(13):
        want = sum(1 for _ in _even_partitions(n))
        assert inv.coefficient(n) == want


def _even_partitions(n, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 1, -1):
        if first % 2 == 0:
            for rest in _even_partitions(n - first, first):
                yield (first,) + rest


def test_euler_pentagonal():
    assert series.poch_inf(1, 1, 40) == series.theta_sum(3, -1, 40)


def test_theta_fixed_cases():
    t = series.theta_sum(7, 1, 17)
    want = [0] * 18
    want[0] = 1
    want[3] = -1
    want[4] = -1
    want[13] = 1
    want[15] = 1
    assert coeffs(t) == want
    assert t.coefficient(17) == 0
    assert series.theta_sum(7, 1, 0) == TruncatedSeries.one(0)
    with pytest.raises(ValueError):
        series.theta_sum(2, 1, 5)  # odd alpha+beta
    with pytest.raises(ValueError):
        series.theta_sum(0, 0, 5)  # alpha not positive
    with pytest.raises(ValueError):
        series.theta_sum(1, 3, 5)  # a negative exponent


def test_theta_matches_triple_product():
    # theta(2k+1, 2(k-a)+1) should equal the product
    # (q^{2k+1};q^{2k+1}) (q^a;q^{2k+1}) (q^{2k+1-a};q^{2k+1})
    for k in range(2, 6):
        for a in range(1, k + 1):
            m = 2 * k + 1
            lhs = series.theta_sum(m, 2 * (k - a) + 1, 30)
            rhs = (series.poch_inf(m, m, 30)
                   * series.poch_inf(a, m, 30)
                   * series.poch_inf(m - a, m, 30))
            assert lhs == rhs, (k, a)


def test_restricted_gf():
    assert coeffs(series.restricted_gf({0, 2, 3}, 5, 4)) == [1, 1, 1, 1, 2]
    assert series.restricted_gf(set(), 1, 0) == TruncatedSeries.one(0)
    # modulus 1: every part is forbidden, or none is
    assert series.restricted_gf({0}, 1, 9) == TruncatedSeries.one(9)
    assert series.restricted_gf({5}, 1, 9) == TruncatedSeries.one(9)
    assert coeffs(series.restricted_gf(set(), 1, 12)) == [brute_p(n) for n in range(13)]
    # no forbidden residue: all partitions, for any modulus
    for modulus in (1, 2, 7):
        assert coeffs(series.restricted_gf([], modulus, 12)) == [
            brute_p(n) for n in range(13)]
    with pytest.raises(ValueError):
        series.restricted_gf(set(), 0, 5)
    with pytest.raises(ValueError):
        series.restricted_gf(set(), 3, -1)
    s = series.restricted_gf({0, 3, 4}, 7, 5)
    assert s.coefficient(5) == 4
    assert s.coefficient(5) == partitions.count_family("A", 3, 3, 5)


@pytest.mark.parametrize("build, error", [
    (lambda: series.poch_inf(1, 1, -1), ParameterError),
    (lambda: series.theta_sum(7, 1, -1), ParameterError),
    (lambda: gordon_fixed_gf(3, 3, -1), ParameterError),
    (lambda: pipeline_fixed_gf("EE", 2, 2, -1), ParameterError),
    (lambda: pipeline_e_factor("OO", -2), ParameterError),
    (lambda: series.multisum_rrg(3, 3, -1), ParameterError),
    (lambda: series.family_gf("B", 3, 3, -1), ParameterError),
], ids=["poch_inf", "theta_sum", "gordon_fixed_gf", "pipeline_fixed_gf",
        "pipeline_e_factor", "multisum_rrg", "family_gf"])
def test_negative_truncation_rejected(build, error):
    with pytest.raises(error) as info:
        build()
    assert info.type is error


@pytest.mark.parametrize("build", [
    lambda: series.poch_inf(1, 1, 2.0),
    lambda: series.poch_inf(1.5, 1, 4),
    lambda: series.poch_inf(1, 1, 4, sign=1.5),
    lambda: series.theta_sum(3, 1, 2.5),
    lambda: series.theta_sum(3, 1.0, 4),
    lambda: series.restricted_gf((0,), 5, 3.0),
    lambda: series.restricted_gf((0.5,), 5, 3),
    lambda: series.multisum_rrg(3, 2, 4.0),
    lambda: series.family_gf("B", 3, 3, 4.0),
    lambda: series.dilate(TruncatedSeries.one(2), 2.0, 4),
], ids=["poch_inf-N", "poch_inf-a", "poch_inf-sign", "theta_sum-N",
        "theta_sum-beta", "restricted_gf-N", "restricted_gf-residue",
        "multisum_rrg-N", "family_gf-N", "dilate-m"])
def test_builders_refuse_a_float(build):
    # a float argument is a ParameterError, not a TypeError from list
    # arithmetic, nor a value rounded to an int
    with pytest.raises(ParameterError):
        build()


def test_multisum_fixed_cases():
    assert coeffs(series.multisum_rrg(2, 2, 4)) == [1, 1, 1, 1, 2]
    s = series.multisum_rrg(2, 1, 2)
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == 0
    for k in range(2, 6):
        for a in range(1, k + 1):
            assert series.multisum_rrg(k, a, 0) == TruncatedSeries.one(0)
            # q^1 needs n_1 = 1 and the others 0; for a = 1 the linear
            # term N_1 pushes that term to q^2
            want = [1, 1 if a > 1 else 0]
            assert coeffs(series.multisum_rrg(k, a, 1)) == want, (k, a)


def reference_multisum(k, a, N):
    """The multisum summed along every (n_1, ..., n_{k-1}) path, one
    recursion level per j (test oracle for the level-by-level sum)."""
    acc = [0] * (N + 1)

    def rec(j, n_above, exponent, prod):
        # j runs k-1 down to 1; n_above = N_{j+1}; prod is the product
        # of 1/(q;q)_{n_i} over i > j, through at least q^(N - exponent)
        if j == 0:
            acc[exponent:] = map(add, acc[exponent:], prod)
            return
        nj = 0
        while True:
            Nj = nj + n_above
            e2 = exponent + Nj * Nj + (Nj if j >= a else 0)
            if e2 > N:
                break
            if nj:
                prod = prod[:N + 1 - e2]
                partitions._inv_one_minus(prod, nj)
            rec(j - 1, Nj, e2, prod)
            nj += 1

    rec(min(k - 1, N), 0, 0, [1] + [0] * N)
    return acc


def test_multisum_agrees_with_the_reference_recursion():
    cases = [(k, a, N) for k in range(2, 10) for a in range(1, k + 1)
             for N in (0, 1, 2, 3, 5, 12, 40, 90)]
    for k, a, N in cases + [(60, 1, 60), (60, 7, 60), (60, 60, 60)]:
        want = reference_multisum(k, a, N)
        assert coeffs(series.multisum_rrg(k, a, N)) == want, (k, a, N)


def test_multisum_equals_family_gf():
    for k in range(2, 6):
        for a in range(1, k + 1):
            ms = series.multisum_rrg(k, a, 60)
            assert ms == series.family_gf("A", k, a, 60), (k, a)
            assert ms == series.family_gf("B", k, a, 60), (k, a)


def test_family_gf_fixed_cases():
    assert coeffs(series.family_gf("B", 2, 2, 5)) == [1, 1, 1, 1, 2, 2]
    # hand check for the next one: weight 2 admits (1,1); weight 3 only (3);
    # weight 4 has (3,1) and (2,2); weight 5 has (5) and (3,1,1)
    assert coeffs(series.family_gf("W", 3, 3, 5)) == [1, 1, 1, 1, 2, 2]
    assert series.family_gf("A", 4, 2, 0) == TruncatedSeries.one(0)


def test_family_gf_matches_enumeration():
    for family in ("B", "W", "Wbar"):
        gf = series.family_gf(family, 3, 2, 12)
        for n in range(13):
            assert gf.coefficient(n) == len(partitions.enumerate_family(family, 3, 2, n))


def test_dilate():
    s = TruncatedSeries([1, 2, 3, 4])
    assert series.dilate(s, 2, 6).coeffs == [1, 0, 2, 0, 3, 0, 4]
    assert series.dilate(s, 3, 7).coeffs == [1, 0, 0, 2, 0, 0, 3, 0]
    assert series.dilate(s, 1, 2).coeffs == [1, 2, 3]
    # (q;q)_inf at q^2 is (q^2;q^2)_inf
    assert (series.dilate(series.poch_inf(1, 1, 20), 2, 40)
            == series.poch_inf(2, 2, 40))
    for m, N in [(2, 8), (0, 4), (2, -1)]:
        with pytest.raises(ValueError):
            series.dilate(s, m, N)


def test_first_discrepancy():
    a = TruncatedSeries([1, 2, 3, 4])
    b = TruncatedSeries([1, 2, 0, 4])
    assert series.first_discrepancy(a, b) == 2
    assert series.first_discrepancy(a, a) is None


def test_product_rearrangements():
    # (-q;q^2)(q;q) = (q^2;q^4)(q^2;q^2)
    N = 60
    lhs = series.poch_inf(1, 2, N, sign=-1) * series.poch_inf(1, 1, N)
    rhs = series.poch_inf(2, 4, N) * series.poch_inf(2, 2, N)
    assert lhs == rhs
    # (q^2;q^2) = (-q^2;q^2)(-q;q^2)(q;q)
    lhs = series.poch_inf(2, 2, N)
    rhs = (series.poch_inf(2, 2, N, sign=-1)
           * series.poch_inf(1, 2, N, sign=-1)
           * series.poch_inf(1, 1, N))
    assert lhs == rhs
