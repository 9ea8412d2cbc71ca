"""Exact truncated power series in q, with the product and theta-sum
builders that the partition identities are stated in.

Everything is integer arithmetic on coefficient vectors c_0..c_N; there
is no floating point and no rounding anywhere.  Division only exists as
power-series inversion at a unit constant term, so identities with
denominators are checked in cross-multiplied form.  A factor that lives
in q^g, like (q^g; q^g)_inf, is built, multiplied and inverted in q^g.
"""

from __future__ import annotations

from itertools import compress, islice
from math import gcd
from operator import add, index, sub

from . import partitions
from .partitions import ParameterError, _as_weight


class TruncatedSeries:
    """A power series in q truncated at exponent N.

    coeffs holds exact ints c_0..c_N; the constructor takes integers only
    (operator.index), so a float or a string raises TypeError instead of
    being rounded or parsed.  Binary operations require equal
    truncations; mixing them silently would let a short series masquerade
    as exact at higher order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, truncation=None):
        coeffs = list(map(index, coeffs))
        if truncation is not None:
            if truncation < 0:
                raise ValueError("truncation must be >= 0")
            if len(coeffs) > truncation + 1:
                raise ValueError("got %d coefficients for truncation %d"
                                 % (len(coeffs), truncation))
            coeffs.extend([0] * (truncation + 1 - len(coeffs)))
        if not coeffs:
            raise ValueError("need at least the constant coefficient")
        self.coeffs = coeffs

    @property
    def truncation(self):
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, truncation):
        return cls([0], truncation)

    @classmethod
    def one(cls, truncation):
        return cls([1], truncation)

    def coefficient(self, n):
        if not 0 <= n <= self.truncation:
            raise IndexError("exponent %d outside truncation %d" % (n, self.truncation))
        return self.coeffs[n]

    def _match(self, other):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected TruncatedSeries, got %r" % (type(other),))
        if other.truncation != self.truncation:
            raise ValueError("truncation mismatch: %d vs %d"
                             % (self.truncation, other.truncation))
        return other

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other):
        other = self._match(other)
        return TruncatedSeries([x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        other = self._match(other)
        return TruncatedSeries([x - y for x, y in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return TruncatedSeries([-x for x in self.coeffs])

    def __mul__(self, other):
        """The product; where one side lives in q^g, g products in q^g."""
        if isinstance(other, int):
            return TruncatedSeries([other * x for x in self.coeffs])
        other = self._match(other)
        a, b = self.coeffs, other.coeffs
        if (g := _lattice(b)) == 1:
            a, b, g = b, a, _lattice(a)
        return TruncatedSeries(_kronecker(a, b, g))

    __rmul__ = __mul__

    def invert_unit(self):
        """Series t with self * t = 1 (mod q^{N+1}); requires c_0 = +-1.
        t_m = -c_0 * sum c_j t_{m-j} over the nonzero c_j, j <= m, each
        read from m = j on; a unit in q^g runs this on its q^g terms."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError("constant term must be +1 or -1, got %r" % (c0,))
        g = _lattice(self.coeffs)
        t, live = self.coeffs[::g], []
        for m in range(1, len(t)):     # t_m is read, then overwritten
            if t[m]:
                live.append((m, -c0 * t[m]))
            t[m] = sum([c * t[m - j] for j, c in live])
        return dilate(TruncatedSeries(t), g, self.truncation)

    def is_zero(self):
        return not any(self.coeffs)

    def __repr__(self):
        # the first 8 nonzero terms, and "..." only when more follow
        nonzero = ((c, e) for e, c in enumerate(self.coeffs) if c)
        terms = ["%+d*q^%d" % t for t in islice(nonzero, 9)]
        body = " ".join(terms[:8] + ["..."] * (len(terms) > 8)) or "0"
        return "<TruncatedSeries N=%d %s>" % (self.truncation, body)


def _lattice(c):
    """The g with c in q^g: the gcd of c's nonzero exponents above 0, or 1
    if there are none or a class mod g is too short (under g terms)."""
    g = 0
    for e in compress(range(len(c)), c):
        g = gcd(g, e)
        if g == 1:
            break
    return g if 0 < g * g <= len(c) else 1


def _kronecker(a, b, g):
    """a * b to len(a) = len(b) terms, b in q^g: for each class r mod g
    where a is not 0, one int product at X = 2^(8*nb) of a[r::g] and the
    same length prefix of b[::g].  |c_i| <= n*max|a|*max|b| < X/2 for
    n = len(b[::g]), so no slot of c_i + X/2 borrows.  An operand is
    read from one string whose slot i holds c_i + half, and bias, half in
    every slot, is taken off; b's string is built once for all classes.

    When at most a sixth of b[::g]'s terms are live (nonzero; at g = 1
    b is the sparser side), the product is instead the sum, over the
    live terms c_j, of c_j times a[r::g] shifted j slots, and n in the
    slot bound is the number of live terms."""
    b = b[::g]
    if g == 1 and a.count(0) > b.count(0):
        a, b = b, a
    live = [(j, c) for j, c in enumerate(b) if c]
    sparse = 6 * len(live) <= len(b)
    nb = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
          + (len(live) if sparse else len(b)).bit_length() + 2 + 7) // 8
    half = 1 << (8 * nb - 1)
    halves = (bytes(nb - 1) + b"\x80") * len(b)
    packed = None if sparse else _biased(b, nb, half)
    out = [0] * len(a)
    for r in range(g):
        if any(x := a[r::g]):
            m = nb * len(x)
            bias = int.from_bytes(halves[:m], "little")
            x = int.from_bytes(_biased(x, nb, half), "little") - bias
            prod = (sum([c * x << 8 * nb * j for j, c in live if nb * j < m])
                    if sparse else
                    x * (int.from_bytes(packed[:m], "little") - bias))
            out[r::g] = [c - half for c in partitions._unpack(
                (prod + bias) & ((1 << 8 * m) - 1), nb, m // nb)]
    return out


def _biased(coeffs, nb, half):
    """The nb-byte slots c_i + half, in [0, 2^(8*nb)) as |c_i| < half,
    little-endian, as one string."""
    return b"".join([(c + half).to_bytes(nb, "little") for c in coeffs])


def mul(s, t):
    """Cauchy product of two series with equal truncation: s * t, kept
    as a public name."""
    return s * t


def first_discrepancy(s, t):
    """Smallest exponent where the coefficients differ, or None if the
    series agree through their (equal) truncation."""
    t = s._match(t)
    for n, (x, y) in enumerate(zip(s.coeffs, t.coeffs)):
        if x != y:
            return n
    return None


def poch_inf(a, m, N, sign=1):
    """The infinite product (sign*q^a; q^m)_inf truncated at N, i.e.
    prod_{j>=0} (1 - sign*q^{a+j*m}).  sign=+1 gives (q^a;q^m)_inf,
    sign=-1 gives (-q^a;q^m)_inf.

    It is summed by Euler's expansion (x; q)_inf = sum_n (-x)^n
    q^{n(n-1)/2} / (q; q)_n at x = sign*q^a and base q^m:

        sum_{n>=0} (-sign)^n q^{a*n + m*n(n-1)/2} / (q^m; q^m)_n.

    One running row holds 1/(q^m; q^m)_n in Q = q^m, where it lives; step
    n divides it by (1 - Q^n), keeps it through Q^((N - e) // m) for the
    term's exponent e and adds it at e, e+m, ..., so about sqrt(2N/m)
    steps on rows of N/m terms replace the factor-by-factor product."""
    a, m, N = _as_weight(a, "a", 1), _as_weight(m, "m", 1), _as_weight(N, "N")
    if sign not in (1, -1):
        raise ParameterError("sign must be +1 or -1, got %r" % (sign,))
    acc = [1] + [0] * N
    row = acc[:N // m + 1]
    n, e = 1, a
    while e <= N:
        row = row[:(N - e) // m + 1]
        partitions._inv_one_minus(row, n)
        op = sub if sign == 1 and n % 2 else add
        acc[e::m] = map(op, acc[e::m], row)
        e += a + m * n
        n += 1
    return TruncatedSeries(acc)


def theta_sum(alpha, beta, N):
    """Bilateral alternating theta series
    sum_{n in Z} (-1)^n q^{(alpha*n^2 + beta*n)/2} truncated at N.

    alpha must be positive and alpha+beta even so that every exponent is
    an integer.  Iteration runs n = 0, 1, -1, 2, -2, ... and stops once
    the quadratic term dominates past the truncation in both directions.
    """
    alpha, beta = _as_weight(alpha, "alpha", 1), _as_weight(beta, "beta", None)
    N = _as_weight(N, "N")
    if (alpha + beta) % 2:
        raise ParameterError("alpha + beta must be even for integer exponents")
    out = [1] + [0] * N  # n = 0
    r = 1
    while True:
        hit = False
        for n in (r, -r):
            e = (alpha * n * n + beta * n) // 2
            if e < 0:
                raise ParameterError("theta exponent < 0 at n=%d" % n)
            if e <= N:
                out[e] += -1 if r % 2 else 1
                hit = True
        # once r is past the parabola vertex |beta|/(2*alpha), a miss in
        # both directions means every later ring misses too
        if not hit and alpha * r >= abs(beta):
            break
        r += 1
    return TruncatedSeries(out)


def restricted_gf(forbidden_residues, modulus, N):
    """Generating function of partitions whose parts avoid the given
    residue classes mod ``modulus``, truncated at N."""
    modulus, N = _as_weight(modulus, "modulus", 1), _as_weight(N, "N")
    forbidden = {_as_weight(r, "residue", None) % modulus
                 for r in forbidden_residues}
    return TruncatedSeries(partitions._avoiding_counts(forbidden, modulus, N))


def multisum_rrg(k, a, N):
    """The (k-1)-fold Rogers-Ramanujan-type sum

        sum q^{N_1^2 + ... + N_{k-1}^2 + N_a + ... + N_{k-1}}
            / ((q;q)_{n_1} ... (q;q)_{n_{k-1}})

    over n_1, ..., n_{k-1} >= 0, N_j = n_j + ... + n_{k-1}, truncated at N,
    level by level, j = min(k-1, N) down to 1 (higher levels are 0).  rows[d]
    sums the levels above j with N_{j+1} = d over q^s, s = d^2 + [j+1 >= a]d.
    Each n_j = 0, 1, ... divides the row by (1 - q^{n_j}) and adds it at s
    into rows[M] of level j, M = d + n_j, until s + jM^2 + [j >= a]M > N."""
    partitions.check_params(k, a)
    N = _as_weight(N, "N")
    rows = [[1] + [0] * N]
    for j in range(min(k - 1, N), 0, -1):
        nxt = []
        for d, c in enumerate(rows):
            s = d * d + (d if j + 1 >= a else 0)
            for M in range(d, N + 1):
                e = s + M * M + (M if j >= a else 0)
                if e + (j - 1) * M * M > N:
                    break
                c = c[:N + 1 - e]
                if M > d:
                    partitions._inv_one_minus(c, M - d)
                if M == len(nxt):   # d = 0, at s = 0, reaches every M first
                    nxt.append(c)
                else:
                    nxt[M][s:] = map(add, nxt[M][s:], c)
        rows = nxt
    acc = [0] * (N + 1)
    for d, c in enumerate(rows):
        s = d * d + (d if a == 1 else 0)
        acc[s:] = map(add, acc[s:], c)
    return TruncatedSeries(acc)


def dilate(s, m, N):
    """The series s(q^m) truncated at N; s must reach q^(N // m)."""
    m, N = _as_weight(m, "m", 1), _as_weight(N, "N")
    if s.truncation < N // m:
        raise ParameterError("s is truncated at %d, below %d"
                             % (s.truncation, N // m))
    out = [0] * (N + 1)
    out[::m] = s.coeffs[:N // m + 1]
    return TruncatedSeries(out)


def family_gf(family, k, a, N):
    """Series whose coefficient of q^n is count_family(family, k, a, n)."""
    return TruncatedSeries(partitions.family_counts(family, k, a, N))
