"""Exact truncated power series in q, with the product and theta-sum
builders that the partition identities are stated in.

Everything is integer arithmetic on coefficient vectors c_0..c_N; there
is no floating point and no rounding anywhere.  Division only exists as
power-series inversion at a unit constant term, so identities with
denominators are checked in cross-multiplied form.
"""

from __future__ import annotations

from itertools import islice
from operator import add, index, sub

from . import partitions


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
        if isinstance(other, int):
            return TruncatedSeries([other * x for x in self.coeffs])
        other = self._match(other)
        a, b = self.coeffs, other.coeffs
        n = len(a)
        # Kronecker substitution: evaluate both sides at q = X = 2^(8*nb),
        # multiply the two ints once, and read the product's slots back.
        # A slot holds |c_i| <= n*max|a|*max|b| < X/2 with room to spare.
        nb = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
              + n.bit_length() + 2 + 7) // 8
        half = 1 << (8 * nb - 1)
        # adding X/2 to every slot keeps each digit in [0, X) with no
        # borrow between slots, so it unpacks as c_i + X/2
        bias = int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")
        prod = (_pack(a, nb) * _pack(b, nb) + bias) & ((1 << (8 * nb * n)) - 1)
        return TruncatedSeries([c - half
                                for c in partitions._unpack(prod, nb, n)])

    __rmul__ = __mul__

    def invert_unit(self):
        """Series t with self * t = 1 (mod q^{N+1}); requires c_0 = +-1.
        t_m = -c_0 * sum c_j t_{m-j} over the nonzero c_j, 1 <= j <= m,
        collected once: the denominators inverted, like (q;q)_inf, are
        sparse."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError("constant term must be +1 or -1, got %r" % (c0,))
        terms = [(j, -c0 * c) for j, c in enumerate(self.coeffs) if c][1:]
        out = [c0] * len(self.coeffs)
        for m in range(1, len(out)):
            out[m] = sum([c * out[m - j] for j, c in terms if j <= m])
        return TruncatedSeries(out)

    def is_zero(self):
        return not any(self.coeffs)

    def __repr__(self):
        # the first 8 nonzero terms, and "..." only when more follow
        nonzero = ((c, e) for e, c in enumerate(self.coeffs) if c)
        terms = ["%+d*q^%d" % t for t in islice(nonzero, 9)]
        body = " ".join(terms[:8] + ["..."] * (len(terms) > 8)) or "0"
        return "<TruncatedSeries N=%d %s>" % (self.truncation, body)


def _pack(coeffs, nb):
    """sum c_i X^i at X = 2^(8*nb) for slots wide enough for every |c_i|:
    the positive coefficients minus the negated negative ones."""
    pos = b"".join([(c if c > 0 else 0).to_bytes(nb, "little") for c in coeffs])
    neg = b"".join([(-c if c < 0 else 0).to_bytes(nb, "little") for c in coeffs])
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


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

    One running row holds 1/(q^m; q^m)_n; each step divides it by
    (1 - q^{m*n}) and keeps it only to the degree its exponent leaves,
    so about sqrt(2N/m) whole-row steps replace the factor-by-factor
    product."""
    if a < 1 or m < 1:
        raise ValueError("need a >= 1 and m >= 1, got a=%r m=%r" % (a, m))
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if N < 0:
        raise ValueError("N must be >= 0")
    acc = [1] + [0] * N
    row = acc[:]
    # term n sits at e = a*n + m*n(n-1)/2; row becomes 1/(q^m; q^m)_n
    # through q^(N - e)
    n, e = 1, a
    while e <= N:
        row = row[:N + 1 - e]
        partitions._inv_one_minus(row, m * n)
        op = sub if sign == 1 and n % 2 else add
        acc[e:] = map(op, acc[e:], row)
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
    if alpha < 1:
        raise ValueError("alpha must be positive, got %r" % (alpha,))
    if (alpha + beta) % 2:
        raise ValueError("alpha + beta must be even for integer exponents")
    if N < 0:
        raise ValueError("N must be >= 0")
    out = [0] * (N + 1)
    out[0] += 1  # n = 0
    r = 1
    while True:
        hit = False
        for n in (r, -r):
            e = (alpha * n * n + beta * n) // 2
            if e < 0:
                raise ValueError("theta exponent went negative at n=%d" % n)
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
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    forbidden = {r % modulus for r in forbidden_residues}
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
    if N < 0:
        raise ValueError("N must be >= 0")
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
    if m < 1 or N < 0:
        raise ValueError("need m >= 1 and N >= 0, got m=%r N=%r" % (m, N))
    if s.truncation < N // m:
        raise ValueError("s is truncated at %d, below %d"
                         % (s.truncation, N // m))
    out = [0] * (N + 1)
    out[::m] = s.coeffs[:N // m + 1]
    return TruncatedSeries(out)


def family_gf(family, k, a, N):
    """Series whose coefficient of q^n is count_family(family, k, a, n)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return TruncatedSeries(partitions.family_counts(family, k, a, N))
