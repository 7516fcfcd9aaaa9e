"""Walsh characters on dyadic rationals and the L2-kernel coefficient table.

wal_k is the +-1 character given by the parity of the digit inner product
of x against the binary digits of k.  r_coeff(k, l) is the closed-form
double Walsh coefficient of the pairwise overlap kernel 1 - max(x, y); the
grid oracle recomputes it by exact per-cell integration (the kernel is
polynomial on every dyadic cell once the grid outresolves k and l).  See
docs/oracle_formulas.md for the derivation the oracle rests on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .points import DyadicPoint

WalshIndex = tuple[int, ...]


def mu(k: int) -> int:
    """Position of the highest set bit (1-based); 0 for k = 0."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return k.bit_length()


def mu_vec(ks: Sequence[int]) -> int:
    return sum(mu(k) for k in ks)


def mu_alpha(k: int, alpha: int) -> int:
    """Sum of the alpha highest set-bit positions of k (1-based).

    mu_alpha(k, 1) == mu(k); used as the order-alpha weight of a dual-net
    frequency digit vector.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    total = 0
    taken = 0
    while k and taken < alpha:
        pos = k.bit_length()
        total += pos
        k ^= 1 << (pos - 1)
        taken += 1
    return total


def wal_vec(ks: Sequence[int], x: DyadicPoint) -> int:
    """Product of coordinatewise Walsh characters."""
    if len(ks) != x.s:
        raise ValueError("dimension mismatch")
    par = 0
    for j, k in enumerate(ks):
        if k < 0:
            raise ValueError("Walsh indices must be non-negative")
        bits = k
        num = x.coords[j]
        p = x.precision
        while bits:
            pos = bits.bit_length()
            if pos <= p:
                par ^= (num >> (p - pos)) & 1
            bits ^= 1 << (pos - 1)
    return -1 if par else 1


def r_coeff(k: int, l: int) -> Fraction:
    """Closed-form kernel coefficient r(k, l), symmetric in its arguments.

    With k = 2^(a1-1) + ... + 2^(av-1), a1 > ... > av > 0, and l likewise
    on b1 > ... > bw > 0 (k >= l after swapping):

      1/3                   k = l = 0
      1/2^(a1+2)            v = 1, l = 0
      -1/2^(a1+a2+2)        v = 2, l = 0
      -1/2^(a1+a2+2)        v = w+2 > 2 and (a3..av) = (b1..bw)
      1/(3*4^a1)            k = l > 0
      1/2^(a1+b1+2)         v = w, a1 != b1, (a2..av) = (b2..bw)
      0                     otherwise
    """
    if k < 0 or l < 0:
        raise ValueError("indices must be non-negative")
    if k < l:
        k, l = l, k
    if k == l:
        return Fraction(1, 3 << 2 * mu(k))
    # Only the top one or two set bits count; 1 << n >> 1 is the top bit of
    # an n-bit index, and 0 for n = 0, so l = 0 needs no case of its own.
    a1, b1 = k.bit_length(), l.bit_length()
    k_rest = k ^ (1 << a1 >> 1)
    if k_rest == l ^ (1 << b1 >> 1):
        return Fraction(1, 1 << (a1 + b1 + 2))
    a2 = k_rest.bit_length()
    if k_rest ^ (1 << a2 >> 1) == l:
        return Fraction(-1, 1 << (a1 + a2 + 2))
    return Fraction(0)


def _r_table(trunc: int) -> list[tuple[int, int, Fraction]]:
    """Nonzero (k, l, r(k, l)) with k, l < 2^trunc, sorted.  By r_coeff's
    cases l agrees with k below the top set bits (l = k included), is k
    without its top two bits or is k plus two higher bits, and these never
    coincide: 5 * 2^trunc - 2 trunc - 4 entries."""
    out = []
    for k in range(1 << trunc):
        rest = k ^ (1 << k.bit_length() >> 1)
        higher = [1 << b for b in range(k.bit_length(), trunc)]
        ls = [rest | 1 << b for b in range(rest.bit_length(), trunc)]
        ls += [rest ^ (1 << rest.bit_length() >> 1)]
        ls += [k | h | g for i, h in enumerate(higher) for g in higher[:i]]
        out += [(k, l, r_coeff(k, l)) for l in sorted(ls)]
    return out


MAX_ORACLE_GRID = 10


def r_coeff_oracle(k: int, l: int, grid: int) -> Fraction:
    """r(k, l) recomputed by exact integration on the 2^grid x 2^grid mesh.

    Sums wal_k(x) wal_l(y) times the exact cell integral of 1 - max(x, y)
    over all mesh cells.  Requires grid >= max(mu(k), mu(l)) + 2 so the
    characters are constant on every cell; the result is then independent
    of the grid (G-stable).
    """
    if grid < max(mu(k), mu(l)) + 2:
        raise ValueError(f"grid 2^{grid} too coarse for indices with mu up to "
                         f"{max(mu(k), mu(l))}")
    if grid > MAX_ORACLE_GRID:
        raise ValueError(f"grid exponent capped at {MAX_ORACLE_GRID}")
    n = 1 << grid
    sk = [wal_vec((k,), DyadicPoint((u,), grid)) for u in range(n)]
    sl = [wal_vec((l,), DyadicPoint((u,), grid)) for u in range(n)]
    # Scale cell integrals of 1 - max(x, y) by D = 3*2^(3G+1) to get ints:
    #  off-diagonal (u != v): 3*2^(G+1) - 6*max(u,v) - 3
    #  diagonal     (u == v): 3*2^(G+1) - 6*u - 4
    base = 3 * (1 << (grid + 1))
    total = 0
    for u in range(n):
        su = sk[u]
        row = 0
        for v in range(n):
            cell = base - 6 * (u if u > v else v) - (4 if u == v else 3)
            row += sl[v] * cell
        total += su * row
    return Fraction(total, 3 * (1 << (3 * grid + 1)))
