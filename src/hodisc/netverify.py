"""Structural certification of digital nets.

Checks the order-alpha row-independence condition by exhaustive search over
admissible row selections, counts points in elementary boxes and in unions
of dyadic intervals with pinned digits, enumerates the dual net from the
dependencies among the generating-matrix rows, and evaluates exact Walsh
character sums.  Certification that would exceed the enumeration budget
raises VerificationBudgetError, a third outcome never conflated with a
property violation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Iterator, Sequence

import numpy as np

from .genmat import GeneratingMatrixSet
from .gf2 import BitMatrix, dependencies, span, xor_rows
from .points import DEFAULT_POINT_BUDGET_EXPONENT, BudgetExceeded, DyadicPoint
from .walsh import WalshIndex, mu_alpha, wal_vec

DEFAULT_PATTERN_BUDGET = 2_000_000
DEFAULT_DUAL_EXPONENT = 24


class VerificationBudgetError(Exception):
    """Certification aborted: the enumeration would exceed the budget."""

    def __init__(self, estimate: int, budget: int) -> None:
        super().__init__(f"enumeration of {estimate} patterns exceeds budget {budget}")
        self.estimate = estimate
        self.budget = budget


class _Dependent(Exception):
    """Ends the row search: args[0] is the dependent selection."""


def _selection_pattern_count(p: int, alpha: int, cap: int, s: int) -> int:
    """Number of admissible counted-row patterns across s coordinates.

    Counts per-coordinate strictly decreasing tuples of length <= alpha
    with entries in 1..p, convolved over coordinates, total weight <= cap.
    """
    if cap < 0:
        return 0
    # per-coordinate generating table f[w] = tuples of weight w
    f = [0] * (cap + 1)
    f[0] = 1
    # dp over part values, at most alpha parts, distinct parts
    dp = [[0] * (cap + 1) for _ in range(alpha + 1)]
    dp[0][0] = 1
    for value in range(1, p + 1):
        for parts in range(alpha, 0, -1):
            row = dp[parts]
            prev = dp[parts - 1]
            for w in range(cap, value - 1, -1):
                if prev[w - value]:
                    row[w] += prev[w - value]
    for parts in range(1, alpha + 1):
        for w in range(cap + 1):
            f[w] += dp[parts][w]
    total = f
    for _ in range(s - 1):
        nxt = [0] * (cap + 1)
        for w1, c1 in enumerate(total):
            if not c1:
                continue
            for w2 in range(cap + 1 - w1):
                if f[w2]:
                    nxt[w1 + w2] += c1 * f[w2]
        total = nxt
    return sum(total)


def find_dependency(
    g: GeneratingMatrixSet,
    alpha: int,
    t: int,
    budget: int = DEFAULT_PATTERN_BUDGET,
) -> list[tuple[int, int]] | None:
    """Witness of a violated order-alpha independence condition, or None.

    A witness is a list of (coordinate, row) pairs, rows 1-based, sorted by
    coordinate ascending and row descending, whose row vectors are linearly
    dependent while the sum over coordinates of their alpha largest rows is
    at most alpha*m - t.

    Per coordinate a selection is a strictly decreasing tuple of at most
    alpha counted rows; a full tuple also holds every row below its
    alpha-th, which costs no weight.  A set holding a dependent set is
    dependent, so only selections that no other admissible one contains
    need a test, and the verdict is that of the full enumeration.  Rows are
    eliminated one at a time as they are pushed, so every subset pushed on
    the way is tested too.  Earlier coordinates walk every tuple, a full
    tuple's free prefix growing by one row as its alpha-th row rises.  The
    last coordinate, with budget r left after the counted rows before its
    (alpha-1)-th row u, tests only: u above r/2 with the prefix {1..r-u}
    (one prefix, growing as u falls, serves them all), and the prefix
    {1..min(u_max, r//2)}, u_max the largest u allowed, which holds every
    selection with u at or below r/2; at alpha = 1 the prefix {1..r}.
    The budget counts every admissible pattern, an upper bound on the
    selections tested.
    """
    m, p, s = g.width, g.depth, g.s
    if not 0 <= t <= alpha * m:
        raise ValueError(f"t={t} out of range 0..{alpha * m}")
    cap = alpha * m - t
    estimate = _selection_pattern_count(min(p, cap), alpha, cap, s)
    if estimate > budget:
        raise VerificationBudgetError(estimate, budget)
    rowdata = [mat.data for mat in g.matrices]
    pivots: dict[int, int] = {}
    held: list[tuple[int, int, int]] = []  # (coordinate, row, pivot bit), pushed order
    last = s - 1

    def push(j: int, i: int) -> None:
        """Eliminate row i of coordinate j against the rows held."""
        mask = rowdata[j][i - 1]
        while mask:
            top = mask.bit_length() - 1
            other = pivots.get(top)
            if other is None:
                pivots[top] = mask
                held.append((j, i, top))
                return
            mask ^= other
        raise _Dependent([(hj, hi) for hj, hi, _ in held] + [(j, i)])

    def pop(count: int) -> None:
        for _ in range(count):
            del pivots[held.pop()[2]]

    def coordinate(j: int, weight: int) -> None:
        if j == last:
            close(weight, 0, p + 1)
        else:
            coordinate(j + 1, weight)  # empty tuple for coordinate j
            counted(j, weight, 0, p + 1)

    def counted(j: int, weight: int, length: int, upper: int) -> None:
        """Tuples of an earlier coordinate j, counted rows below ``upper``."""
        top = min(upper - 1, cap - weight)
        if length + 1 == alpha:  # alpha-th row i: the selection gains {1..i}
            for i in range(1, top + 1):
                push(j, i)
                coordinate(j + 1, weight + i)
            pop(top)
            return
        for i in range(top, 0, -1):
            push(j, i)
            coordinate(j + 1, weight + i)
            counted(j, weight + i, length + 1, i)
            pop(1)

    def close(weight: int, length: int, upper: int) -> None:
        """Tuples of the last coordinate that no admissible one contains."""
        r = cap - weight
        u_max = min(upper - 1, r)
        if length + 2 < alpha:
            for i in range(u_max, 0, -1):
                push(last, i)
                close(weight + i, length + 1, i)
                pop(1)
            return
        # u is the (alpha-1)-th counted row; at alpha = 1 the only selection
        # is the prefix, so no u is walked
        half = r // 2 if alpha > 1 else r
        prefix = 0
        for u in range(u_max, half, -1):
            while prefix < r - u:
                prefix += 1
                push(last, prefix)
            push(last, u)
            pop(1)
        while prefix < min(u_max, half):
            prefix += 1
            push(last, prefix)
        pop(prefix)

    try:
        coordinate(0, 0)
    except _Dependent as found:
        return sorted(found.args[0], key=lambda ji: (ji[0], -ji[1]))
    return None


def verify_order_alpha(
    g: GeneratingMatrixSet,
    alpha: int,
    t: int,
    budget: int = DEFAULT_PATTERN_BUDGET,
) -> bool:
    """True iff the matrices satisfy the order-alpha condition at quality t."""
    return find_dependency(g, alpha, t, budget=budget) is None


def smallest_certified_t(
    g: GeneratingMatrixSet,
    alpha: int,
    budget: int = DEFAULT_PATTERN_BUDGET,
) -> int:
    """Smallest t the verifier certifies, walking down from a passing bound.

    Starts at the formula bound, moves up while violated, then down while
    certified.  Every net is certified at t = alpha*m, where no row is
    admissible, so the walk up stops there at the latest.  Budget overruns
    propagate.
    """
    hi = alpha * g.width
    t = min(g.t_bound if g.t_bound is not None else hi, hi)
    while not verify_order_alpha(g, alpha, t, budget=budget):
        t += 1
    while t > 0 and verify_order_alpha(g, alpha, t - 1, budget=budget):
        t -= 1
    return t


def box_counts(
    points: Sequence[DyadicPoint], d: Sequence[int]
) -> dict[tuple[int, ...], int]:
    """Points per elementary box prod_j [a_j 2^-d_j, (a_j+1) 2^-d_j).

    Returns every box, zero counts included.  For a (t,m,s)-net with
    sum(d_j) = m - t each count equals 2^t.
    """
    if not points:
        raise ValueError("empty point set")
    s = points[0].s
    if len(d) != s:
        raise ValueError("one exponent per coordinate required")
    if any(dj < 0 for dj in d):
        raise ValueError("negative box exponent")
    if sum(d) > DEFAULT_POINT_BUDGET_EXPONENT:  # 2^22 boxes take ~0.4 GB as a dict
        raise BudgetExceeded(f"2^{sum(d)} boxes exceed budget 2^{DEFAULT_POINT_BUDGET_EXPONENT}")
    if max(d, default=0) > min(pt.precision for pt in points):
        raise ValueError("box finer than the point precision")
    counts: dict[tuple[int, ...], int] = {
        box: 0 for box in product(*(range(1 << dj) for dj in d))
    }
    for pt in points:
        counts[tuple(c >> (pt.precision - dj) for c, dj in zip(pt.coords, d))] += 1
    return counts


@dataclass(frozen=True)
class JAlphaBox:
    """One coordinate's union-of-intervals constraint: digit a_i = kappa_i.

    Positions must be strictly decreasing and at least -len(a)+1;
    non-positive positions impose no restriction.  Empty lists mean [0,1).
    """

    a: tuple[int, ...]
    kappa: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.a) != len(self.kappa):
            raise ValueError("positions and digits must pair up")
        nu = len(self.a)
        for i in range(nu - 1):
            if self.a[i] <= self.a[i + 1]:
                raise ValueError("malformed box: positions must strictly decrease")
        if nu and self.a[-1] < -nu + 1:
            raise ValueError(f"malformed box: positions must be >= {-nu + 1}")
        if any(k not in (0, 1) for k in self.kappa):
            raise ValueError("digits must be 0 or 1")

    def constrained_digits(self) -> int:
        return sum(1 for ai in self.a if ai >= 1)

    def contains(self, num: int, prec: int) -> bool:
        """Whether num * 2^-prec has the pinned digits; digit a is
        (num << a >> prec) & 1, which is 0 beyond the precision."""
        return all(
            (num << ai >> prec) & 1 == ki for ai, ki in zip(self.a, self.kappa) if ai >= 1
        )


def j_alpha_count(
    points: Sequence[DyadicPoint], boxes: Sequence[JAlphaBox]
) -> tuple[int, Fraction]:
    """(points inside, volume) for a product of digit-pinned interval unions.

    Volume is 2^-(number of constrained digits) per coordinate; fairness,
    count == 2^m * volume, is the caller's predicate.
    """
    if not points:
        raise ValueError("empty point set")
    if len(boxes) != points[0].s:
        raise ValueError("one box per coordinate required")
    volume = Fraction(1, 1 << sum(b.constrained_digits() for b in boxes))
    count = 0
    for pt in points:
        if all(b.contains(pt.coords[j], pt.precision) for j, b in enumerate(boxes)):
            count += 1
    return count, volume


@dataclass(frozen=True)
class DualNetBasis:
    """Kernel basis of the stacked transposed system of a truncated net.

    Each basis mask is s concatenated digit vectors of digit_range bits,
    coordinate j occupying bits [j*digit_range, (j+1)*digit_range).
    """

    s: int
    m: int
    digit_range: int
    rank: int
    basis: tuple[int, ...]

    def size(self) -> int:
        return 1 << len(self.basis)

    def _split(self, mask: int) -> WalshIndex:
        r = self.digit_range
        keep = (1 << r) - 1
        return tuple((mask >> (j * r)) & keep for j in range(self.s))

    def elements(self) -> Iterator[WalshIndex]:
        """All nonzero dual frequency vectors with components below
        2^digit_range, element n being the XOR of the basis masks picked by
        the bits of n (n = 1 .. size - 1)."""
        return map(self._split, islice(span(self.basis), 1, None))

    def contains(self, ks: WalshIndex, matrices: Sequence[BitMatrix]) -> bool:
        """Membership check via the defining linear system.

        Digit i of k_j selects row i+1 of C_j; digits beyond the stored
        rows hit the implicit zero rows of the sequence matrices.
        """
        acc = 0
        for k, mat in zip(ks, matrices):
            acc ^= xor_rows(mat.data, k & ((1 << mat.rows) - 1))
        return acc == 0


def dual_enumerate(
    g: GeneratingMatrixSet,
    digit_range: int | None = None,
    budget_exponent: int = DEFAULT_DUAL_EXPONENT,
) -> DualNetBasis:
    """Dual-net basis for a truncated matrix set: k is dual when the rows
    its digits select XOR to zero, so the basis is the dependencies among
    the rows of C_1 .. C_s, coordinate-major.

    digit_range defaults to the depth; a larger range appends zero rows,
    matching the sequence matrices whose later rows vanish on the first
    width columns.
    """
    r = g.depth if digit_range is None else digit_range
    if r < g.depth:
        raise ValueError("digit range below matrix depth")
    if g.s * r - g.width > budget_exponent:
        raise VerificationBudgetError(1 << max(g.s * r - g.width, 0), 1 << budget_exponent)
    # row k of C_j is column j*r + k of the system sum_j C_j^T k_j = 0
    basis = dependencies([row for mat in g.matrices
                          for row in mat.data + (0,) * (r - mat.rows)])
    if len(basis) > budget_exponent:
        raise VerificationBudgetError(1 << len(basis), 1 << budget_exponent)
    return DualNetBasis(
        s=g.s,
        m=g.width,
        digit_range=r,
        rank=r * g.s - len(basis),
        basis=tuple(basis),
    )


_CHUNK_BITS = 12
_BLOCK_BITS = 12  # low-block span size 2^12 keeps each block's arrays ~100 KB


@functools.lru_cache(maxsize=8)
def _chunk_tables(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat tables over (order left a, 12-bit chunk x), index a*4096 + x.

    The first holds mu_alpha(x, a), the second the number of set bits it
    takes, min(popcount(x), a).  Row a = 0 is zero: nothing left to take.
    """
    size = 1 << _CHUNK_BITS
    mu = np.zeros((order + 1, size), dtype=np.int64)
    taken = np.zeros((order + 1, size), dtype=np.int64)
    for a in range(1, order + 1):
        mu[a] = [mu_alpha(x, a) for x in range(size)]
        taken[a] = [min(x.bit_count(), a) for x in range(size)]
    mu.flags.writeable = taken.flags.writeable = False
    return mu.ravel(), taken.ravel()


def dual_min_weight(dual: DualNetBasis, order: int = 1) -> int | float:
    """Minimum order-``order`` weight over the nonzero dual elements.

    The weight of (k_1, ..., k_s) is the sum of mu_alpha(k_j, order).
    Returns an int, or math.inf (the only float) when the truncated-range
    dual is trivial.  For an order-``order`` (t,m,s)-net the minimum
    exceeds order*m - t.

    Each coordinate's digit vector is held as ceil(digit_range/64) uint64
    words.  The span of the first 12 basis masks is built once as columns
    of words; every element of the span of the remaining masks is XORed
    into it, one 2^12-element block at a time.  A weight walks the 12-bit
    chunks of each coordinate from the highest down, looking up mu_alpha
    of the chunk for the number of bits still to take.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not dual.basis:
        return math.inf
    s, r = dual.s, dual.digit_range
    mu, taken = _chunk_tables(order)
    size = 1 << _CHUNK_BITS
    nwords = -(-r // 64)

    def words(mask: int) -> np.ndarray:
        out = []
        for j in range(s):
            digits = (mask >> (j * r)) & ((1 << r) - 1)
            out.extend((digits >> (64 * w)) & 0xFFFF_FFFF_FFFF_FFFF for w in range(nwords))
        return np.array(out, dtype=np.uint64)

    # per coordinate, its chunks from the highest: (word row, shift in the
    # word, bit offset of the chunk in the digit vector)
    chunks = []
    for j in range(s):
        steps = []
        for w in reversed(range(nwords)):
            nbits = min(64, r - 64 * w)
            for c in reversed(range(-(-nbits // _CHUNK_BITS))):
                steps.append((j * nwords + w, c * _CHUNK_BITS, 64 * w + c * _CHUNK_BITS))
        chunks.append(steps)

    low = np.zeros((s * nwords, 1), dtype=np.uint64)
    for mask in dual.basis[:_BLOCK_BITS]:
        low = np.concatenate((low, low ^ words(mask)[:, None]), axis=1)
    block = np.empty_like(low)
    best = math.inf
    for n, high in enumerate(span(dual.basis[_BLOCK_BITS:])):
        np.bitwise_xor(low, words(high)[:, None], out=block)
        weight = np.zeros(block.shape[1], dtype=np.int64)
        for steps in chunks:
            left = order
            for row, shift, offset in steps:
                idx = ((block[row] >> shift) & (size - 1)).view(np.int64) + left * size
                weight += mu[idx]
                if offset:  # only the lowest chunk sits at offset 0; nothing follows it
                    took = taken[idx]
                    weight += offset * took
                    left = left - took
        best = min(best, int(weight[1:].min() if n == 0 else weight.min()))
    return best


def character_sum(points: Sequence[DyadicPoint], ks: WalshIndex) -> int:
    """Exact Walsh character sum over a digital net.

    Equals the net size for dual frequency vectors and 0 otherwise.
    """
    return sum(wal_vec(ks, pt) for pt in points)
