"""L2 discrepancy: Warnock closed form, prefix scans, series checks, oracles.

The squared L2 discrepancy of points x_0..x_{N-1} in [0,1)^s is

    3^-s - (2/N) S1 + S2/N^2,   S1 = sum_n prod_j (1 - x_nj^2)/2,
                                S2 = sum_{n,m} prod_j (1 - max(x_nj, x_mj)).

S1 is always an exact integer in the fixed-point domain, and S2 runs over
per-dimension columns of 1 - x (1 - max(x,y) = min(1-x, 1-y)).  Two kernels
compute S2, chosen by the dimension and by one-shot versus scan:

* the dominance sweep (Heinrich, Math. Comp. 65, 1996) for one-shots with
  s <= 2 and scans with s = 1: O(N log N) exact integer operations over
  log N levels of int64 sorts, with no size limit;
* the O(N^2 s) row loop for scans with s >= 2 and one-shots with s >= 3:
  one pass that yields S2 after every point, so the one-shot value is the
  scan's last row.  Exact mode keeps Python integers and is limited to
  N <= EXACT_LIMIT; float mode computes each point's row in float64 and
  adds the row exactly to an integer S2.

Every value closes with one integer numerator over one integer denominator:
a Fraction in exact mode, otherwise the float that division rounds
correctly from it.  A float from the sweep is thus the rounded exact value,
and one from the row loop the rounded exact sum of its float64 rows.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .points import DyadicPoint
from .walsh import r_coeff, wal_vec

EXACT_LIMIT = 1024
SERIES_BUDGET = 200_000


def _normalize(points: Sequence[DyadicPoint]) -> tuple[list[tuple[int, ...]], int, int]:
    """Common (numerators, precision, dimension); pads shorter precisions."""
    if not points:
        raise ValueError("empty point set")
    s = points[0].s
    prec = max(pt.precision for pt in points)
    nums = []
    for pt in points:
        if pt.s != s:
            raise ValueError("points must share a dimension")
        shift = prec - pt.precision
        nums.append(tuple(c << shift for c in pt.coords))
    return nums, prec, s


def _complements(nums: list[tuple[int, ...]], prec: int, j: int) -> np.ndarray:
    """1 - x_j of every point as Python ints in units of 2^-prec."""
    one = 1 << prec
    return np.array([one - row[j] for row in nums], dtype=object)


def _prefix_sums(
    nums: list[tuple[int, ...]], prec: int, s: int, exact: bool
) -> Iterator[int]:
    """Yield S2 over the first N points, for N = 1, 2, ..., as an int in
    units of 2^-sp.

    Point n adds its kernel with each earlier point twice and with itself
    once.  Exact mode keeps the columns as Python ints.  Float mode computes
    each point's row in float64 and adds it exactly: every float here is a
    multiple of 2^-sp (the columns are multiples of 2^-p, min is exact, and
    rounding to 53 bits or into the subnormal range keeps a multiple of
    2^-u for u <= 1074, while above that every float is one), so the shift
    below is never negative.
    """
    if exact and len(nums) > EXACT_LIMIT:
        raise ValueError(f"exact mode limited to {EXACT_LIMIT} points")
    cols = [_complements(nums, prec, j) for j in range(s)]
    if not exact:
        one = 1 << prec
        cols = [(col / one).astype(float) for col in cols]
    s2 = 0
    for n in range(len(nums)):
        row = np.minimum(cols[0][:n], cols[0][n])
        diag = cols[0][n]
        for col in cols[1:]:
            row *= np.minimum(col[:n], col[n])
            diag *= col[n]
        added = 2 * row.sum() + diag
        if not exact:
            a, b = added.as_integer_ratio()
            added = a << (s * prec + 1 - b.bit_length())
        s2 += added
        yield s2


def _dominance_sums(b: np.ndarray) -> np.ndarray:
    """T[k] = sum_{l>k} min(b[k], b[l]) for an object array of Python ints.

    Works bottom-up over positions like a merge sort: at each width every
    left half-block adds its sums against the right half-block next to it.
    Right halves sorted by (block, rank of b) give, by binary search, each
    left point's block, the right points below it and their prefix sum.
    Tied values may fall on either side, as min(v, v) = v.
    """
    n = len(b)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(b, kind="stable")] = np.arange(n)
    pos = np.arange(n)
    sums = np.zeros(n, dtype=object)
    half = 1
    while half < n:
        block = pos // (2 * half)
        key = block * n + rank
        right = (pos & half) != 0
        left = ~right
        rkey = key[right]
        order = np.argsort(rkey)
        rkey = rkey[order]
        csum = np.concatenate(([0], np.cumsum(b[right][order])))
        lo = block[left] * n
        start = np.searchsorted(rkey, lo)
        stop = np.searchsorted(rkey, lo + n)
        cut = np.searchsorted(rkey, key[left])
        # two updates keep one array of new big ints alive at a time, not two
        sums[left] += csum[cut] - csum[start]
        sums[left] += b[left] * (stop - cut)
        half *= 2
    return sums


def _point_terms(nums: list[tuple[int, ...]], prec: int) -> Iterator[int]:
    """prod_j (1 - x_j^2)/2 of every point, in units of 2^-s(2p+1)."""
    one2 = 1 << 2 * prec
    return (math.prod(one2 - c * c for c in row) for row in nums)


def _sweep_pair_sum(nums: list[tuple[int, ...]], prec: int, s: int) -> int:
    """Exact S2 for s <= 2 by one dominance sweep.

    At s = 2 the points are sorted by a = 1 - x_1, so min(a_k, a_l) = a_k
    for k < l and S2 = 2 sum_k a_k T_k + sum_k a_k b_k with T over b = 1 - x_2.
    """
    a = _complements(nums, prec, 0)
    if s == 1:
        return 2 * _dominance_sums(a).sum() + a.sum()
    order = np.argsort(a, kind="stable")
    a = a[order]
    b = _complements(nums, prec, 1)[order]
    return 2 * a.dot(_dominance_sums(b)) + a.dot(b)


def _sweep_prefix_sums(nums: list[tuple[int, ...]], prec: int) -> np.ndarray:
    """Exact S2 of every prefix of a 1-d point list, as Python ints.

    The sweep over the reversed list sums each point's kernel with every
    earlier point, so point n adds 2 T_n + b_n to S2.
    """
    b = _complements(nums, prec, 0)
    earlier = _dominance_sums(b[::-1])[::-1]
    return np.cumsum(2 * earlier + b)


def _rational_value(
    count: int, s1: int, s2: int, s: int, prec: int, exact: bool
) -> float | Fraction:
    """3^-s - (2/N) S1 + S2/N^2 as one integer numerator over one integer
    denominator: a Fraction in exact mode, and otherwise the float that
    int/int division rounds correctly from it."""
    three = 3**s
    scale = s * (2 * prec + 1)
    num = (
        (count * count << scale)
        - 2 * three * count * s1
        + (three * s2 << s * (prec + 1))
    )
    den = three * count * count << scale
    return Fraction(num, den) if exact else num / den


def warnock_l2_sq(points: Sequence[DyadicPoint], exact: bool = False) -> float | Fraction:
    """Squared L2 discrepancy; Fraction in exact mode, float otherwise."""
    nums, prec, s = _normalize(points)
    if s <= 2:
        s2 = _sweep_pair_sum(nums, prec, s)
    else:
        s2 = deque(_prefix_sums(nums, prec, s, exact), maxlen=1).pop()
    return _rational_value(len(nums), sum(_point_terms(nums, prec)), s2, s, prec, exact)


def warnock_l2(points: Sequence[DyadicPoint], exact: bool = False) -> float:
    """L2 discrepancy (square root of the Warnock expression)."""
    return math.sqrt(warnock_l2_sq(points, exact=exact))


def sum_of_digits(n: int) -> int:
    """Number of ones in the binary expansion of n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n.bit_count()


@dataclass(frozen=True)
class ScanRow:
    n: int
    l2: float
    s_of_n: int
    ratio_roth: float
    ratio_proinov: float


@dataclass
class DiscrepancyReport:
    """Prefix L2 values with sum-of-digits and normalized ratios, N ascending."""

    s: int
    rows: list[ScanRow] = field(default_factory=list)

    CSV_HEADER = "N,l2,S,ratio_roth,ratio_proinov"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.n},{r.l2!r},{r.s_of_n},{r.ratio_roth!r},{r.ratio_proinov!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse_csv(cls, text: str, s: int = 0) -> DiscrepancyReport:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != cls.CSV_HEADER:
            raise ValueError("bad scan CSV header")
        report = cls(s=s)
        for ln in lines[1:]:
            n_str, l2_str, s_str, rr_str, rp_str = ln.split(",")
            report.rows.append(
                ScanRow(int(n_str), float(l2_str), int(s_str), float(rr_str), float(rp_str))
            )
        return report


def _ratios(n: int, l2: float, s: int) -> tuple[float, float]:
    log_pow = math.log(n) ** ((s - 1) / 2)
    roth = l2 * n / log_pow
    return roth, roth / math.sqrt(sum_of_digits(n))


def warnock_scan(
    seq: Iterable[DyadicPoint], n_max: int, exact: bool = False
) -> DiscrepancyReport:
    """Prefix L2 for every N = 2..n_max of a point stream.

    At s = 1 the dominance sweep gives every prefix's exact sums in
    O(n_max log n_max), and each row is the square root of the correctly
    rounded exact value in both modes.  At s >= 2 the row loop keeps a
    running integer S2, so the scan costs O(n_max^2 * s) kernel evaluations
    and exact mode is limited to EXACT_LIMIT points.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    points = list(islice(seq, n_max))
    if len(points) < n_max:
        raise ValueError(f"stream ended after {len(points)} points, need {n_max}")
    nums, prec, s = _normalize(points)
    if s == 1:
        pair_sums = _sweep_prefix_sums(nums, prec)
    else:
        pair_sums = _prefix_sums(nums, prec, s, exact)
    prefixes = zip(range(1, n_max + 1), accumulate(_point_terms(nums, prec)), pair_sums)
    report = DiscrepancyReport(s=s)
    for count, s1, s2 in islice(prefixes, 1, None):
        l2 = math.sqrt(_rational_value(count, s1, s2, s, prec, exact))
        roth, proinov = _ratios(count, l2, s)
        report.rows.append(ScanRow(count, l2, sum_of_digits(count), roth, proinov))
    return report


def _scalar_pairs(k_limit: int) -> list[tuple[int, int, Fraction]]:
    """Nonzero (k, l, r(k,l)) with 0 <= k, l < k_limit."""
    out = []
    for k in range(k_limit):
        for l in range(k_limit):
            r = r_coeff(k, l)
            if r:
                out.append((k, l, r))
    return out


def walsh_series_l2(
    points: Sequence[DyadicPoint], trunc: int, budget: int = SERIES_BUDGET
) -> float:
    """Truncated double Walsh series of the squared L2 discrepancy.

    Sums r(k, l) * mean(wal_k) * mean(wal_l) over all index vectors with
    components below 2^trunc, excluding the all-zero vectors, using exact
    rational accumulation.  Returns the squared-discrepancy partial sum;
    rejected with a cost estimate when the nonzero-pair count exceeds the
    budget (cost grows as 4^(s*trunc)).
    """
    nums, prec, s = _normalize(points)
    if s > 2:
        raise ValueError("series evaluation supports s <= 2 only")
    if trunc < 0:
        raise ValueError("negative truncation")
    k_limit = 1 << trunc
    pairs = _scalar_pairs(k_limit)
    if s == 1:
        live = [(k, l, r) for k, l, r in pairs if k and l]
        if len(live) > budget:
            raise ValueError(f"series cost {len(live)} pairs exceeds budget {budget}")
        means = _wal_means(points, [(k,) for k in range(k_limit)])
        total = Fraction(0)
        for k, l, r in live:
            total += r * means[k] * means[l]
        return float(total)
    estimate = len(pairs) * len(pairs)
    if estimate > budget:
        raise ValueError(f"series cost {estimate} pair combinations exceeds budget {budget}")
    mean_cache: dict[tuple[int, int], Fraction] = {}

    def mean(kvec: tuple[int, int]) -> Fraction:
        got = mean_cache.get(kvec)
        if got is None:
            got = Fraction(sum(wal_vec(kvec, pt) for pt in points), len(points))
            mean_cache[kvec] = got
        return got

    total = Fraction(0)
    for k1, l1, r1 in pairs:
        for k2, l2, r2 in pairs:
            if (k1 or k2) and (l1 or l2):
                total += r1 * r2 * mean((k1, k2)) * mean((l1, l2))
    return float(total)


def _wal_means(points: Sequence[DyadicPoint], kvecs) -> list[Fraction]:
    n = len(points)
    return [Fraction(sum(wal_vec(kv, pt) for pt in points), n) for kv in kvecs]


def quadrature_oracle_l2(points: Sequence[DyadicPoint], grid: int | None = None) -> float:
    """L2 discrepancy straight from its definition, independent of Warnock.

    s = 1: exact piecewise integration of the local discrepancy after
    sorting (no grid).  s = 2: midpoint rule for |Delta|^2 on the
    2^grid x 2^grid mesh, with O(2^-grid) bias.  Larger s is rejected.
    """
    nums, prec, s = _normalize(points)
    if s == 1:
        return _quadrature_1d(nums, prec)
    if s == 2:
        if grid is None:
            raise ValueError("s = 2 needs a grid exponent")
        return _quadrature_2d(nums, prec, int(grid))
    raise ValueError("quadrature oracle supports s <= 2 only")


def _quadrature_1d(nums, prec) -> float:
    n = len(nums)
    values = sorted(Fraction(row[0], 1 << prec) for row in nums)
    bounds = [Fraction(0)] + values + [Fraction(1)]
    total = Fraction(0)
    for i in range(n + 1):
        a, b = bounds[i], bounds[i + 1]
        if a == b:
            continue
        c = Fraction(i, n)
        total += ((c - a) ** 3 - (c - b) ** 3) / 3
    return math.sqrt(total)


def _quadrature_2d(nums, prec, grid: int) -> float:
    if grid < 1:
        raise ValueError("grid exponent must be >= 1")
    n = len(nums)
    cells = 1 << grid
    fine = grid + 1
    bins = np.zeros((2, n), dtype=np.int64)
    for j in range(2):
        for i, row in enumerate(nums):
            q = row[j] >> (prec - fine) if prec >= fine else row[j] << (fine - prec)
            bins[j, i] = (q + 1) // 2
    hist = np.zeros((cells, cells), dtype=np.int64)
    inside = (bins[0] < cells) & (bins[1] < cells)
    np.add.at(hist, (bins[0][inside], bins[1][inside]), 1)
    counts = hist.cumsum(axis=0).cumsum(axis=1)
    mids = (2.0 * np.arange(cells) + 1.0) / (2.0 * cells)
    delta = counts / n - np.outer(mids, mids)
    return math.sqrt(float(np.mean(delta * delta)))
