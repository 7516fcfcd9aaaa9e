"""L2 discrepancy: Warnock closed form, prefix scans, series checks, oracles.

The squared L2 discrepancy of points x_0..x_{N-1} in [0,1)^s is

    3^-s - (2/N) S1 + S2/N^2,   S1 = sum_n prod_j (1 - x_nj^2)/2,
                                S2 = sum_{n,m} prod_j (1 - max(x_nj, x_mj)).

Every path reads the points once, into one numerator column per coordinate
(object arrays of Python ints at one common precision), and does its exact
integer work over those arrays.  S1 is an exact integer in the fixed-point
domain, one array product over the columns, and S2 runs over the columns of
1 - x (1 - max(x,y) = min(1-x, 1-y)).  Three kernels compute S2, chosen by
the dimension and by one-shot versus scan:

* one sort for one-shots at s = 1: over the complements in ascending order,
  S2 = sum_{i=0}^{N-1} b_(i) (2(N - i) - 1);
* the dominance sweep (Heinrich, Math. Comp. 65, 1996) for one-shots at
  s = 2 and scans at s = 1: O(N log N) exact integer operations over log N
  levels, each one int64 argsort and prefix sums over 31-bit int64 limbs of
  the complements, which are combined into Python ints once at the end;
* the O(N^2 s) row loop for scans with s >= 2 and one-shots with s >= 3:
  one pass that yields S2 after every point, so the one-shot value is the
  scan's last row.  Exact mode keeps Python integers and is limited to
  N <= EXACT_LIMIT; float mode computes each point's row in float64 and
  adds the row exactly to an integer S2.

Every value closes with one integer numerator over one integer denominator:
a Fraction in exact mode, otherwise the float that division rounds
correctly from it (a scan builds both as arrays over all its rows).  A
float from the sort or the sweep is thus the rounded exact value, and one
from the row loop the rounded exact sum of its float64 rows.

Two checks do not use Warnock.  The truncated Walsh series works from one
transform of the point histogram.  The quadrature oracle integrates
Delta^2 exactly over the cells of the coordinate grid at every s, or
averages it over a 2^grid-per-axis midpoint mesh with the same sums.  Its
cells, at most (N + 1)^s, are checked against QUADRATURE_BUDGET = 2^25
before any contraction, and its int64 work runs in chunks of CHUNK_CELLS
= 2^20 cells rather than over one dense tensor of all the cells.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .points import DyadicPoint
from .walsh import _r_table

EXACT_LIMIT = 1024
SERIES_BUDGET = 200_000
QUADRATURE_BUDGET = 1 << 25
CHUNK_CELLS = 1 << 20
LIMB_BITS = 31
MIN_LIMB_BITS = 8


def _columns(points: Sequence[DyadicPoint]) -> tuple[list[np.ndarray], int, int]:
    """(columns, precision, dimension): one object array of Python-int
    numerators per coordinate, all at the largest precision.  Lower
    precisions are padded by one shift array, built only when they differ."""
    if not points:
        raise ValueError("empty point set")
    coords = list(map(attrgetter("coords"), points))
    s = len(coords[0])
    if set(map(len, coords)) != {s}:
        raise ValueError("points must share a dimension")
    cols = [np.array(c, dtype=object) for c in zip(*coords)]
    precs = list(map(attrgetter("precision"), points))
    prec = max(precs)
    if min(precs) != prec:
        shift = prec - np.array(precs, dtype=object)
        cols = [c << shift for c in cols]
    return cols, prec, s


def _complements(cols: list[np.ndarray], prec: int, j: int) -> np.ndarray:
    """1 - x_j of every point as Python ints in units of 2^-prec."""
    return (1 << prec) - cols[j]


def _prefix_sums(cols: list[np.ndarray], prec: int, exact: bool) -> Iterator[int]:
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
    count, s = len(cols[0]), len(cols)
    if exact and count > EXACT_LIMIT:
        raise ValueError(f"exact mode limited to {EXACT_LIMIT} points")
    comps = [_complements(cols, prec, j) for j in range(s)]
    if not exact:
        one = 1 << prec
        comps = [(col / one).astype(float) for col in comps]
    s2 = 0
    for n in range(count):
        row = np.minimum(comps[0][:n], comps[0][n])
        diag = comps[0][n]
        for col in comps[1:]:
            row *= np.minimum(col[:n], col[n])
            diag *= col[n]
        added = 2 * row.sum() + diag
        if not exact:
            a, b = added.as_integer_ratio()
            added = a << (s * prec + 1 - b.bit_length())
        s2 += added
        yield s2


def _limbs(b: np.ndarray, bits: int = LIMB_BITS) -> list[np.ndarray]:
    """Non-negative Python ints as int64 limbs of bits <= 31 bits, least
    significant first (at least one).  The ints leave the object array two
    limbs at a time."""
    count = max(-(-int(b.max()).bit_length() // bits), 1)
    mask = (1 << bits) - 1
    limbs = []
    for k in range(0, count, 2):
        word = ((b >> bits * k if k else b) & (1 << 2 * bits) - 1).astype(np.int64)
        limbs += [word & mask, word >> bits]
    return limbs[:count]


def _ascending(limbs: list[np.ndarray]) -> np.ndarray:
    """Indices that sort the values given by their limbs, by one lexsort
    over pairs of limbs (int64 keys below 2^62)."""
    pairs = [lo | hi << LIMB_BITS for lo, hi in zip(limbs[::2], limbs[1::2])]
    return np.lexsort(pairs + limbs[2 * len(pairs):])


def _dominance_sums(b: np.ndarray) -> np.ndarray:
    """T[k] = sum_{l>k} min(b[k], b[l]) for an object array of non-negative
    Python ints.

    Works bottom-up over positions like a merge sort: at each width every
    left half-block adds its sums against the right half-block next to it.
    One argsort of (block, rank of b), a unique key, lists each block in
    ascending b; exclusive prefix sums of the right-half indicator and of
    the right-half limbs in that order give each left point the count and
    the sum of the right points below it, as differences at its block's
    start.  Tied values may fall on either side, as min(v, v) = v.  Every
    limb is below 2^31, and every prefix sum and every accumulated below-sum
    adds each point at most once, so all stay below n 2^31 < 2^63 for
    n < 2^32; the limbs become Python ints once, at the end.
    """
    n = len(b)
    limbs = _limbs(b)
    rank = np.empty(n, dtype=np.int64)
    rank[_ascending(limbs)] = np.arange(n)
    pos = np.arange(n)
    below = [np.zeros(n, dtype=np.int64) for _ in limbs]
    above = np.zeros(n, dtype=np.int64)
    prefix = np.zeros(n + 1, dtype=np.int64)
    half = 1
    while half < n:
        width = 2 * half
        order = np.argsort(pos // width * n + rank)
        right = (order & half) != 0
        lp = np.flatnonzero(~right)
        start = lp // width * width
        left = order[lp]
        np.cumsum(right, out=prefix[1:])
        under = prefix[lp] - prefix[start]
        right_count = np.clip(np.minimum(start + width, n) - start - half, 0, None)
        above[left] += right_count - under
        for limb, acc in zip(limbs, below):
            np.cumsum(np.where(right, limb[order], 0), out=prefix[1:])
            acc[left] += prefix[lp] - prefix[start]
        half = width
    sums = b * above.astype(object)
    for k, acc in enumerate(below):
        sums += acc.astype(object) << (LIMB_BITS * k)
    return sums


def _point_terms(cols: list[np.ndarray], prec: int) -> np.ndarray:
    """prod_j (1 - x_j^2)/2 of every point as Python ints, in units of
    2^-s(2p+1)."""
    one2 = 1 << 2 * prec
    terms = one2 - cols[0] * cols[0]
    for col in cols[1:]:
        terms = terms * (one2 - col * col)
    return terms


def _pair_sum(cols: list[np.ndarray], prec: int) -> int:
    """Exact S2 for s <= 2.

    At s = 1 one sort does: over b = 1 - x ascending, b_(i) is the min of
    its pair with itself and of both pairs with each of the N - 1 - i later
    values, so S2 = sum_i b_(i) (2(N - i) - 1).  At s = 2 the points are
    sorted by a = 1 - x_1, so min(a_k, a_l) = a_k for k < l and
    S2 = 2 sum_k a_k T_k + sum_k a_k b_k with T over b = 1 - x_2.
    """
    a = _complements(cols, prec, 0)
    order = _ascending(_limbs(a))
    a = a[order]
    if len(cols) == 1:
        return a.dot(np.arange(2 * len(a) - 1, 0, -2).astype(object))
    b = _complements(cols, prec, 1)[order]
    return 2 * a.dot(_dominance_sums(b)) + a.dot(b)


def _sweep_prefix_sums(cols: list[np.ndarray], prec: int) -> np.ndarray:
    """Exact S2 of every prefix of a 1-d point list, as Python ints.

    The sweep over the reversed list sums each point's kernel with every
    earlier point, so point n adds 2 T_n + b_n to S2.
    """
    b = _complements(cols, prec, 0)
    earlier = _dominance_sums(b[::-1])[::-1]
    return np.cumsum(2 * earlier + b)


def _rational_parts(count, s1, s2, s: int, prec: int):
    """Numerator and denominator of 3^-s - (2/N) S1 + S2/N^2, as Python ints
    or as object arrays of them over several (N, S1, S2)."""
    three = 3**s
    scale = s * (2 * prec + 1)
    num = (
        (count * count << scale)
        - 2 * three * count * s1
        + (three * s2 << s * (prec + 1))
    )
    den = three * count * count << scale
    return num, den


def warnock_l2_sq(points: Sequence[DyadicPoint], exact: bool = False) -> float | Fraction:
    """Squared L2 discrepancy; Fraction in exact mode, float otherwise.

    The float is the one that int/int division rounds correctly from the
    exact numerator and denominator."""
    cols, prec, s = _columns(points)
    if s <= 2:
        s2 = _pair_sum(cols, prec)
    else:
        s2 = deque(_prefix_sums(cols, prec, exact), maxlen=1).pop()
    num, den = _rational_parts(len(points), _point_terms(cols, prec).sum(), s2, s, prec)
    return Fraction(num, den) if exact else num / den


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


def warnock_scan(
    seq: Iterable[DyadicPoint], n_max: int, exact: bool = False
) -> DiscrepancyReport:
    """Prefix L2 for every N = 2..n_max of a point stream.

    At s = 1 the dominance sweep gives every prefix's exact sums in
    O(n_max log n_max), and each row is the square root of the correctly
    rounded exact value in both modes.  At s >= 2 the row loop keeps a
    running integer S2, so the scan costs O(n_max^2 * s) kernel evaluations
    and exact mode is limited to EXACT_LIMIT points.  Numerators and
    denominators of all rows are object arrays; the float division and the
    square root (both correctly rounded) run over them, while the log in
    the ratios stays per row, as libm's.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    points = list(islice(seq, n_max))
    if len(points) < n_max:
        raise ValueError(f"stream ended after {len(points)} points, need {n_max}")
    cols, prec, s = _columns(points)
    if s == 1:
        pair_sums = _sweep_prefix_sums(cols, prec)
    else:
        pair_sums = np.fromiter(_prefix_sums(cols, prec, exact), dtype=object, count=n_max)
    counts = range(2, n_max + 1)
    num, den = _rational_parts(np.array(counts, dtype=object),
                               np.cumsum(_point_terms(cols, prec))[1:], pair_sums[1:], s, prec)
    if exact:
        l2 = np.array([math.sqrt(Fraction(a, b)) for a, b in zip(num, den)])
    else:
        l2 = np.sqrt((num / den).astype(float))
    digits = list(map(sum_of_digits, counts))
    exponent = (s - 1) / 2
    roth = l2 * np.array(counts, dtype=float) / [math.log(n) ** exponent for n in counts]
    proinov = roth / np.sqrt(np.array(digits, dtype=float))
    rows = map(ScanRow, counts, l2.tolist(), digits, roth.tolist(), proinov.tolist())
    return DiscrepancyReport(s=s, rows=list(rows))


def walsh_series_l2(
    points: Sequence[DyadicPoint], trunc: int, budget: int = SERIES_BUDGET
) -> float:
    """Truncated double Walsh series of the squared L2 discrepancy.

    Sums r(k, l) W(k) W(l), W(k) the mean of wal_k, exactly over all index
    vectors with components below 2^trunc except the all-zero ones: one
    Walsh-Hadamard transform of the bit-reversed point histogram gives N W,
    and the r table scaled to integers acts along each axis (see
    docs/oracle_formulas.md, section 6).  Rejected with its cost estimate,
    before any work, when its sparse products exceed the budget.
    """
    cols, prec, s = _columns(points)
    if trunc < 0:
        raise ValueError("negative truncation")
    top = 1 << trunc
    estimate = s * (5 * top - 2 * trunc - 4) << (s - 1) * trunc
    if estimate > budget:
        raise ValueError(f"series cost {estimate} sparse products exceeds budget {budget}")
    cell = np.zeros(len(points), dtype=np.int64)
    for col in cols:
        cut = (col >> prec - trunc if prec >= trunc else col << trunc - prec).astype(np.int64)
        for i in range(trunc):
            cell = cell << 1 | cut >> i & 1
    sums = np.bincount(cell, minlength=top**s)
    for b in range(s * trunc):
        pairs = sums.reshape(-1, 2, 1 << b)
        sums = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1).ravel()
    sums = sums.astype(object)
    sums[0] = 0
    scale = 3 << 2 * trunc + 2
    table = [(k, l, scale // r.denominator * r.numerator) for k, l, r in _r_table(trunc)]
    x = sums.reshape(top, -1)
    for _ in range(s):  # C on the leading axis, which then moves last
        y = np.zeros_like(x)
        for k, l, c in table:
            y[k] += c * x[l]
        x = y.T.reshape(top, -1)
    return float(Fraction(sums.dot(x.ravel()), scale**s * len(points) ** 2))


def _cell_sums(
    index: np.ndarray, shape: list[int], linear: list[np.ndarray], square: list[np.ndarray]
) -> tuple[int, int]:
    """(sum A prod_j linear_j, sum A^2 prod_j square_j) over the cells of a
    grid of the given shape, A the box count: the number of points (the
    columns of index) whose cell is at most the cell's on every axis.

    Axis 0 contracts first, in chunks of rows of about CHUNK_CELLS cells.
    Each chunk is the histogram of its points, summed along the other axes
    and then down its rows from the last row of the chunk before.  Its rows
    meet the weights of axis 0 as int64 products with their limbs, each limb
    as wide as keeps the sum over the whole axis below 2^63 (as object
    products when that is under MIN_LIMB_BITS bits).  The other axes then
    contract on object arrays of Python ints.
    """
    count = index.shape[1]
    rest = math.prod(shape[1:])
    flat = np.zeros(count, dtype=np.int64)
    for cells, k in zip(index[1:], shape[1:]):
        flat = flat * k + cells
    order = np.argsort(index[0], kind="stable")
    row, flat = index[0][order], flat[order]
    terms = []
    for weights, top in ((linear, count), (square, count * count)):
        bits = min(LIMB_BITS, 62 - (shape[0] * top).bit_length())
        parts = _limbs(weights[0], bits) if bits >= MIN_LIMB_BITS else [weights[0]]
        terms.append((weights, bits, parts, [0] * len(parts)))
    carry = np.zeros(rest, dtype=np.int64)
    step = max(1, CHUNK_CELLS // rest)
    for k0 in range(0, shape[0], step):
        k1 = min(k0 + step, shape[0])
        lo, hi = np.searchsorted(row, (k0, k1))
        slab = np.bincount((row[lo:hi] - k0) * rest + flat[lo:hi], minlength=(k1 - k0) * rest)
        slab = slab.reshape(k1 - k0, *shape[1:])
        for axis in range(1, len(shape)):
            np.cumsum(slab, axis=axis, out=slab)
        slab = slab.reshape(k1 - k0, rest)
        np.cumsum(slab, axis=0, out=slab)
        slab += carry
        carry = slab[-1].copy()
        for k, (_, _, parts, acc) in enumerate(terms):
            if k:
                slab *= slab  # A, then A^2 in place
            for i, part in enumerate(parts):
                w = part[k0:k1]  # einsum takes object arrays only from numpy 1.25
                term = w.dot(slab) if w.dtype == object else np.einsum("k,kr->r", w, slab)
                acc[i] = acc[i] + term
    sums = []
    for weights, bits, _, acc in terms:
        x = sum(a.astype(object) << bits * i for i, a in enumerate(acc))
        for w in weights[1:]:
            x = w.dot(x.reshape(len(w), -1))
        sums.append(int(x[0]))
    return sums[0], sums[1]


def _quadrature_sq(points: Sequence[DyadicPoint], grid: int | None = None) -> Fraction:
    """The integral of Delta^2 over [0,1)^s, or with a grid its mean over
    the 2^grid midpoints per axis, as one exact Fraction.

    Each axis is cut at 0, at its end E and at the distinct positions of the
    points: their numerators with E = 2^p for the integral, and for the mesh
    with E = 2^grid the number of midpoints (i + 1/2)/E at or below each
    coordinate, so that a point counts for the midpoints from its position
    on.  The box count A is constant on the cells of the product grid.  On
    the block [v, v') of an axis both the integral and the midpoint mean
    of 1 and of t are (v' - v)/E and (v'^2 - v^2)/(2E^2); the mean of t^2
    over the axis is 1/3 for the integral and (4E^2 - 1)/(12E^2) for the
    mesh.  So the value is X/(N^2 E^s) - 2Y/(N (2E^2)^s) + that mean to the
    s, X and Y the cell sums of A^2 and A (docs/oracle_formulas.md,
    section 7).  Rejected with its cell count, before any contraction, when
    that exceeds QUADRATURE_BUDGET.
    """
    cols, prec, s = _columns(points)
    if grid is None:
        end, pos = 1 << prec, cols
    elif grid < 1:
        raise ValueError("grid exponent must be >= 1")
    else:
        end = 1 << grid
        pos = [np.minimum(((c << grid + 1) + (1 << prec)) >> prec + 1, end) for c in cols]
    axes = []
    for q in pos:
        if end.bit_length() < 64:  # sorted as int64
            q = q.astype(np.int64)
        v, inverse = np.unique(np.append(q, np.array([0, end], q.dtype)), return_inverse=True)
        axes.append((v.astype(object), inverse[:-2]))
    axes.sort(key=lambda axis: len(axis[0]), reverse=True)  # the longest axis goes in chunks
    shape = [len(v) - 1 for v, _ in axes]
    cells = math.prod(shape)
    if cells > QUADRATURE_BUDGET:
        raise ValueError(f"quadrature over {cells} cells exceeds budget {QUADRATURE_BUDGET}")
    index = np.array([i for _, i in axes], dtype=np.int64)
    inside = (index < np.array(shape)[:, None]).all(axis=0)  # a mesh end counts nowhere
    y, x = _cell_sums(index[:, inside], shape,
                      [np.diff(v * v) for v, _ in axes], [np.diff(v) for v, _ in axes])
    n = len(points)
    square_mean = 4 * end * end - (grid is not None)
    num = x * 12**s * end**s - 2 * n * y * 6**s + n * n * square_mean**s
    return Fraction(num, n * n * 12**s * end ** (2 * s))


def quadrature_oracle_l2(points: Sequence[DyadicPoint], grid: int | None = None) -> float:
    """L2 discrepancy straight from its definition, independent of Warnock.

    Without a grid, the exact integral of |Delta|^2 over the cells of the
    coordinate grid, at every s; with one, the midpoint rule on the
    2^grid-per-axis mesh, with O(2^-grid) bias, summed exactly.  Either is
    the square root of the correctly rounded exact value.  Rejected when
    the cells, at most (N + 1)^s, exceed QUADRATURE_BUDGET (see
    _quadrature_sq).
    """
    return math.sqrt(_quadrature_sq(points, grid))
