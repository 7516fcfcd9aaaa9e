"""Dyadic points of digital nets: generation, interlacing, shifts.

A point stores one unsigned numerator per coordinate at a shared precision
p, so coordinate values are num * 2^-p and every digit operation is exact
integer work.  Digit indices are 1-based from the binary point: digit i of
num at precision p is bit p-i.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .genmat import GeneratingMatrixSet, interlace_matrices, sobol_matrices
from .gf2 import BitMatrix, xor_rows

COROLLARY_PRECISION = 128
DEFAULT_POINT_BUDGET_EXPONENT = 22  # at most 2^22 points (gen, disc, scan) or lines (rtable)


class BudgetExceeded(ValueError):
    """A request refused for its size; the message names the size and the budget."""


@dataclass(frozen=True)
class DyadicPoint:
    """Point in [0,1)^s with one numerator per coordinate at shared precision."""

    coords: tuple[int, ...]
    precision: int

    def __post_init__(self) -> None:
        if self.precision < 0:
            raise ValueError("negative precision")
        top = 1 << self.precision
        for c in self.coords:
            if not 0 <= c < top:
                raise ValueError("coordinate outside [0,1)")

    @property
    def s(self) -> int:
        return len(self.coords)


@functools.lru_cache(maxsize=64)
def _column_numerators(g: GeneratingMatrixSet) -> tuple[tuple[int, ...], ...]:
    """Per coordinate, column l of the matrix read as a digit numerator.

    Row k maps to digit k, i.e. bit depth-k of the numerator; reversing the
    rows puts row k at index depth-k, so the numerators are the columns of
    the reversed matrix.  The numerator of point n is the XOR of the
    column numerators picked by the bits of n (xor_rows).  Memoised per
    matrix set, so nth_point and the columnar builds share one immutable
    build.
    """
    flipped = (BitMatrix.from_rows(mat.data[::-1], g.width) for mat in g.matrices)
    return tuple(rev.columns() for rev in flipped)


def _net_columns(g: GeneratingMatrixSet, count: int | None = None) -> list[np.ndarray]:
    """Per coordinate, the numerators of points 0 .. count-1 (default all) in index order.

    Points 2^l .. 2^(l+1)-1 are points 0 .. 2^l-1 XOR column numerator l, so
    doubling, col = concat(col, col ^ c), lists xor_rows(per, n) for n in
    index order, as gf2.span does.  It stops once count entries exist.
    uint64 holds depths up to 64; deeper numerators are Python ints in
    object arrays.
    """
    total = 1 << g.width
    if count is None:
        count = total
    if not 0 <= count <= total:
        raise ValueError(f"count {count} out of range for width {g.width}")
    levels = max(count - 1, 0).bit_length()
    dtype = np.uint64 if g.depth <= 64 else object
    cols = []
    for per in _column_numerators(g):
        col = np.zeros(1 << levels, dtype=dtype)
        for l, c in enumerate(per[:levels]):
            np.bitwise_xor(col[: 1 << l], c, out=col[1 << l : 2 << l])
        cols.append(col[:count])
    return cols


def _points(cols: list[np.ndarray], precision: int) -> list[DyadicPoint]:
    """One DyadicPoint per row of the numerator columns, as Python ints."""
    return [DyadicPoint(nums, precision) for nums in zip(*(c.tolist() for c in cols))]


def nth_point(g: GeneratingMatrixSet, n: int) -> DyadicPoint:
    """Point of index n; digit k of coordinate j is row k of C_j applied to
    the binary digit vector of n."""
    if not 0 <= n < (1 << g.width):
        raise ValueError(f"index {n} needs more than {g.width} digit columns")
    return DyadicPoint(tuple(xor_rows(per, n) for per in _column_numerators(g)), g.depth)


def net_points(g: GeneratingMatrixSet, count: int | None = None) -> list[DyadicPoint]:
    """First ``count`` points (default all 2^width) in index order, built
    as numerator columns (_net_columns) and read out row by row."""
    return _points(_net_columns(g, count), g.depth)


def interlace_point(x: DyadicPoint, alpha: int) -> DyadicPoint:
    """Digit-interlace blocks of alpha coordinates into one coordinate each.

    Output digit r + (a-1)*alpha of block b is digit a of input coordinate
    (b-1)*alpha + r; output precision is alpha times the input precision.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if x.s % alpha:
        raise ValueError(f"dimension {x.s} not divisible by alpha={alpha}")
    if alpha == 1:
        return x
    p = x.precision
    out_prec = alpha * p
    out = []
    for b in range(x.s // alpha):
        acc = 0
        for r in range(1, alpha + 1):
            num = x.coords[b * alpha + r - 1]
            for a in range(1, p + 1):
                if (num >> (p - a)) & 1:
                    acc |= 1 << (out_prec - (r + (a - 1) * alpha))
        out.append(acc)
    return DyadicPoint(tuple(out), out_prec)


def digital_shift(x: DyadicPoint, sigma: DyadicPoint) -> DyadicPoint:
    """Digit-wise XOR; the shorter operand is zero-padded on the right."""
    if len(x.coords) != len(sigma.coords):
        raise ValueError("dimension mismatch")
    p = max(x.precision, sigma.precision)
    dx, ds = p - x.precision, p - sigma.precision
    return DyadicPoint(tuple((a << dx) ^ (b << ds) for a, b in zip(x.coords, sigma.coords)), p)


def _shift_columns(
    cols: list[np.ndarray], precision: int, sigma: DyadicPoint
) -> tuple[list[np.ndarray], int]:
    """digital_shift of every row of the numerator columns, one XOR per
    column; uint64 up to a shared precision of 64, object arrays beyond."""
    if len(cols) != len(sigma.coords):
        raise ValueError("dimension mismatch")
    p = max(precision, sigma.precision)
    dtype = np.uint64 if p <= 64 else object
    dx, ds = p - precision, p - sigma.precision
    return [(c.astype(dtype) << dx) ^ (b << ds) for c, b in zip(cols, sigma.coords)], p


def _prefix_matrix(m: int) -> BitMatrix:
    # digit k of n*2^-m is bit m-k of n: the column-reversal permutation
    return BitMatrix.from_rows([1 << (m - k) for k in range(1, m + 1)], m)


def _corollary_net(s: int, n_points: int) -> tuple[list[np.ndarray], int]:
    """Numerator columns (precision 3m) of the interlaced net's points in
    the slab [0, N/2^m) x [0,1)^(s-1), in index order, and m."""
    if n_points < 2:
        raise ValueError("need at least two points")
    m = (n_points - 1).bit_length()
    if 3 * m > COROLLARY_PRECISION:
        raise ValueError("point count too large for the fixed-precision path")
    base = sobol_matrices(3 * s - 1, m, m)
    mats = (_prefix_matrix(m),) + base.matrices
    src = GeneratingMatrixSet(3 * s, m, m, mats, 1, None)
    cols = _net_columns(interlace_matrices(src, 3))
    keep = cols[0] < n_points << (2 * m)
    kept = [c[keep] for c in cols]
    if len(kept[0]) != n_points:
        raise AssertionError(
            f"first coordinate is not a (0,{m},1)-net: kept {len(kept[0])} of {n_points}"
        )
    return kept, m


def _corollary_columns(s: int, n_points: int) -> tuple[list[np.ndarray], int]:
    """Numerator columns of corollary_pointset and their shared precision."""
    kept, m = _corollary_net(s, n_points)
    if n_points == 1 << m:
        return kept, 3 * m
    p = COROLLARY_PRECISION
    first = (kept[0].astype(object) << (p - 2 * m)) // n_points
    return [first] + [c.astype(object) << (p - 3 * m) for c in kept[1:]], p


def corollary_pointset(s: int, n_points: int) -> list[DyadicPoint]:
    """N-point set built by interlacing an index-prefixed net and rescaling.

    The first 2^m points of the order-3 interlaced construction in
    dimension s, with n*2^-m prepended before interlacing, are cut to the
    slab [0, N/2^m) x [0,1)^(s-1) (exactly N survive) and the first
    coordinate is stretched by 2^m/N.  Stretched coordinates are rationals
    with denominator N*2^(2m); they are stored at 128-bit fixed precision,
    rounded toward zero.  For N = 2^m no cut or stretch happens and the
    interlaced net is returned as-is.
    """
    return _points(*_corollary_columns(s, n_points))


def corollary_exact_coords(s: int, n_points: int) -> list[tuple[Fraction, ...]]:
    """Exact rational coordinates of corollary_pointset, for oracles."""
    kept, m = _corollary_net(s, n_points)
    first, rest = n_points << (2 * m), 1 << (3 * m)
    return [
        (Fraction(c0, first),) + tuple(Fraction(c, rest) for c in cs)
        for c0, *cs in zip(*(c.tolist() for c in kept))
    ]
