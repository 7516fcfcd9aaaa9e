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
from itertools import islice

from .genmat import GeneratingMatrixSet, interlace_matrices, sobol_matrices
from .gf2 import BitMatrix, span, xor_rows

COROLLARY_PRECISION = 128


@dataclass(frozen=True)
class Dyadic:
    """Scalar dyadic rational num * 2^-prec in [0, 1)."""

    num: int
    prec: int

    def __post_init__(self) -> None:
        if self.prec < 0:
            raise ValueError("negative precision")
        if not 0 <= self.num < (1 << self.prec):
            raise ValueError("numerator out of [0, 2^prec)")

    def digit(self, i: int) -> int:
        """Binary digit i (1-based after the point); zero beyond precision."""
        if i < 1:
            raise IndexError(i)
        if i > self.prec:
            return 0
        return (self.num >> (self.prec - i)) & 1

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.prec)

    def __float__(self) -> float:
        return self.num / (1 << self.prec)


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

    def coord(self, j: int) -> Dyadic:
        return Dyadic(self.coords[j], self.precision)

    def values(self) -> tuple[float, ...]:
        denom = 1 << self.precision
        return tuple(c / denom for c in self.coords)


@functools.lru_cache(maxsize=64)
def _column_numerators(g: GeneratingMatrixSet) -> tuple[tuple[int, ...], ...]:
    """Per coordinate, column l of the matrix read as a digit numerator.

    Row k maps to digit k, i.e. bit depth-k of the numerator; reversing the
    rows puts row k at index depth-k, so the numerators are the column masks
    of the reversed matrix.  A point numerator is the XOR of the column
    numerators picked by the index bits.  Memoised per matrix set, so
    repeated nth_point and net_points calls share one immutable build.
    """
    flipped = (BitMatrix.from_rows(mat.data[::-1], g.width) for mat in g.matrices)
    return tuple(tuple(rev.column_mask(l) for l in range(g.width)) for rev in flipped)


def nth_point(g: GeneratingMatrixSet, n: int) -> DyadicPoint:
    """Point of index n; digit k of coordinate j is row k of C_j applied to
    the binary digit vector of n."""
    if not 0 <= n < (1 << g.width):
        raise ValueError(f"index {n} needs more than {g.width} digit columns")
    return DyadicPoint(tuple(xor_rows(per, n) for per in _column_numerators(g)), g.depth)


def net_points(g: GeneratingMatrixSet, count: int | None = None) -> list[DyadicPoint]:
    """First ``count`` points (default all 2^width) in index order, one XOR
    per coordinate and point."""
    total = 1 << g.width
    if count is None:
        count = total
    if not 0 <= count <= total:
        raise ValueError(f"count {count} out of range for width {g.width}")
    coords = zip(*(span(per) for per in _column_numerators(g)))
    return [DyadicPoint(nums, g.depth) for nums in islice(coords, count)]


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
    if x.s != sigma.s:
        raise ValueError("dimension mismatch")
    p = max(x.precision, sigma.precision)
    xs = [c << (p - x.precision) for c in x.coords]
    ss = [c << (p - sigma.precision) for c in sigma.coords]
    return DyadicPoint(tuple(a ^ b for a, b in zip(xs, ss)), p)


def _prefix_matrix(m: int) -> BitMatrix:
    # digit k of n*2^-m is bit m-k of n: the column-reversal permutation
    return BitMatrix.from_rows([1 << (m - k) for k in range(1, m + 1)], m)


def _corollary_net(s: int, n_points: int) -> tuple[list[DyadicPoint], int]:
    if n_points < 2:
        raise ValueError("need at least two points")
    m = (n_points - 1).bit_length()
    if 3 * m > COROLLARY_PRECISION:
        raise ValueError("point count too large for the fixed-precision path")
    base = sobol_matrices(3 * s - 1, m, m)
    mats = (_prefix_matrix(m),) + base.matrices
    src = GeneratingMatrixSet(3 * s, m, m, mats, 1, None)
    interlaced = interlace_matrices(src, 3)
    pts = net_points(interlaced)
    keep = n_points << (2 * m)
    kept = [pt for pt in pts if pt.coords[0] < keep]
    if len(kept) != n_points:
        raise AssertionError(
            f"first coordinate is not a (0,{m},1)-net: kept {len(kept)} of {n_points}"
        )
    return kept, m


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
    kept, m = _corollary_net(s, n_points)
    if n_points == 1 << m:
        return kept
    p = COROLLARY_PRECISION
    out = []
    for pt in kept:
        first = (pt.coords[0] << (p - 2 * m)) // n_points
        rest = tuple(c << (p - 3 * m) for c in pt.coords[1:])
        out.append(DyadicPoint((first,) + rest, p))
    return out


def corollary_exact_coords(s: int, n_points: int) -> list[tuple[Fraction, ...]]:
    """Exact rational coordinates of corollary_pointset, for oracles."""
    kept, m = _corollary_net(s, n_points)
    out = []
    for pt in kept:
        first = Fraction(pt.coords[0], n_points << (2 * m))
        rest = tuple(Fraction(c, 1 << (3 * m)) for c in pt.coords[1:])
        out.append((first,) + rest)
    return out
