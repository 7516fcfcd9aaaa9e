from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hodisc.genmat import (
    GeneratingMatrixSet,
    interlace_matrices,
    sequence_net,
    sobol_matrices,
    truncate,
)
from hodisc.gf2 import BitMatrix, matvec
from hodisc.points import (
    DyadicPoint,
    corollary_exact_coords,
    corollary_pointset,
    digital_shift,
    interlace_point,
    net_points,
    nth_point,
)

VDC_M3 = [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
          Fraction(1, 8), Fraction(5, 8), Fraction(3, 8), Fraction(7, 8)]


def test_point_zero_index_is_origin():
    g = sequence_net(3, 1, 4)
    assert nth_point(g, 0).coords == (0, 0, 0)


def test_van_der_corput_order():
    g = sequence_net(1, 1, 3)
    values = [Fraction(pt.coords[0], 1 << pt.precision)
              for pt in (nth_point(g, n) for n in range(8))]
    assert values == VDC_M3


def test_index_too_large_rejected():
    g = sequence_net(1, 1, 3)
    with pytest.raises(ValueError):
        nth_point(g, 8)


@given(st.integers(1, 3), st.integers(1, 8), st.integers(1, 6), st.data())
def test_points_match_the_matrix_definition(s, depth, width, data):
    # digit k of coordinate j is bit k-1 of C_j n, i.e. bit depth-k of the numerator
    mats = tuple(
        BitMatrix.from_rows(
            [data.draw(st.integers(0, (1 << width) - 1)) for _ in range(depth)], width
        )
        for _ in range(s)
    )
    g = GeneratingMatrixSet(s, depth, width, mats, 1, None)
    count = data.draw(st.integers(0, 1 << width))
    pts = net_points(g, count)
    assert len(pts) == count
    for n in range(count):
        want = tuple(
            sum(((matvec(c, n) >> (k - 1)) & 1) << (depth - k) for k in range(1, depth + 1))
            for c in mats
        )
        assert pts[n].coords == want and pts[n].precision == depth
        assert nth_point(g, n) == pts[n]


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.sampled_from([1, 12, 63, 64, 65, 100, 128]), st.integers(0, 10),
       st.data())
def test_net_points_equal_nth_point_at_every_count(s, depth, width, data):
    # uint64 columns up to depth 64, object columns beyond; prefix lengths
    # cut each doubling step part-way: every count up to width 7, and above
    # it 0, 2^l - 1, 2^l and 2^l + 1 for every l plus three drawn counts
    row = st.integers(0, (1 << width) - 1)
    mats = tuple(
        BitMatrix.from_rows([data.draw(row) for _ in range(depth)], width) for _ in range(s)
    )
    g = GeneratingMatrixSet(s, depth, width, mats, 1, None)
    want = [nth_point(g, n) for n in range(1 << width)]
    counts = set(range((1 << width) + 1))
    if width > 7:
        counts = {0} | {c for l in range(width + 1) for c in (2**l - 1, 2**l, 2**l + 1)}
        counts = {c for c in counts if c <= 1 << width}
        counts |= {data.draw(st.integers(0, 1 << width)) for _ in range(3)}
    for count in sorted(counts):
        pts = net_points(g, count)
        assert pts == want[:count]
        assert all(type(c) is int for pt in pts for c in pt.coords)


def test_sobol_m2_is_a_net():
    # every elementary box of area 1/4 holds exactly one of the 4 points
    pts = net_points(sequence_net(2, 1, 2))
    for d in [(2, 0), (1, 1), (0, 2)]:
        boxes = {}
        for pt in pts:
            key = tuple(pt.coords[j] >> (pt.precision - d[j]) for j in range(2))
            boxes[key] = boxes.get(key, 0) + 1
        assert all(c == 1 for c in boxes.values())
        assert len(boxes) == 4


def test_interlace_point_hand_example():
    # digits .11 and .10 interleave to .1110 = 7/8
    x = DyadicPoint((0b11, 0b10), 2)
    out = interlace_point(x, 2)
    assert out.s == 1 and out.precision == 4
    assert Fraction(out.coords[0], 1 << out.precision) == Fraction(0b1110, 16)


def test_interlace_alpha_one_is_identity():
    x = DyadicPoint((5, 9, 2), 4)
    assert interlace_point(x, 1) is x


def test_interlace_rejects_bad_dimension():
    with pytest.raises(ValueError):
        interlace_point(DyadicPoint((1, 2, 3), 2), 2)


@pytest.mark.parametrize("d,alpha", [(1, 2), (1, 3), (2, 2)])
def test_point_interlacing_matches_matrix_interlacing(d, alpha):
    m = 5
    src = sobol_matrices(d * alpha, m, m)
    ee = interlace_matrices(src, alpha)
    for n in range(1 << m):
        via_points = interlace_point(nth_point(src, n), alpha)
        via_matrices = nth_point(ee, n)
        assert via_points == via_matrices


def test_digital_shift_identities():
    x = DyadicPoint((0b1011, 0b0010), 4)
    zero = DyadicPoint((0, 0), 4)
    assert digital_shift(x, zero) == x
    assert digital_shift(x, x).coords == (0, 0)


def test_digital_shift_hand_example():
    # 1/2 xor 3/4 = 1/4
    out = digital_shift(DyadicPoint((0b10,), 2), DyadicPoint((0b11,), 2))
    assert Fraction(out.coords[0], 1 << out.precision) == Fraction(1, 4)


def test_digital_shift_pads_precision():
    a = DyadicPoint((1,), 1)   # 0.1
    b = DyadicPoint((1,), 3)   # 0.001
    out = digital_shift(a, b)
    assert out.precision == 3 and out.coords == (0b101,)


def test_net_is_group_under_shift():
    # digital nets are closed under digit-wise xor (exhaustive, small sizes)
    for s, m in [(1, 4), (2, 4), (3, 3)]:
        pts = net_points(sequence_net(s, 1, m))
        members = set(pt.coords for pt in pts)
        for a in pts:
            for b in pts:
                assert digital_shift(a, b).coords in members


def test_shift_preserves_cardinality_and_range():
    pts = net_points(sequence_net(2, 2, 3))
    sigma = DyadicPoint((0b101101, 0b011010), 6)
    shifted = [digital_shift(pt, sigma) for pt in pts]
    assert len(set(p.coords for p in shifted)) == len(pts)
    top = 1 << shifted[0].precision
    assert all(0 <= c < top for p in shifted for c in p.coords)


def test_corollary_power_of_two_degenerates_to_net():
    # degenerate case: no cut, no stretch, plain interlaced net comes back
    pts = corollary_pointset(1, 4)
    m = 2
    assert len(pts) == 4
    assert pts[0].precision == 3 * m
    firsts = sorted(pt.coords[0] >> (pt.precision - m) for pt in pts)
    assert firsts == [0, 1, 2, 3]


def test_corollary_counts_and_range():
    for s, n in [(1, 3), (1, 5), (2, 3), (2, 11), (2, 33)]:
        pts = corollary_pointset(s, n)
        assert len(pts) == n
        top = 1 << pts[0].precision
        assert all(0 <= c < top for pt in pts for c in pt.coords)
        assert all(pt.s == s for pt in pts)


def test_corollary_prefix_digits_cover_all_patterns():
    # the prepended index coordinate interlaces into the leading digits:
    # the first coordinate's top-m digits hit each of 0..2^m-1 exactly once
    for s, n in [(1, 4), (2, 4)]:
        pts = corollary_pointset(s, n)  # N = 2^m keeps every point
        m = 2
        tops = sorted(pt.coords[0] >> (pt.precision - m) for pt in pts)
        assert tops == [0, 1, 2, 3]


def test_corollary_exact_sidecar_matches_fixed_point():
    for s, n in [(1, 3), (2, 7)]:
        pts = corollary_pointset(s, n)
        exact = corollary_exact_coords(s, n)
        assert len(exact) == n
        for pt, frs in zip(pts, exact):
            p = pt.precision
            for c, fr in zip(pt.coords, frs):
                # fixed-point value is the exact value rounded toward zero
                assert c == (fr.numerator << p) // fr.denominator


def _cut_net_reference(s, n):
    """The corollary construction written out from nth_point: the
    order-3 interlace of (n 2^-m, Sobol' coordinates 1 .. 3s-1), cut to
    first coordinate < N/2^m, as exact rationals before the stretch."""
    m = (n - 1).bit_length()
    prefix = BitMatrix.from_rows([1 << (m - k) for k in range(1, m + 1)], m)
    base = sobol_matrices(3 * s - 1, m, m)
    g = interlace_matrices(
        GeneratingMatrixSet(3 * s, m, m, (prefix,) + base.matrices, 1, None), 3
    )
    rows = [nth_point(g, i).coords for i in range(1 << m)]
    return [
        (Fraction(c[0], n << (2 * m)),) + tuple(Fraction(x, 1 << (3 * m)) for x in c[1:])
        for c in rows if Fraction(c[0], 1 << (3 * m)) < Fraction(n, 1 << m)
    ]


def _corollary_sizes():
    sampled = [2, 3, 5, 6, 7, 11, 13, 37, 100, 129, 257, 300, 511, 600]
    around = [(1 << m) + d for m in range(1, 10) for d in (-1, 0, 1) if (1 << m) + d >= 2]
    return sorted(set(sampled + around))


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_corollary_pointset_is_the_floor_of_the_exact_coords(s):
    for n in _corollary_sizes():
        pts = corollary_pointset(s, n)
        exact = corollary_exact_coords(s, n)
        assert exact == _cut_net_reference(s, n)
        m = (n - 1).bit_length()
        assert len(pts) == n
        for pt, frs in zip(pts, exact):
            assert pt.precision == (3 * m if n == 1 << m else 128)
            assert all(type(c) is int for c in pt.coords)
            # the 128-bit floor; at N = 2^m the 3m-bit numerators are exact
            assert [c << (128 - pt.precision) for c in pt.coords] == [
                (fr.numerator << 128) // fr.denominator for fr in frs
            ]


def test_corollary_rejects_tiny_n():
    with pytest.raises(ValueError):
        corollary_pointset(1, 1)


def test_truncated_net_matches_sequence_prefix():
    # the first 2^m points of a wider-matrix sequence equal the net of the
    # truncated matrices
    wide = sequence_net(2, 2, 6)
    small = truncate(wide, 4)
    pts_small = net_points(small)
    for n in range(1 << 4):
        long_pt = nth_point(wide, n)
        short = tuple(c >> (wide.depth - small.depth) for c in long_pt.coords)
        assert short == pts_small[n].coords
        # trailing digits beyond the truncated depth vanish
        assert all(c & ((1 << (wide.depth - small.depth)) - 1) == 0
                   for c in long_pt.coords)
