import itertools
import math
import random
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hodisc.discrepancy
from hodisc.discrepancy import (
    DiscrepancyReport,
    _columns,
    _dominance_sums,
    _quadrature_sq,
    quadrature_oracle_l2,
    sum_of_digits,
    walsh_series_l2,
    warnock_l2,
    warnock_l2_sq,
    warnock_scan,
)
from hodisc.genmat import GeneratingMatrixSet, sequence_net
from hodisc.gf2 import BitMatrix
from hodisc.netverify import dual_enumerate
from hodisc.points import DyadicPoint, corollary_pointset, digital_shift, net_points
from hodisc.walsh import _r_table, r_coeff, wal_vec


def random_pointset(rng: random.Random, s: int, n: int, prec: int) -> list[DyadicPoint]:
    return [
        DyadicPoint(tuple(rng.randrange(1 << prec) for _ in range(s)), prec)
        for _ in range(n)
    ]


def test_single_point_at_origin():
    assert warnock_l2([DyadicPoint((0,), 1)]) == pytest.approx(1 / math.sqrt(3), abs=1e-15)


def test_single_point_at_half():
    assert warnock_l2([DyadicPoint((1,), 1)]) == pytest.approx(1 / math.sqrt(12), abs=1e-15)


def test_exact_values_for_single_points():
    assert warnock_l2_sq([DyadicPoint((0,), 1)], exact=True) == Fraction(1, 3)
    assert warnock_l2_sq([DyadicPoint((1,), 1)], exact=True) == Fraction(1, 12)


def test_empty_pointset_rejected():
    with pytest.raises(ValueError):
        warnock_l2([])


def test_van_der_corput_matches_1d_oracle():
    pts = net_points(sequence_net(1, 1, 2))
    assert warnock_l2(pts) == pytest.approx(quadrature_oracle_l2(pts), abs=1e-12)


def test_float_matches_1d_oracle_on_random_sets():
    rng = random.Random(11)
    for _ in range(10):
        pts = random_pointset(rng, 1, rng.randint(1, 64), rng.randint(1, 10))
        assert warnock_l2(pts) == pytest.approx(quadrature_oracle_l2(pts), abs=1e-12)


def test_exact_and_float_agree():
    rng = random.Random(4)
    for s in (1, 2, 3):
        # the sweep (s <= 2) has no size cap; the row loop stops at 1024 points
        for n in (256, 1024) + ((4096,) if s <= 2 else ()):
            pts = random_pointset(rng, s, n, 16)
            fe = warnock_l2(pts)
            ex = warnock_l2(pts, exact=True)
            assert fe == pytest.approx(ex, abs=1e-12)
            exact = warnock_l2_sq(pts, exact=True)
            if s <= 2:
                assert warnock_l2_sq(pts) == float(exact)
            else:
                err = abs(Fraction(warnock_l2_sq(pts)) - exact)
                assert err <= 4 * Fraction(math.ulp(3.0**-s))
    pts = random_pointset(rng, 1, 256, 16)
    for row in warnock_scan(pts, 256).rows:
        assert row.l2 == math.sqrt(float(warnock_l2_sq(pts[: row.n], exact=True)))


def test_float_row_loop_is_exact_at_low_precision():
    # at s <= 4 and precision <= 8 every float64 row of the row loop is
    # exact, so floats are the correctly rounded exact values
    rng = random.Random(9)
    sets = [random_pointset(rng, s, rng.randint(20, 120), prec)
            for s in (3, 4) for prec in (1, 2, 4, 6, 8)]
    sets.append(net_points(sequence_net(3, 1, 8)))
    sets.append(net_points(sequence_net(4, 2, 4)))
    for pts in sets:
        assert warnock_l2_sq(pts) == float(warnock_l2_sq(pts, exact=True))
        n = len(pts)
        assert warnock_scan(pts, n).rows == warnock_scan(pts, n, exact=True).rows


def test_float_row_loop_near_one_beyond_the_float_range():
    # 1 - x between 2^-p and 2^(4-2p/3): at s*p = 1040, 1200 and 1300 the
    # row products fall in the normal, subnormal and zero ranges, and every
    # row must still add to S2 without a negative shift
    rng = random.Random(10)
    for s, prec in ((4, 260), (2, 520), (3, 400), (2, 600), (4, 325), (2, 650)):
        top = 1 << prec
        pts = [DyadicPoint(tuple(top - (rng.randint(1, 16) << rng.choice((0, 2, prec // 3)))
                                 for _ in range(s)), prec)
               for _ in range(24)]
        assert warnock_l2_sq(pts) == float(warnock_l2_sq(pts, exact=True))
        assert warnock_scan(pts, 24).rows == warnock_scan(pts, 24, exact=True).rows


def test_permutation_invariance():
    rng = random.Random(5)
    pts = random_pointset(rng, 2, 40, 8)
    shuffled = pts[:]
    rng.shuffle(shuffled)
    assert warnock_l2(pts) == pytest.approx(warnock_l2(shuffled), abs=1e-14)


def test_exact_mode_size_cap():
    # EXACT_LIMIT binds only the row loop: one-shots at s >= 3, scans at s >= 2
    with pytest.raises(ValueError):
        warnock_l2_sq([DyadicPoint((n % 16, n % 5, n % 7), 4) for n in range(1025)], exact=True)
    with pytest.raises(ValueError):
        warnock_scan([DyadicPoint((n % 16, n % 5), 4) for n in range(1025)], 1025, exact=True)
    one_d = [DyadicPoint((n % 16,), 4) for n in range(1025)]
    value = warnock_l2_sq(one_d, exact=True)
    assert isinstance(value, Fraction)
    assert math.sqrt(value) == quadrature_oracle_l2(one_d)
    two_d = [DyadicPoint((n % 16, n % 9), 4) for n in range(1025)]
    assert isinstance(warnock_l2_sq(two_d, exact=True), Fraction)


def _tied_points(s: int):
    """1 to 40 points of mixed precision 0..70 whose coordinates come from
    {0, 1/4, 1/2, 1 - 2^-p}, so ties in every coordinate are common."""
    def point(p):
        top = 1 << p
        coord = st.sampled_from([0, top // 4, top // 2, top - 1])
        return st.tuples(*[coord] * s).map(lambda c: DyadicPoint(c, p))

    return st.lists(st.integers(0, 70).flatmap(point), min_size=1, max_size=40)


def _definition_l2_sq(points) -> Fraction:
    """3^-s - (2/N) sum prod (1 - x^2)/2 + (1/N^2) sum_{n,m} prod min(1 - x_n, 1 - x_m)."""
    xs = [[Fraction(c, 1 << pt.precision) for c in pt.coords] for pt in points]
    n, s = len(xs), len(xs[0])
    single = sum(math.prod((1 - x * x) / 2 for x in row) for row in xs)
    pair = sum(math.prod(min(1 - x, 1 - y) for x, y in zip(u, v)) for u in xs for v in xs)
    return Fraction(1, 3**s) - 2 * single / n + pair / (n * n)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2).flatmap(_tied_points))
def test_sweep_matches_definition(points):
    exact = warnock_l2_sq(points, exact=True)
    assert exact == _definition_l2_sq(points)
    assert warnock_l2_sq(points) == float(exact)


def _mixed_pointset(rng: random.Random, s: int, n: int, top_prec: int = 128):
    """n points of precisions 0..top_prec, a third of them copies of earlier
    coordinates (at their own precision), so ties cross precisions."""
    pts = []
    for _ in range(n):
        p = rng.randint(0, top_prec)
        if pts and rng.random() < 1 / 3:
            old = rng.choice(pts)
            if old.precision <= p:
                pts.append(DyadicPoint(tuple(c << p - old.precision for c in old.coords), p))
                continue
        pts.append(DyadicPoint(tuple(rng.randrange(1 << p) for _ in range(s)), p))
    return pts


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 300).flatmap(lambda n: st.lists(
    st.one_of(st.sampled_from([0, 1, 1 << 31, (1 << 62) - 1, 1 << 64, (1 << 130) - 1]),
              st.integers(0, 8), st.integers(0, 1 << 130)),
    min_size=n, max_size=n)))
def test_dominance_sums_match_the_direct_sum(values):
    # n up to 300 crosses several powers of two, so the sweep runs up to
    # nine levels; values up to 2^130 span five 31-bit limbs, with many ties
    got = _dominance_sums(np.array(values, dtype=object))
    assert got.tolist() == [sum(min(v, w) for w in values[k + 1:]) for k, v in enumerate(values)]


def test_exact_sum_and_sweep_match_definition_on_larger_mixed_sets():
    # 100 to 200 points run the 1-d sort and the 2-d sweep over 7 or 8 levels
    rng = random.Random(21)
    for s, n in ((1, 100), (1, 200), (2, 128), (2, 200)):
        pts = _mixed_pointset(rng, s, n)
        exact = warnock_l2_sq(pts, exact=True)
        assert exact == _definition_l2_sq(pts)
        assert warnock_l2_sq(pts) == float(exact)


def test_scan_rows_equal_prefix_one_shots_at_s1():
    pts = _mixed_pointset(random.Random(22), 1, 300)
    flo = warnock_scan(pts, 300).rows
    exa = warnock_scan(pts, 300, exact=True).rows
    assert len(flo) == len(exa) == 299
    for f, e in zip(flo, exa):
        prefix = pts[: f.n]
        assert f.n == e.n
        assert f.l2 == math.sqrt(warnock_l2_sq(prefix))
        assert e.l2 == math.sqrt(warnock_l2_sq(prefix, exact=True))


def test_columns_reject_empty_and_mixed_dimensions():
    with pytest.raises(ValueError, match="empty"):
        _columns([])
    with pytest.raises(ValueError, match="dimension"):
        _columns([DyadicPoint((1, 2), 2), DyadicPoint((1,), 2)])
    cols, prec, s = _columns([DyadicPoint((1, 2), 2), DyadicPoint((3, 0), 4)])
    assert (prec, s) == (4, 2)
    assert [c.tolist() for c in cols] == [[4, 3], [8, 0]]


def test_mixed_precision_points_are_padded():
    a = DyadicPoint((1,), 1)
    b = DyadicPoint((3,), 2)
    direct = warnock_l2([a, b])
    padded = warnock_l2([DyadicPoint((2,), 2), b])
    assert direct == pytest.approx(padded, abs=0)


def test_scan_prefixes_match_one_shot():
    for s in (1, 2, 3):
        pts = net_points(sequence_net(s, 1, 7))
        report = warnock_scan(pts, 100)
        exact = {r.n: r for r in warnock_scan(pts, 100, exact=True).rows}
        by_n = {r.n: r for r in report.rows}
        for n in (3, 17, 64, 100):
            assert by_n[n].l2 == pytest.approx(warnock_l2(pts[:n]), abs=1e-13)
            assert exact[n].l2 == math.sqrt(warnock_l2_sq(pts[:n], exact=True))


def test_scan_row_structure():
    pts = net_points(sequence_net(2, 1, 4))
    report = warnock_scan(pts, 16)
    assert [r.n for r in report.rows] == list(range(2, 17))
    assert all(r.l2 > 0 for r in report.rows)
    assert all(r.s_of_n == sum_of_digits(r.n) for r in report.rows)


def test_scan_two_points_match_oracle():
    pts = [DyadicPoint((0,), 1), DyadicPoint((1,), 1)]
    report = warnock_scan(pts, 2)
    assert report.rows[0].l2 == pytest.approx(quadrature_oracle_l2(pts), abs=1e-14)


def test_scan_exact_mode_matches_float():
    pts = net_points(sequence_net(2, 1, 4))
    flo = warnock_scan(pts, 16)
    exa = warnock_scan(pts, 16, exact=True)
    for a, b in zip(flo.rows, exa.rows):
        assert a.l2 == pytest.approx(b.l2, abs=1e-13)


def test_scan_needs_enough_points():
    with pytest.raises(ValueError):
        warnock_scan(net_points(sequence_net(1, 1, 2)), 5)


def test_csv_round_trip():
    pts = net_points(sequence_net(2, 1, 3))
    report = warnock_scan(pts, 8)
    text = report.to_csv()
    assert text.splitlines()[0] == "N,l2,S,ratio_roth,ratio_proinov"
    back = DiscrepancyReport.parse_csv(text, s=2)
    assert back.rows == report.rows


def test_series_converges_to_warnock():
    pts = net_points(sequence_net(1, 1, 3))
    target = warnock_l2_sq(pts, exact=True)
    errors = [abs(walsh_series_l2(pts, k) - float(target)) for k in range(4, 9)]
    for earlier, later in zip(errors, errors[1:]):
        assert later < earlier


def test_series_single_point_near_one_third():
    value = walsh_series_l2([DyadicPoint((0,), 1)], 6)
    assert abs(value - 1 / 3) < 0.05


def test_series_budget_rejected_with_estimate():
    pts = net_points(sequence_net(2, 1, 2))
    with pytest.raises(ValueError, match="budget"):
        walsh_series_l2(pts, 8)


def test_series_budget_checked_before_any_work():
    # the estimate needs only (s, trunc), so a refusal builds no table or transform
    def expire(signum, frame):
        raise TimeoutError("no result within 5 s")

    pts = net_points(sequence_net(2, 1, 2))
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="budget"):
            walsh_series_l2(pts, 16)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _scanned_table(trunc):
    top = 1 << trunc
    return [(k, l, r_coeff(k, l)) for k in range(top) for l in range(top) if r_coeff(k, l)]


def test_r_table_is_the_nonzero_scan():
    for trunc in range(8):
        assert _r_table(trunc) == _scanned_table(trunc)
    for trunc in range(11):
        assert len(_r_table(trunc)) == 5 * 2**trunc - 2 * trunc - 4


def _brute_force_series(points, trunc) -> Fraction:
    """sum_{k, l != 0} prod_j r(k_j, l_j) W(k) W(l) over components below
    2^trunc, each W a mean of wal_vec and each row of r from a full scan."""
    s, n = points[0].s, len(points)
    row = {k: [] for k in range(1 << trunc)}
    for k, l, r in _scanned_table(trunc):
        row[k].append((l, r))
    vectors = list(itertools.product(range(1 << trunc), repeat=s))[1:]
    mean = {ks: Fraction(sum(wal_vec(ks, pt) for pt in points), n) for ks in vectors}
    mean[(0,) * s] = 0
    total = Fraction(0)
    for ks in vectors:
        for pairs in itertools.product(*(row[k] for k in ks)):
            ls = tuple(l for l, _ in pairs)
            total += math.prod(r for _, r in pairs) * mean[ks] * mean[ls]
    return total


@st.composite
def _series_cases(draw):
    """(points, trunc): random sets with precision 1-8, sometimes below trunc,
    or nets, digitally shifted or not; trunc <= 4, and <= 3 at s = 3."""
    s = draw(st.integers(1, 3))
    trunc = draw(st.integers(0, 3 if s == 3 else 4))
    if draw(st.booleans()):
        prec = draw(st.integers(1, 8))
        coord = st.integers(0, (1 << prec) - 1)
        rows = draw(st.lists(st.tuples(*[coord] * s), min_size=1, max_size=12))
        return [DyadicPoint(c, prec) for c in rows], trunc
    pts = net_points(sequence_net(s, draw(st.integers(1, 2)), draw(st.integers(1, 3))))
    sigma = DyadicPoint(tuple(draw(st.integers(0, 63)) for _ in range(s)), 6)
    return [digital_shift(pt, sigma) for pt in pts], trunc


@settings(max_examples=25, deadline=None)
@given(_series_cases())
def test_series_equals_the_brute_force_sum(case):
    points, trunc = case
    assert walsh_series_l2(points, trunc) == float(_brute_force_series(points, trunc))


def test_series_dual_terms_carry_everything():
    # over a digital net cut to its first trunc rows, W(k) = [k in D] wal_k(sigma),
    # D the dual of the cut matrices, so the series is a sum over dual pairs only
    for s, alpha, m, trunc, shifted in [(1, 1, 2, 4, False), (2, 2, 4, 5, False),
                                        (3, 1, 4, 4, False), (2, 3, 3, 6, False),
                                        (2, 2, 4, 5, True)]:
        g = sequence_net(s, alpha, m)
        rows = min(trunc, g.depth)
        cut = GeneratingMatrixSet(s, rows, g.width, tuple(
            BitMatrix.from_rows(mat.data[:rows], g.width) for mat in g.matrices), alpha, None)
        sigma = DyadicPoint(tuple(random.Random(s * m).randrange(1 << 10) for _ in range(s)), 10)
        pts = [digital_shift(pt, sigma) if shifted else pt for pt in net_points(g)]
        members = list(dual_enumerate(cut, digit_range=trunc).elements())
        sign = {ks: wal_vec(ks, sigma) if shifted else 1 for ks in members}
        nonzero = {(k, l): r for k, l, r in _scanned_table(trunc)}
        total = Fraction(0)
        for ks in members:
            for ls in members:
                r = math.prod(nonzero.get(kl, 0) for kl in zip(ks, ls))
                if r:
                    total += r * sign[ks] * sign[ls]
        assert float(total) == walsh_series_l2(pts, trunc), (s, alpha, m, trunc, shifted)


@pytest.mark.parametrize("alpha", [1, 2])
def test_series_converges_to_warnock_at_s3(alpha):
    # the series only converges to Warnock; the cell-contraction oracle gives
    # the same value exactly at s = 3 (test_quadrature_equals_exact_warnock)
    pts = net_points(sequence_net(3, alpha, 3))
    target = float(warnock_l2_sq(pts, exact=True))
    errors = [abs(walsh_series_l2(pts, k, budget=10**7) - target) for k in range(2, 7)]
    for earlier, later in zip(errors, errors[1:]):
        assert later < earlier


def test_sum_of_digits():
    assert sum_of_digits(6) == 2
    assert sum_of_digits(1 << 12) == 1
    assert sum_of_digits(255) == 8
    with pytest.raises(ValueError):
        sum_of_digits(0)


def test_quadrature_2d_close_to_warnock():
    pts = net_points(sequence_net(2, 1, 4))
    grid = 9
    direct = warnock_l2(pts)
    approx = quadrature_oracle_l2(pts, grid=grid)
    assert abs(direct - approx) <= 5 * 2.0**-grid


def test_quadrature_2d_single_origin_point():
    value = quadrature_oracle_l2([DyadicPoint((0, 0), 1)], grid=6)
    assert 0 < value < 1


@st.composite
def _oracle_sets(draw):
    """Point sets at s = 1..3: random sets of mixed precision 0..70 (small
    precisions make ties common), nets plain or digitally shifted by 64
    bits, or corollary sets."""
    s = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "net", "shifted", "corollary"]))
    if kind == "random":
        point = st.integers(0, 70).flatmap(lambda p: st.builds(
            DyadicPoint, st.tuples(*[st.integers(0, (1 << p) - 1)] * s), st.just(p)))
        return draw(st.lists(point, min_size=1, max_size=30))
    if kind == "corollary":
        return corollary_pointset(s, draw(st.integers(2, 40)))
    pts = net_points(sequence_net(s, draw(st.integers(1, 3)), draw(st.integers(1, 5))))
    if kind == "shifted":
        sigma = DyadicPoint(tuple(draw(st.integers(0, (1 << 64) - 1)) for _ in range(s)), 64)
        pts = [digital_shift(pt, sigma) for pt in pts]
    return pts


@settings(max_examples=80, deadline=None)
@given(_oracle_sets())
def test_quadrature_equals_exact_warnock(pts):
    assert _quadrature_sq(pts) == warnock_l2_sq(pts, exact=True)


def _midpoint_pair_sum(points, grid: int) -> Fraction:
    """The mean of Delta^2 over the 2^grid-per-axis midpoint mesh,
    Warnock-style: with r the number of midpoints (i + 1/2)/G above a
    coordinate, a pair shares min(r, r') of them per axis, a point's
    midpoints sum to r(2G - r)/(2G), and the squares of all G sum to
    G(4G^2 - 1)/(12 G^2)."""
    G, n, s = 1 << grid, len(points), len(points[0].coords)
    r = [[G - min(G, math.floor(Fraction(c, 1 << pt.precision) * G + Fraction(1, 2)))
          for c in pt.coords] for pt in points]
    pairs = sum(math.prod(Fraction(min(a, b), G) for a, b in zip(u, v)) for u in r for v in r)
    cross = sum(math.prod(Fraction(a * (2 * G - a), 2 * G * G) for a in u) for u in r)
    return pairs / n**2 - 2 * cross / n + Fraction(4 * G * G - 1, 12 * G * G) ** s


@settings(max_examples=40, deadline=None)
@given(_oracle_sets(), st.integers(1, 6))
def test_quadrature_midpoint_equals_the_pair_sum(pts, grid):
    exact = _midpoint_pair_sum(pts, grid)
    assert _quadrature_sq(pts, grid) == exact
    assert quadrature_oracle_l2(pts, grid=grid) == math.sqrt(exact)


def test_quadrature_narrow_limbs_fall_back_to_objects(monkeypatch):
    # limbs narrower than MIN_LIMB_BITS (large N at s = 1) contract as objects
    rng = random.Random(12)
    sets = [random_pointset(rng, s, 40, 70) for s in (1, 2, 3)]
    values = [_quadrature_sq(pts) for pts in sets]
    einsum = np.einsum

    def einsum_before_1_25(spec, *operands):
        # numpy < 1.25 refuses object operands in einsum
        if any(op.dtype == object for op in operands):
            raise TypeError("object arrays not supported")
        return einsum(spec, *operands)

    monkeypatch.setattr(np, "einsum", einsum_before_1_25)
    monkeypatch.setattr(hodisc.discrepancy, "MIN_LIMB_BITS", 63)
    assert [_quadrature_sq(pts) for pts in sets] == values
    assert values == [warnock_l2_sq(pts, exact=True) for pts in sets]


def test_quadrature_exact_at_scale():
    # 4097^2 and 257^3 cells, each well under a second
    for s, m in ((2, 12), (3, 8)):
        pts = net_points(sequence_net(s, 2, m))
        assert _quadrature_sq(pts) == warnock_l2_sq(pts, exact=True)


def test_quadrature_budget_refused_before_any_work(monkeypatch):
    def contract(*args):
        raise AssertionError("contraction started")

    # 16 distinct coordinates per axis, 0 among them: 16 cells per axis
    pts = net_points(sequence_net(2, 1, 4))
    monkeypatch.setattr(hodisc.discrepancy, "_cell_sums", contract)
    monkeypatch.setattr(hodisc.discrepancy, "QUADRATURE_BUDGET", 255)
    with pytest.raises(ValueError, match="quadrature over 256 cells exceeds budget 255"):
        quadrature_oracle_l2(pts)
    monkeypatch.setattr(hodisc.discrepancy, "QUADRATURE_BUDGET", 511)
    with pytest.raises(ValueError, match="quadrature over 512 cells exceeds budget 511"):
        quadrature_oracle_l2(net_points(sequence_net(3, 1, 3)), grid=3)
    monkeypatch.setattr(hodisc.discrepancy, "QUADRATURE_BUDGET", 256)
    with pytest.raises(AssertionError, match="contraction started"):
        quadrature_oracle_l2(pts)
