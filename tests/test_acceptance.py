"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Every tolerance and runtime limit is pinned here.
"""

import itertools
import math
import random
import statistics
import time
from fractions import Fraction

from hodisc.discrepancy import (
    _quadrature_sq,
    quadrature_oracle_l2,
    sum_of_digits,
    walsh_series_l2,
    warnock_l2,
    warnock_l2_sq,
    warnock_scan,
)
from hodisc.genmat import sequence_net, sobol_matrices, t_reduced
from hodisc.gf2 import BitMatrix
from hodisc.netverify import (
    box_counts,
    character_sum,
    dual_enumerate,
    dual_min_weight,
    smallest_certified_t,
    verify_order_alpha,
)
from hodisc.points import DyadicPoint, corollary_pointset, interlace_point, net_points, nth_point
from hodisc.walsh import mu, r_coeff, r_coeff_oracle

VDC_M3 = [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
          Fraction(1, 8), Fraction(5, 8), Fraction(3, 8), Fraction(7, 8)]


def _gate(num: int, desc: str, passed: bool, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    in_time = elapsed < limit
    verdict = "PASS" if (passed and in_time) else "FAIL"
    print(f"{verdict} criterion {num}: {desc} [{elapsed:.2f}s/{limit:.0f}s]")
    assert passed, f"criterion {num} failed: {desc}"
    assert in_time, f"criterion {num} overran {limit}s ({elapsed:.2f}s)"


def test_criterion_1_construction_exactness():
    start = time.perf_counter()
    identity_ok = all(
        sobol_matrices(2, m, m).matrices[0] == BitMatrix.identity(m)
        for m in range(1, 33)
    )
    g = sequence_net(1, 1, 3)
    vdc_ok = [Fraction(pt.coords[0], 1 << pt.precision)
              for pt in (nth_point(g, n) for n in range(8))] == VDC_M3
    _gate(1, "first-coordinate identity and van der Corput order",
          identity_ok and vdc_ok, start, 1.0)


def test_criterion_2_interlacing_equivalence():
    start = time.perf_counter()
    ok = True
    for s, alpha in itertools.product((1, 2), (2, 3, 5)):
        for m in range(1, 9):
            src = sobol_matrices(s * alpha, m, m)
            via_matrices = sequence_net(s, alpha, m)
            for n in range(1 << m):
                a = interlace_point(nth_point(src, n), alpha)
                b = nth_point(via_matrices, n)
                if a != b:
                    ok = False
    _gate(2, "point interlacing == matrix interlacing, bit-exact", ok, start, 10.0)


def test_criterion_3_net_certification():
    start = time.perf_counter()
    order1_ok = True
    for m in range(1, 9):
        g = sequence_net(2, 1, m)
        if not verify_order_alpha(g, 1, 0):
            order1_ok = False
        pts = net_points(g)
        for d1 in range(m + 1):
            counts = box_counts(pts, (d1, m - d1))
            if not all(c == 1 for c in counts.values()):
                order1_ok = False
    order2_ok = True
    for m in range(1, 7):
        g = sequence_net(1, 2, m)
        bound = g.t_bound
        if bound != 1:
            order2_ok = False
        if smallest_certified_t(g, 2) > bound:
            order2_ok = False
    _gate(3, "(0,m,2)-nets certified and fair; order-2 t within bound",
          order1_ok and order2_ok, start, 60.0)


def test_criterion_4_walsh_coefficient_table():
    start = time.perf_counter()
    oracle_ok = all(
        r_coeff(k, l) == r_coeff_oracle(k, l, 6)
        for k in range(16) for l in range(16)
    )
    sym_ok = True
    decay_ok = True
    for k in range(256):
        for l in range(256):
            r = r_coeff(k, l)
            if r != r_coeff(l, k):
                sym_ok = False
            if abs(r) > Fraction(1, 1 << (mu(k) + mu(l))):
                decay_ok = False
    _gate(4, "r table == integration oracle; symmetry and 2^-mu decay",
          oracle_ok and sym_ok and decay_ok, start, 30.0)


def test_criterion_5_discrepancy_exactness():
    start = time.perf_counter()
    rng = random.Random(55)
    random_ok = True
    for _ in range(50):
        n = rng.randint(1, 64)
        prec = rng.randint(1, 12)
        pts = [DyadicPoint((rng.randrange(1 << prec),), prec) for _ in range(n)]
        if abs(warnock_l2(pts) - quadrature_oracle_l2(pts)) > 1e-12:
            random_ok = False
    grid = 11
    net = net_points(sequence_net(2, 1, 4))
    grid_ok = abs(warnock_l2(net) - quadrature_oracle_l2(net, grid=grid)) <= 5 * 2.0**-grid
    cells_ok = _quadrature_sq(net) == warnock_l2_sq(net, exact=True)
    origin_ok = abs(warnock_l2([DyadicPoint((0,), 1)]) - 1 / math.sqrt(3)) <= 1e-14
    half_ok = abs(warnock_l2([DyadicPoint((1,), 1)]) - 1 / math.sqrt(12)) <= 1e-14
    _gate(5, "Warnock matches 1-d, 2-d midpoint and exact 2-d oracles and closed-form single points",
          random_ok and grid_ok and cells_ok and origin_ok and half_ok, start, 60.0)


def test_criterion_6_series_consistency():
    start = time.perf_counter()
    pts = net_points(sequence_net(1, 1, 3))
    target = float(warnock_l2_sq(pts, exact=True))
    errors = [abs(walsh_series_l2(pts, k) - target) for k in range(4, 9)]
    ratios = [earlier / later for earlier, later in zip(errors, errors[1:])]
    ok = all(r >= 1.7 for r in ratios)
    _gate(6, f"series error shrinks >= 1.7x per K (ratios {['%.2f' % r for r in ratios]})",
          ok, start, 60.0)


def test_criterion_7_character_dual_consistency():
    start = time.perf_counter()
    m, alpha, s = 3, 2, 2
    g = sequence_net(s, alpha, m)
    pts = net_points(g)
    dual = dual_enumerate(g)
    members = set(dual.elements())
    dual_ok = all(character_sum(pts, ks) == 1 << m for ks in members)
    rng = random.Random(77)
    top = 1 << (alpha * m)
    nondual_ok = True
    for _ in range(10_000):
        ks = (rng.randrange(top), rng.randrange(top))
        if ks == (0, 0) or ks in members:
            continue
        if character_sum(pts, ks) != 0:
            nondual_ok = False
    t1 = smallest_certified_t(g, 1)
    weight_ok = dual_min_weight(dual, 1) > m - t1
    _gate(7, "dual <-> character dichotomy; dual weight exceeds m - t",
          dual_ok and nondual_ok and weight_ok, start, 60.0)


def test_criterion_8_sequence_scaling():
    start = time.perf_counter()
    width = 12
    g = sequence_net(2, 5, width)
    pts = net_points(g, count=1 << width)
    report = warnock_scan(pts, 1 << width)
    by_n = {r.n: r for r in report.rows}
    ratio_m = {m: by_n[1 << m].l2 * (1 << m) / math.sqrt(m) for m in range(4, 13)}
    power_ok = max(ratio_m.values()) <= 4 * ratio_m[4]
    proinov = [r.ratio_proinov for r in report.rows]
    med = statistics.median(r.ratio_proinov for r in report.rows if 64 <= r.n <= 128)
    all_n_ok = max(proinov) <= 4 * med
    digits_ok = all(sum_of_digits(n) <= 1 + math.log2(n) for n in range(1, 10**6 + 1))
    _gate(8, f"bounded scaling: max/4ratio4={max(ratio_m.values())/(4*ratio_m[4]):.2f}, "
             f"max/4median={max(proinov)/(4*med):.2f}",
          power_ok and all_n_ok and digits_ok, start, 600.0)


def test_criterion_9_corollary_construction():
    start = time.perf_counter()
    rng = random.Random(99)
    count_ok = True
    ratios = []
    for _ in range(20):
        n = rng.randint(3, 2000)
        s = rng.choice((1, 2))
        pts = corollary_pointset(s, n)
        if len(pts) != n or any(pt.s != s for pt in pts):
            count_ok = False
        top = 1 << pts[0].precision
        if not all(0 <= c < top for pt in pts for c in pt.coords):
            count_ok = False
        l2 = warnock_l2(pts)
        ratios.append(l2 * n / math.log(n) ** ((s - 1) / 2))
    med = statistics.median(ratios)
    band_ok = max(ratios) <= 4 * med
    _gate(9, f"N-point sets exact; roth ratios within 4x of median "
             f"(max/med={max(ratios)/med:.2f})",
          count_ok and band_ok, start, 300.0)


def test_criterion_10_order_reduction():
    start = time.perf_counter()
    ok = True
    # order-1 instances admit no smaller order; the order-2 ones must
    # re-certify at order 1 with t' = ceil(t/2)
    for m in range(1, 7):
        g = sequence_net(1, 2, m)
        t = smallest_certified_t(g, 2)
        for alpha_prime in range(1, 2):
            if not verify_order_alpha(g, alpha_prime, t_reduced(t, 2, alpha_prime)):
                ok = False
    _gate(10, "certified (alpha,t) recertifies at (alpha', ceil(t a'/a))",
          ok, start, 60.0)
