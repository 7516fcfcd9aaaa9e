import bisect
import dataclasses
import itertools
import math
import random
import signal
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hodisc.genmat import GeneratingMatrixSet, sequence_net, t_reduced
from hodisc.gf2 import BitMatrix, rank, xor_rows
from hodisc.netverify import (
    JAlphaBox,
    VerificationBudgetError,
    _selection_pattern_count,
    box_counts,
    character_sum,
    dual_enumerate,
    dual_min_weight,
    find_dependency,
    j_alpha_count,
    smallest_certified_t,
    verify_order_alpha,
)
from hodisc.points import net_points
from hodisc.walsh import mu_alpha


def test_identity_net_certifies_t0():
    assert verify_order_alpha(sequence_net(1, 1, 5), 1, 0)


def test_sobol_pair_certifies_t0():
    for m in range(1, 7):
        assert verify_order_alpha(sequence_net(2, 1, m), 1, 0)


def test_three_dims_need_t1():
    # degrees 1,1,2 force t = 1: t = 0 must produce a witness
    g = sequence_net(3, 1, 4)
    witness = find_dependency(g, 1, 0)
    assert witness is not None
    assert verify_order_alpha(g, 1, 1)
    # the witness rows really are linearly dependent
    masks = [g.matrices[j].data[row - 1] for j, row in witness]
    assert rank(BitMatrix.from_rows(masks, g.width)) < len(masks)


def test_order2_interlaced_certifies_within_bound():
    for m in range(1, 7):
        g = sequence_net(1, 2, m)
        assert g.t_bound == 1
        t = smallest_certified_t(g, 2)
        assert t <= g.t_bound


def test_verify_rejects_bad_t():
    g = sequence_net(1, 1, 3)
    with pytest.raises(ValueError):
        verify_order_alpha(g, 1, -1)
    with pytest.raises(ValueError):
        verify_order_alpha(g, 1, 4)


def test_budget_as_third_outcome():
    g = sequence_net(2, 2, 6)
    with pytest.raises(VerificationBudgetError) as info:
        verify_order_alpha(g, 2, 0, budget=10)
    assert info.value.estimate > 10


def _brute_pattern_count(p, alpha, cap, s):
    """s-tuples of subsets of {1..p}, each of at most alpha elements, whose
    elements sum to at most cap in total."""
    weights = [sum(c) for size in range(alpha + 1)
               for c in itertools.combinations(range(1, p + 1), size)]
    return sum(sum(ws) <= cap for ws in itertools.product(weights, repeat=s))


def test_selection_pattern_count_is_the_brute_force_count():
    for p, alpha, s in itertools.product(range(7), range(1, 4), range(1, 4)):
        weights = [sum(c) for size in range(alpha + 1)
                   for c in itertools.combinations(range(1, p + 1), size)]
        totals = sorted(sum(ws) for ws in itertools.product(weights, repeat=s))
        for cap in range(-1, 12):
            want = bisect.bisect_right(totals, cap)
            assert _selection_pattern_count(p, alpha, cap, s) == want, (p, alpha, cap, s)


def test_pattern_budget_is_the_exact_estimate():
    # the whole certifying walk runs at a budget equal to the pattern count
    # and is refused one below it
    g, t = sequence_net(2, 2, 6), 4
    cap = 2 * g.width - t
    want = _brute_pattern_count(min(g.depth, cap), 2, cap, g.s)
    assert want == 121
    assert find_dependency(g, 2, t, budget=want) is None
    with pytest.raises(VerificationBudgetError) as info:
        find_dependency(g, 2, t, budget=want - 1)
    assert (info.value.estimate, info.value.budget) == (want, want - 1)


def _order_alpha_weight(rows, alpha):
    """Sum over coordinates of the alpha largest rows taken there."""
    per_coord = {}
    for j, i in rows:
        per_coord.setdefault(j, []).append(i)
    return sum(sum(sorted(got, reverse=True)[:alpha]) for got in per_coord.values())


def _oracle_least_weight(g, alpha):
    """Least order-alpha weight of a dependent set of rows, over all subsets
    of the s*depth rows (math.inf if there is none).

    A dependent set holds a nonempty subset whose rows XOR to zero, and
    dropping rows never raises the weight, so the least weight is taken
    over the zero-XOR subsets.  Each subset's XOR is built from the subset
    without its lowest member; bit j*depth + i - 1 stands for row i of
    coordinate j."""
    d = g.depth
    masks = [row for mat in g.matrices for row in mat.data]
    xor = [0] * (1 << len(masks))
    least = math.inf
    for subset in range(1, len(xor)):
        low = (subset & -subset).bit_length() - 1
        xor[subset] = xor[subset & (subset - 1)] ^ masks[low]
        if xor[subset]:
            continue
        weight = 0
        for j in range(g.s):
            block = subset >> (j * d) & ((1 << d) - 1)
            for _ in range(alpha):  # the alpha largest rows, from the top bit
                if not block:
                    break
                weight += block.bit_length()
                block ^= 1 << (block.bit_length() - 1)
        least = min(least, weight)
    return least


@st.composite
def _small_matrix_sets(draw):
    """Matrix sets with at most 12 rows in all, sparse and dense, and any t."""
    s = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 12 // s))
    m = draw(st.integers(1, 8))
    alpha = draw(st.integers(1, 4))
    dense = st.integers(0, (1 << m) - 1)
    sparse = st.sampled_from([0] + [1 << c for c in range(m)])
    row = dense if draw(st.booleans()) else st.one_of(sparse, dense)
    mats = tuple(BitMatrix.from_rows(draw(st.lists(row, min_size=depth, max_size=depth)), m)
                 for _ in range(s))
    return GeneratingMatrixSet(s, depth, m, mats, alpha, None), alpha, draw(st.integers(0, alpha * m))


@settings(max_examples=300, deadline=None)
@given(_small_matrix_sets())
def test_find_dependency_agrees_with_the_subset_oracle(case):
    g, alpha, t = case
    top = alpha * g.width
    least = _oracle_least_weight(g, alpha)
    # the drawn t and, when in range, both sides of the verdict's edge
    edge = {t} if least == math.inf else {t, top - least, top - least + 1}
    for t in sorted(edge & set(range(top + 1))):
        witness = find_dependency(g, alpha, t)
        assert (witness is not None) == (least <= top - t), t
        if witness is None:
            continue
        # the witness, checked from scratch
        assert all(0 <= j < g.s and 1 <= i <= g.depth for j, i in witness)
        assert len(set(witness)) == len(witness)
        assert witness == sorted(witness, key=lambda ji: (ji[0], -ji[1]))
        assert _order_alpha_weight(witness, alpha) <= top - t
        masks = [g.matrices[j].data[i - 1] for j, i in witness]
        assert rank(BitMatrix.from_rows(masks, g.width)) < len(masks)


def test_order_reduction_consistency():
    # certified at (alpha, t) implies certified at (alpha', ceil(t a'/a))
    g = sequence_net(1, 2, 5)
    t = smallest_certified_t(g, 2)
    for alpha_prime in range(1, 2):
        assert verify_order_alpha(g, alpha_prime, t_reduced(t, 2, alpha_prime))
    g3 = sequence_net(1, 3, 3)
    t3 = smallest_certified_t(g3, 3)
    for alpha_prime in (1, 2):
        assert verify_order_alpha(g3, alpha_prime, t_reduced(t3, 3, alpha_prime))


def test_box_counts_van_der_corput():
    pts = net_points(sequence_net(1, 1, 3))
    counts = box_counts(pts, (3,))
    assert len(counts) == 8 and all(c == 1 for c in counts.values())


def test_box_counts_trivial_box():
    pts = net_points(sequence_net(2, 1, 3))
    counts = box_counts(pts, (0, 0))
    assert counts == {(0, 0): 8}


def test_box_counts_sobol_m4_all_splits():
    pts = net_points(sequence_net(2, 1, 4))
    for d1 in range(5):
        counts = box_counts(pts, (d1, 4 - d1))
        assert all(c == 1 for c in counts.values())
        assert len(counts) == 16


def test_box_counts_validates_shape():
    pts = net_points(sequence_net(2, 1, 2))
    with pytest.raises(ValueError):
        box_counts(pts, (1,))
    with pytest.raises(ValueError):
        box_counts(pts, (1, -1))


def test_box_counts_checks_the_precision_before_building_boxes():
    # 2^22 boxes at depth 11 against 4-bit points: refused before the
    # ~0.4 GB dict of boxes is built
    pts = net_points(sequence_net(2, 1, 4))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="box finer than the point precision"):
            box_counts(pts, (11, 11))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_box_counts_refuses_2_to_the_23_boxes_before_building_them():
    # the dict of every box would hold ~0.8 GB; the refusal comes first
    def expire(signum, frame):
        raise TimeoutError("no refusal within 5 s")

    pts = net_points(sequence_net(2, 6, 2))
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match=r"2\^23 boxes exceed budget 2\^22"):
            box_counts(pts, (12, 11))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_j_box_half_interval():
    box = JAlphaBox((1, 0), (0, 0))  # pins digit 1 = 0, ignores position 0
    assert box.constrained_digits() == 1
    assert box.contains(0, 3)
    assert box.contains(3, 3)   # 3/8
    assert not box.contains(4, 3)  # 1/2 is outside [0, 1/2)


def test_j_box_union_of_intervals():
    box = JAlphaBox((3, 1), (1, 1))  # [5/8, 6/8) + [7/8, 1)
    members = [n for n in range(8) if box.contains(n, 3)]
    assert members == [5, 7]
    count, vol = j_alpha_count(net_points(sequence_net(1, 1, 3)), [box])
    assert vol == Fraction(1, 4)
    assert count == 8 * vol


def test_j_box_trivial():
    box = JAlphaBox((), ())
    assert box.contains(5, 3)
    count, vol = j_alpha_count(net_points(sequence_net(1, 1, 2)), [box])
    assert (count, vol) == (4, 1)


def test_j_box_digits_beyond_precision_are_zero():
    # 0.101: digits 1, 0, 1, then 0 at position 4, one past the precision
    x = 0b101, 3
    for i, digit in enumerate((1, 0, 1, 0), start=1):
        assert JAlphaBox((i,), (digit,)).contains(*x)
        assert not JAlphaBox((i,), (1 - digit,)).contains(*x)
    assert JAlphaBox((4, 3, 1), (0, 1, 1)).contains(*x)
    assert not JAlphaBox((4, 3, 1), (1, 1, 1)).contains(*x)


def test_j_box_malformed():
    with pytest.raises(ValueError):
        JAlphaBox((1, 2), (0, 0))   # increasing positions
    with pytest.raises(ValueError):
        JAlphaBox((2, 2), (0, 0))   # repeated positions
    with pytest.raises(ValueError):
        JAlphaBox((1, -2), (0, 0))  # below -nu+1
    assert JAlphaBox((1, -1), (0, 0)).constrained_digits() == 1  # boundary ok
    with pytest.raises(ValueError):
        JAlphaBox((1,), (2,))       # non-binary digit


def admissible_boxes(m, alpha, t, max_nu):
    cap = alpha * m - t
    positions = range(alpha * m, -max_nu, -1)
    for nu in range(max_nu + 1):
        for a in itertools.combinations(positions, nu):
            if nu and a[-1] < -nu + 1:
                continue
            weight = sum(max(x, 0) for x in a[: min(nu, alpha)])
            if weight > cap:
                continue
            for kappa in itertools.product((0, 1), repeat=nu):
                yield JAlphaBox(a, kappa)


def test_order2_net_fair_on_admissible_unions():
    m, alpha = 3, 2
    g = sequence_net(1, alpha, m)
    t = smallest_certified_t(g, alpha)
    pts = net_points(g)
    checked = 0
    for box in admissible_boxes(m, alpha, t, alpha + 1):
        count, vol = j_alpha_count(pts, [box])
        assert Fraction(count) == (1 << m) * vol, box
        checked += 1
    assert checked > 100


def test_dual_identity_truncated_range():
    dual = dual_enumerate(sequence_net(1, 1, 2))
    assert dual.size() == 1  # only the zero vector
    assert list(dual.elements()) == []
    assert dual_min_weight(dual, 1) == math.inf


def test_dual_identity_extended_range():
    dual = dual_enumerate(sequence_net(1, 1, 2), digit_range=3)
    elements = sorted(ks[0] for ks in dual.elements())
    assert elements == [4]  # first unconstrained digit
    assert dual_min_weight(dual, 1) == 3  # m + 1


def test_dual_size_rank_nullity():
    g = sequence_net(2, 2, 3)
    dual = dual_enumerate(g)
    assert dual.rank == 3
    assert dual.size() == 1 << (2 * 6 - 3)


def test_dual_membership_matches_enumeration():
    g = sequence_net(2, 1, 3)
    dual = dual_enumerate(g)
    members = set(dual.elements())
    rng = random.Random(9)
    for _ in range(200):
        ks = (rng.randrange(8), rng.randrange(8))
        assert dual.contains(ks, g.matrices) == (ks in members or ks == (0, 0))


def test_dual_element_order_is_index_order():
    dual = dual_enumerate(sequence_net(2, 2, 3))
    expect = [dual._split(xor_rows(dual.basis, n)) for n in range(1, dual.size())]
    assert list(dual.elements()) == expect


def test_dual_budget():
    g = sequence_net(2, 2, 3)
    with pytest.raises(VerificationBudgetError):
        dual_enumerate(g, budget_exponent=4)


def test_character_sum_zero_index():
    pts = net_points(sequence_net(2, 1, 3))
    assert character_sum(pts, (0, 0)) == 8


def test_character_sum_van_der_corput():
    pts = net_points(sequence_net(1, 1, 2))
    assert character_sum(pts, (1,)) == 0
    assert character_sum(pts, (4,)) == 4  # digit 3 unconstrained


def test_character_dichotomy_exhaustive_small():
    g = sequence_net(2, 1, 2)
    pts = net_points(g)
    dual = set(dual_enumerate(g).elements())
    for k1 in range(4):
        for k2 in range(4):
            cs = character_sum(pts, (k1, k2))
            assert cs in (0, 4)
            assert (cs == 4) == ((k1, k2) in dual or (k1, k2) == (0, 0))


def test_certified_t_implies_fair_boxes():
    # every box family with sum(d) <= m - t(1) is filled evenly
    for s, alpha, m in [(3, 1, 4), (1, 2, 4), (2, 2, 3)]:
        g = sequence_net(s, alpha, m)
        t1 = smallest_certified_t(g, 1)
        pts = net_points(g)
        for d in itertools.product(range(m + 1), repeat=s):
            total = sum(d)
            if total > m - t1:
                continue
            counts = box_counts(pts, d)
            assert all(c == 1 << (m - total) for c in counts.values()), (s, alpha, m, d)


def test_dual_min_weight_exceeds_net_bound():
    # order-1: mu over the dual exceeds m - t for a certified (t, m, s)-net
    g = sequence_net(2, 1, 4)
    t = smallest_certified_t(g, 1)
    assert t == 0
    assert dual_min_weight(dual_enumerate(g), 1) > 4 - t
    # order-2 interlaced net: order-2 weight exceeds 2m - t_bound
    g2 = sequence_net(1, 2, 4)
    dual2 = dual_enumerate(g2)
    assert dual_min_weight(dual2, 2) > 2 * 4 - g2.t_bound


def _direct_min_weight(dual, order):
    return min((sum(mu_alpha(k, order) for k in ks) for ks in dual.elements()),
               default=math.inf)


@st.composite
def _random_duals(draw):
    """Dual of a random matrix set at a digit range on a 12-bit chunk or a
    64-bit word edge, with a basis shorter or longer than the 2^12 block."""
    s = draw(st.integers(1, 3))
    r = draw(st.sampled_from([11, 12, 13, 24, 64, 65, 90]))
    # dual dimension, if the matrices have full rank: within one block or past it
    free = draw(st.integers(13, 14) if draw(st.booleans()) else st.integers(0, 12))
    pad = draw(st.integers(0, free // s))  # digits beyond the matrix depth
    depth = r - pad
    width = s * depth - (free - s * pad)
    assume(width >= 1)
    rng = random.Random(draw(st.integers(0, 2**32)))
    mats = tuple(
        BitMatrix.from_rows([rng.getrandbits(width) for _ in range(depth)], width)
        for _ in range(s)
    )
    g = GeneratingMatrixSet(s, depth, width, mats, 1, None)
    try:
        return dual_enumerate(g, digit_range=r, budget_exponent=16)
    except VerificationBudgetError:  # a rare rank deficiency
        assume(False)


@settings(max_examples=60, deadline=None)
@given(_random_duals(), st.integers(1, 4))
def test_dual_min_weight_matches_the_definition(dual, order):
    got = dual_min_weight(dual, order)
    assert got == _direct_min_weight(dual, order)
    assert type(got) is (int if dual.basis else float)
    # the same dual from the reversed basis: its low-weight elements now
    # need the masks beyond the first block
    assert dual_min_weight(dataclasses.replace(dual, basis=dual.basis[::-1]), order) == got


def test_dual_min_weight_trivial_dual_and_bad_order():
    trivial = dual_enumerate(sequence_net(1, 1, 2))
    for order in (1, 2, 3):
        assert dual_min_weight(trivial, order) == math.inf
    dual = dual_enumerate(sequence_net(2, 2, 3))
    assert type(dual_min_weight(dual, 2)) is int
    for order in (0, -1):
        with pytest.raises(ValueError):
            dual_min_weight(dual, order)
        with pytest.raises(ValueError):
            dual_min_weight(trivial, order)


def test_duality_primal_t_equals_dual_weight_bound():
    # Niederreiter-Pirsic (order 1), Dick (order alpha): the smallest certified
    # t is a*m + 1 minus the minimum order-a dual weight, floored at 0
    checked = 0
    for s, alpha, m in itertools.product((1, 2, 3), (1, 2, 3), range(1, 7)):
        if s * alpha * m - m > 16:
            continue
        g = sequence_net(s, alpha, m)
        dual = dual_enumerate(g)
        assert dual.size() <= 1 << 16
        for a in range(1, alpha + 1):
            t = smallest_certified_t(g, a)
            assert t == max(0, a * m + 1 - dual_min_weight(dual, a)), (s, alpha, m, a)
            checked += 1
    assert checked == 79
