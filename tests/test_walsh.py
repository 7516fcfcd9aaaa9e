import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hodisc.netverify import character_sum
from hodisc.points import DyadicPoint, digital_shift
from hodisc.walsh import mu, mu_alpha, mu_vec, r_coeff, r_coeff_oracle, wal_vec


def test_mu_values():
    assert mu(0) == 0
    assert mu(1) == 1
    assert mu(6) == 3
    assert mu(1 << 20) == 21


def test_mu_vec():
    assert mu_vec((0, 6, 1)) == 4


def test_mu_alpha():
    assert mu_alpha(0b110110, 1) == 6
    assert mu_alpha(0b110110, 2) == 6 + 5
    assert mu_alpha(0b110110, 3) == 6 + 5 + 3
    assert mu_alpha(0b1, 4) == 1  # fewer bits than the order


def test_wal_zero_index_is_one():
    for num in range(8):
        assert wal_vec((0,), DyadicPoint((num,), 3)) == 1


def test_wal_hand_values():
    assert wal_vec((1,), DyadicPoint((1,), 1)) == -1  # wal_1(1/2)
    assert wal_vec((3,), DyadicPoint((3,), 2)) == 1   # digits .11 against binary 11
    assert wal_vec((2,), DyadicPoint((1,), 2)) == -1  # second digit of 1/4


def test_wal_beyond_precision_reads_zero_digits():
    assert wal_vec((8,), DyadicPoint((1,), 1)) == 1  # digit 4 of 0.1 is 0


def test_wal_vec_product():
    x = DyadicPoint((1, 1), 1)
    assert wal_vec((1, 1), x) == 1   # (-1) * (-1)
    assert wal_vec((1, 0), x) == -1
    assert wal_vec((0, 0), x) == 1


def test_wal_vec_dimension_mismatch():
    with pytest.raises(ValueError):
        wal_vec((1,), DyadicPoint((0, 0), 1))


def _within(seconds, call):
    """Run call() and fail with TimeoutError if it runs past the deadline."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_negative_walsh_index_rejected():
    # a negative index once looped forever in the digit walk
    x = DyadicPoint((1,), 2)
    calls = (
        lambda: wal_vec((-1,), x),
        lambda: wal_vec((0, -3), DyadicPoint((1, 2), 2)),
        lambda: character_sum([x], (-1,)),
    )
    for call in calls:
        with pytest.raises(ValueError):
            _within(5, call)


@given(st.integers(0, 255), st.integers(0, 63), st.integers(0, 63))
def test_wal_multiplicative_under_shift(k, xn, sn):
    x = DyadicPoint((xn,), 6)
    sigma = DyadicPoint((sn,), 6)
    shifted = digital_shift(x, sigma)
    assert wal_vec((k,), shifted) == wal_vec((k,), x) * wal_vec((k,), sigma)


def test_r_coeff_pinned_values():
    assert r_coeff(0, 0) == Fraction(1, 3)
    assert r_coeff(1, 1) == Fraction(1, 12)
    assert r_coeff(1, 0) == Fraction(1, 8)
    assert r_coeff(5, 2) == 0
    assert r_coeff(2, 0) == Fraction(1, 16)
    assert r_coeff(3, 0) == Fraction(-1, 32)
    assert r_coeff(7, 0) == 0


def _positions(k):
    """Set-bit positions of k, 1-based, descending."""
    return [pos for pos in range(k.bit_length(), 0, -1) if k >> (pos - 1) & 1]


def _r_from_position_lists(k, l):
    """The r_coeff docstring table, read off full position lists."""
    if k < l:
        k, l = l, k
    a, b = _positions(k), _positions(l)
    if k == l:
        return Fraction(1, 3 * 4 ** a[0]) if k else Fraction(1, 3)
    if l == 0 and len(a) == 1:
        return Fraction(1, 2 ** (a[0] + 2))
    if l == 0 and len(a) == 2:
        return Fraction(-1, 2 ** (a[0] + a[1] + 2))
    if len(a) == len(b) + 2 > 2 and a[2:] == b:
        return Fraction(-1, 2 ** (a[0] + a[1] + 2))
    if len(a) == len(b) and a[0] != b[0] and a[1:] == b[1:]:
        return Fraction(1, 2 ** (a[0] + b[0] + 2))
    return Fraction(0)


def test_r_coeff_matches_position_list_table():
    for k in range(256):
        for l in range(256):
            assert r_coeff(k, l) == _r_from_position_lists(k, l), (k, l)


def test_r_coeff_symmetry():
    for k in range(64):
        for l in range(64):
            assert r_coeff(k, l) == r_coeff(l, k)


def test_r_coeff_decay_bound():
    for k in range(256):
        for l in range(256):
            assert abs(r_coeff(k, l)) <= Fraction(1, 1 << (mu(k) + mu(l)))


def test_oracle_base_case():
    assert r_coeff_oracle(0, 0, 4) == Fraction(1, 3)


def test_oracle_matches_table():
    for k in range(16):
        for l in range(16):
            assert r_coeff_oracle(k, l, 6) == r_coeff(k, l), (k, l)


def test_oracle_grid_stable():
    rng = random.Random(3)
    for _ in range(6):
        k, l = rng.randrange(16), rng.randrange(16)
        assert r_coeff_oracle(k, l, 6) == r_coeff_oracle(k, l, 7)


def test_oracle_rejects_coarse_grid():
    with pytest.raises(ValueError):
        r_coeff_oracle(16, 0, 6)  # mu = 5 needs grid >= 7
