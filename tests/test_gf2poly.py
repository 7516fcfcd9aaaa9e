import signal

import pytest

from hodisc.gf2poly import (
    Gf2Poly,
    X,
    _MAX_GENERATORS,
    _generator_degrees,
    _primitive_count,
    _primitives_of_degree,
    is_primitive,
    laurent_expand,
    poly_mul,
    poly_to_str,
    primitive_polys,
)


def brute_order_of_x(p: Gf2Poly) -> int:
    """Independent order computation: repeated multiply-reduce, no modexp."""
    e = p.degree
    acc = 0b10
    if acc.bit_length() > e:
        acc ^= p.coeffs
    for n in range(1, 1 << (e + 1)):
        if acc == 1:
            return n
        acc <<= 1
        if acc.bit_length() > e:
            acc ^= p.coeffs
    return -1


def test_poly_mul_square_of_x_plus_1():
    xp1 = Gf2Poly(0b11)
    assert poly_mul(xp1, xp1) == Gf2Poly(0b101)  # (x+1)^2 = x^2+1 over GF(2)


def test_poly_mul_by_one():
    p = Gf2Poly(0b1011)
    assert poly_mul(p, Gf2Poly(1)) == p


def test_poly_mul_x_squared():
    assert poly_mul(X, X) == Gf2Poly(0b100)


def test_degree_sentinel():
    assert Gf2Poly(0).degree == -1
    assert Gf2Poly(1).degree == 0
    assert X.degree == 1


def test_is_primitive_quadratic():
    assert is_primitive(Gf2Poly(0b111))  # the only irreducible quadratic


def test_is_primitive_rejects_square():
    assert not is_primitive(Gf2Poly(0b101))  # x^2+1 = (x+1)^2


def test_is_primitive_rejects_low_order_irreducible():
    # x^4+x^3+x^2+x+1 is irreducible but x has order 5, not 15
    p = Gf2Poly(0b11111)
    assert brute_order_of_x(p) == 5
    assert not is_primitive(p)


def test_is_primitive_agrees_with_brute_order():
    for mask in range(0b100, 0b1000000):
        p = Gf2Poly(mask)
        expect = brute_order_of_x(p) == (1 << p.degree) - 1 if mask & 1 else False
        assert is_primitive(p) == expect, bin(mask)


def test_is_primitive_rejects_constant():
    with pytest.raises(ValueError):
        is_primitive(Gf2Poly(1))
    with pytest.raises(ValueError):
        is_primitive(Gf2Poly(0))


def test_primitive_polys_first_elements():
    assert primitive_polys(1) == [X]
    assert primitive_polys(2) == [X, Gf2Poly(0b11)]  # p_2 = 1+x
    assert primitive_polys(3) == [X, Gf2Poly(0b11), Gf2Poly(0b111)]


def test_primitive_polys_stable_and_primitive():
    a = primitive_polys(12)
    b = primitive_polys(12)
    assert a == b
    degrees = [p.degree for p in a]
    assert degrees == sorted(degrees[:1] + degrees[1:])  # ascending after p_1
    for p in a[1:]:
        assert is_primitive(p)
    # the degrees that the verify formula bound reads from the counts alone
    for n in (1, 2, 3, 12, 13, 200):
        assert _generator_degrees(n) == [p.degree for p in primitive_polys(n)]


def test_primitive_polys_refuses_beyond_the_degree_cap_before_scanning():
    # 1 + sum over e <= 16 of phi(2^e - 1)/e generators exist below the cap;
    # one more is refused from that count, not after scanning degree 16
    def expire(signum, frame):
        raise TimeoutError("no refusal within 1 s")

    assert _MAX_GENERATORS == 5715
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(1)
    try:
        with pytest.raises(ValueError, match="primitive-polynomial scan capped at degree 16"):
            primitive_polys(5716)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_primitive_count_is_the_scan_length():
    for e in range(1, 11):
        assert _primitive_count(e) == len(_primitives_of_degree(e)), e


def test_primitive_count_per_degree():
    # exhaustive scan cross-check: phi(2^e - 1)/e for e in {2, 3, 4}
    found = {e: 0 for e in (2, 3, 4)}
    for mask in range(0b100, 0b100000):
        p = Gf2Poly(mask)
        if p.degree in found and (mask & 1) and is_primitive(p):
            found[p.degree] += 1
    assert found == {2: 1, 3: 2, 4: 2}


def test_laurent_power_of_x():
    # x^0 / x^k expands to a single coefficient at position k
    for k in (1, 2, 5):
        coeffs = laurent_expand(X, k, 0, 8)
        assert coeffs == [1 if l == k else 0 for l in range(1, 9)]


def test_laurent_geometric_series():
    assert laurent_expand(Gf2Poly(0b11), 1, 0, 4) == [1, 1, 1, 1]


def multiply_back(p: Gf2Poly, i: int, z: int, length: int) -> None:
    """Oracle: truncated series times p^i must recover x^(e-z-1) above the
    truncation order."""
    coeffs = laurent_expand(p, i, z, length)
    den = 1
    for _ in range(i):
        den = poly_mul(Gf2Poly(den), p).coeffs
    # series as a polynomial in y = 1/x: sum a_l y^l, times den gives
    # x^(e-z-1) * y^0 ... compare through x^length scaling
    series = 0
    for l, a in enumerate(coeffs, start=1):
        if a:
            series |= 1 << (length - l)
    prod = poly_mul(Gf2Poly(series), Gf2Poly(den)).coeffs
    e = p.degree
    want = 1 << (length + e - z - 1)
    degree_of_pi = i * e
    # agreement on all terms of x-degree > length - (length - degree_of_pi)...
    # i.e. everything at or above x^(degree_of_pi) is exact
    cutoff = degree_of_pi
    assert prod >> cutoff == want >> cutoff, (p, i, z)


def test_laurent_multiply_back_quadratic():
    multiply_back(Gf2Poly(0b111), 1, 1, 3)


@pytest.mark.parametrize("mask", [0b11, 0b111, 0b1011, 0b1101, 0b10011])
def test_laurent_multiply_back_sweep(mask):
    p = Gf2Poly(mask)
    for i in (1, 2, 3):
        for z in range(p.degree):
            multiply_back(p, i, z, 12)


def test_laurent_rejects_bad_shift():
    with pytest.raises(ValueError):
        laurent_expand(Gf2Poly(0b111), 1, 2, 4)


def test_poly_text_forms():
    p = Gf2Poly(0b1011)
    assert poly_to_str(p) == "x^3+x+1"
    assert str(X) == "x"
