"""Polynomials over GF(2): arithmetic, primitivity, Laurent expansions.

A polynomial is held as an int bitmask, bit d = coefficient of x^d.  The
module supplies the ordered list of primitive polynomials used to build
generating matrices and the Laurent-series coefficients of x^(e-z-1)/p(x)^i
in GF(2)((1/x)) that become the matrix entries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class Gf2Poly:
    """Polynomial over GF(2) as a coefficient bitmask (bit d = coeff of x^d)."""

    coeffs: int

    def __post_init__(self) -> None:
        if self.coeffs < 0:
            raise ValueError("negative bitmask")

    @property
    def degree(self) -> int:
        """Degree; -1 is the sentinel for the zero polynomial."""
        return self.coeffs.bit_length() - 1

    def __str__(self) -> str:
        return poly_to_str(self)


X = Gf2Poly(0b10)


def poly_mul(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    """Carry-less product over GF(2)."""
    return Gf2Poly(_mul(a.coeffs, b.coeffs))


def _mul(a: int, b: int) -> int:
    acc = 0
    while a:
        if a & 1:
            acc ^= b
        a >>= 1
        b <<= 1
    return acc


def _divmod(num: int, den: int) -> tuple[int, int]:
    if den == 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = 0
    dl = den.bit_length()
    while num.bit_length() >= dl:
        shift = num.bit_length() - dl
        q |= 1 << shift
        num ^= den << shift
    return q, num


def _mulmod(a: int, b: int, mod: int) -> int:
    return _divmod(_mul(a, b), mod)[1]


def _powmod(base: int, exp: int, mod: int) -> int:
    result = 1
    base = _divmod(base, mod)[1]
    while exp:
        if exp & 1:
            result = _mulmod(result, base, mod)
        base = _mulmod(base, base, mod)
        exp >>= 1
    return result


def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def is_primitive(p: Gf2Poly) -> bool:
    """True iff x has multiplicative order 2^deg(p) - 1 modulo p.

    Degree-1 polynomials x and x+1 are accepted by convention (the order
    condition is vacuous for 2^1 - 1 = 1).  Order exactly 2^e - 1 forces
    every nonzero residue to be a unit, so irreducibility is implied and
    needs no separate test.
    """
    e = p.degree
    if e < 1:
        raise ValueError("zero or constant polynomial has no primitivity")
    if e == 1:
        return True
    if not p.coeffs & 1:
        return False  # divisible by x
    group = (1 << e) - 1
    if _powmod(0b10, group, p.coeffs) != 1:
        return False
    for q in _prime_factors(group):
        if _powmod(0b10, group // q, p.coeffs) == 1:
            return False
    return True


_table_lock = threading.Lock()
_primitive_by_degree: dict[int, list[Gf2Poly]] = {}

MAX_SCAN_DEGREE = 16


def _primitive_count(e: int) -> int:
    """Primitive polynomials of degree e, phi(2^e - 1) / e; 1 at e = 1 (x + 1)."""
    group = phi = (1 << e) - 1
    for q in _prime_factors(group):
        phi -= phi // q
    return phi // e


# x and every primitive polynomial up to the scan cap: 5715
_MAX_GENERATORS = 1 + sum(_primitive_count(e) for e in range(1, MAX_SCAN_DEGREE + 1))


def _primitives_of_degree(e: int) -> list[Gf2Poly]:
    got = _primitive_by_degree.get(e)
    if got is not None:
        return got
    found = []
    # constant term 1 keeps x itself out of the scan; every irreducible of
    # degree >= 2 has it anyway
    for mid in range(1 << max(e - 1, 0)):
        mask = (1 << e) | (mid << 1) | 1
        if is_primitive(Gf2Poly(mask)):
            found.append(Gf2Poly(mask))
    with _table_lock:
        return _primitive_by_degree.setdefault(e, found)


def primitive_polys(count: int) -> list[Gf2Poly]:
    """First ``count`` generator polynomials: x, then primitive polynomials
    sorted by ascending degree, ties broken by ascending bitmask."""
    if count < 1:
        raise ValueError("count must be positive")
    if count > _MAX_GENERATORS:  # refused before any scan
        raise ValueError(f"primitive-polynomial scan capped at degree {MAX_SCAN_DEGREE}")
    out = [X]
    e = 1
    while len(out) < count:
        for p in _primitives_of_degree(e):
            out.append(p)
            if len(out) == count:
                break
        e += 1
    return out


def laurent_expand(p: Gf2Poly, i: int, z: int, length: int) -> list[int]:
    """Coefficients a_1..a_length of x^(e-z-1)/p(x)^i = sum a_l x^(-l).

    Computed by one long division in GF(2)((1/x)): a_l is the coefficient
    of x^(length-l) in the quotient of x^(length+e-z-1) by p^i.
    """
    e = p.degree
    if e < 1:
        raise ValueError("need deg(p) >= 1")
    if i < 1:
        raise ValueError("power must be >= 1")
    if not 0 <= z < e:
        raise ValueError(f"shift z={z} out of range for degree {e}")
    if length < 0:
        raise ValueError("negative length")
    den = 1
    for _ in range(i):
        den = _mul(den, p.coeffs)
    num = 1 << (length + e - z - 1)
    q, _ = _divmod(num, den)
    return [(q >> (length - l)) & 1 for l in range(1, length + 1)]


def poly_to_str(p: Gf2Poly) -> str:
    """Exponent-list form, e.g. "x^3+x+1"."""
    if p.coeffs == 0:
        return "0"
    terms = []
    for d in range(p.degree, -1, -1):
        if (p.coeffs >> d) & 1:
            if d == 0:
                terms.append("1")
            elif d == 1:
                terms.append("x")
            else:
                terms.append(f"x^{d}")
    return "+".join(terms)
