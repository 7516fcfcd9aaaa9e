import random

import pytest
from hypothesis import given, strategies as st

from hodisc.gf2 import (
    BitMatrix,
    kernel_basis,
    matvec,
    rank,
    span,
    stack_transposed,
    xor_rows,
)


def test_matvec_identity():
    m = BitMatrix.identity(3)
    assert matvec(m, 0b101) == 0b101


def test_matvec_zero_matrix():
    m = BitMatrix.zeros(4, 3)
    assert matvec(m, 0b111) == 0


def test_matvec_hand_example():
    # [[1,1],[0,1]] * (1,1) = (0,1) over GF(2)
    m = BitMatrix.from_lists([[1, 1], [0, 1]])
    assert matvec(m, 0b11) == 0b10


def test_matvec_dimension_mismatch():
    # an int carries no length, so a mismatch shows as a bit beyond the columns
    m = BitMatrix.identity(3)
    with pytest.raises(ValueError):
        matvec(m, 0b1000)


def test_rank_identity_and_zero():
    assert rank(BitMatrix.identity(5)) == 5
    assert rank(BitMatrix.zeros(4, 6)) == 0


def test_rank_duplicate_rows():
    m = BitMatrix.from_lists([[1, 1], [1, 1]])
    assert rank(m) == 1


def test_kernel_identity_empty():
    assert kernel_basis(BitMatrix.identity(4)) == []


def test_kernel_zero_matrix_full():
    basis = kernel_basis(BitMatrix.zeros(2, 3))
    assert len(basis) == 3


def test_kernel_single_relation():
    basis = kernel_basis(BitMatrix.from_lists([[1, 1]]))
    assert basis == [0b11]


def test_stack_transposed_single_identity():
    out = stack_transposed([BitMatrix.identity(3)])
    assert out == BitMatrix.identity(3)


def test_stack_transposed_two_identities():
    out = stack_transposed([BitMatrix.identity(2), BitMatrix.identity(2)])
    assert out.rows == 2 and out.cols == 4
    assert out.data == (0b0101, 0b1010)


def test_stack_transposed_hand_columns():
    # columns checked by applying the stack to unit vectors
    c1 = BitMatrix.identity(2)
    c2 = BitMatrix.from_lists([[1, 1], [0, 1]])
    out = stack_transposed([c1, c2])
    for j, mat in enumerate([c1, c2]):
        for k in range(2):
            expect = sum(mat.entry(k, col) << col for col in range(2))
            assert matvec(out, 1 << (j * 2 + k)) == expect


def test_stack_transposed_shape_mismatch():
    with pytest.raises(ValueError):
        stack_transposed([BitMatrix.identity(2), BitMatrix.identity(3)])


def test_stack_transposed_equals_sum_of_products():
    # exhaustive on tiny sizes: stack applied to concatenated digit vectors
    rng = random.Random(7)
    for _ in range(20):
        p, m, s = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        mats = [
            BitMatrix.from_rows([rng.randrange(1 << m) for _ in range(p)], m)
            for _ in range(s)
        ]
        out = stack_transposed(mats)
        for packed in range(1 << (s * p)):
            acc = 0
            for j in range(s):
                kj = (packed >> (j * p)) & ((1 << p) - 1)
                for row in range(p):
                    if (kj >> row) & 1:
                        acc ^= mats[j].data[row]
            assert matvec(out, packed) == acc


@given(st.integers(1, 24), st.integers(1, 24), st.data())
def test_rank_nullity_and_kernel_annihilation(rows, cols, data):
    masks = [data.draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)]
    m = BitMatrix.from_rows(masks, cols)
    basis = kernel_basis(m)
    assert rank(m) + len(basis) == cols
    for v in basis:
        assert matvec(m, v) == 0


def _draw_matrix(data, rows: int, cols: int) -> BitMatrix:
    """A rows x cols matrix of sparse, even or dense rows."""
    density = data.draw(st.sampled_from(["sparse", "even", "dense"]))
    masks = []
    for _ in range(rows):
        a, b = (data.draw(st.integers(0, (1 << cols) - 1)) for _ in range(2))
        masks.append({"sparse": a & b, "even": a, "dense": a | b}[density])
    return BitMatrix.from_rows(masks, cols)


@given(st.integers(0, 10), st.integers(0, 16), st.data())
def test_kernel_basis_is_the_reduced_echelon_basis(rows, cols, data):
    # a column is free when the earlier columns span it: the span of at most
    # 10-bit columns is listed outright, with no elimination
    m = _draw_matrix(data, rows, cols)
    spanned, free = {0}, []
    for j, col in enumerate(m.columns()):
        if col in spanned:
            free.append(j)
        else:
            spanned |= {x ^ col for x in spanned}
    basis = kernel_basis(m)
    # one vector per free column, in column order, so length cols - rank
    assert [v.bit_length() - 1 for v in basis] == free
    assert len(basis) == cols - (len(spanned).bit_length() - 1)
    for v in basis:
        assert matvec(m, v) == 0
        # no free column but its top bit: the unique RREF representation
        rest = v ^ 1 << v.bit_length() - 1
        assert not any(rest >> j & 1 for j in free)


@given(st.integers(0, 10), st.integers(0, 16), st.data())
def test_columns_match_entries(rows, cols, data):
    m = _draw_matrix(data, rows, cols)
    columns = m.columns()
    assert len(columns) == cols
    for i in range(rows):
        for j in range(cols):
            assert columns[j] >> i & 1 == m.entry(i, j)
    assert all(c >> rows == 0 for c in columns)


@given(st.integers(1, 16), st.integers(1, 16), st.data())
def test_matvec_linearity(rows, cols, data):
    m = BitMatrix.from_rows(
        [data.draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)], cols
    )
    a = data.draw(st.integers(0, (1 << cols) - 1))
    b = data.draw(st.integers(0, (1 << cols) - 1))
    assert matvec(m, a ^ b) == matvec(m, a) ^ matvec(m, b)


def test_text_round_trip():
    m = BitMatrix.from_lists([[1, 0, 1], [0, 1, 1]])
    text = m.to_text()
    assert text.splitlines()[0] == "2 3"
    assert text.splitlines()[1] == "101"  # leftmost char = column 1
    assert BitMatrix.from_text(text) == m


@given(st.integers(0, 12), st.integers(0, 70), st.data())
def test_text_format_round_trips(rows, cols, data):
    m = BitMatrix.from_rows(
        [data.draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)], cols
    )
    assert BitMatrix.from_text(m.to_text()) == m


def test_matvec_rejects_out_of_range_vector():
    m = BitMatrix.identity(2)
    for v in (-1, 0b100):
        with pytest.raises(ValueError):
            matvec(m, v)


@given(st.integers(0, 8), st.integers(1, 12), st.data())
def test_span_and_xor_rows_match_definitions(rows, cols, data):
    masks = [data.draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)]
    assert list(span(masks)) == [xor_rows(masks, n) for n in range(1 << rows)]
    m = BitMatrix.from_rows(masks, cols)
    v = data.draw(st.integers(0, (1 << rows) - 1))
    assert xor_rows(m.data, v) == matvec(stack_transposed([m]), v)
