"""Bit-packed linear algebra over GF(2).

Vectors and matrix rows are Python ints, least-significant bit first: bit i
of a row mask holds the entry of column i+1.  Matrix-vector products reduce
to parity-of-AND popcounts.  A GF(2) combination of rows (one point from
matrix columns, one dual element from a kernel basis) is one xor_rows
call, and span lists every combination in index order at one XOR each,
as the dual net's elements are walked; whole point sets are built by the
same index order on numpy columns (points._net_columns).  Beside one
xor_rows and one span there is one elimination, dependencies: of a
matrix's columns for kernel_basis, of the generating-matrix rows for the
dual net (netverify.dual_enumerate).  All types are immutable after
construction, so instances can be shared freely across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence


@dataclass(frozen=True)
class BitMatrix:
    """rows x cols matrix over GF(2), one int mask per row."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimension")
        if len(self.data) != self.rows:
            raise ValueError("row count does not match data")
        for mask in self.data:
            if mask < 0 or mask >> self.cols:
                raise ValueError("row has set bits beyond declared columns")

    @classmethod
    def from_rows(cls, masks: Sequence[int], cols: int) -> BitMatrix:
        return cls(len(masks), cols, tuple(masks))

    @classmethod
    def from_lists(cls, rows: Sequence[Sequence[int]]) -> BitMatrix:
        cols = len(rows[0]) if rows else 0
        masks = []
        for r in rows:
            if len(r) != cols:
                raise ValueError("ragged rows")
            masks.append(sum((b & 1) << i for i, b in enumerate(r)))
        return cls(len(rows), cols, tuple(masks))

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> BitMatrix:
        return cls(rows, cols, (0,) * rows)

    def entry(self, i: int, j: int) -> int:
        """Entry in row i, column j (both 0-based)."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return (self.data[i] >> j) & 1

    def columns(self) -> tuple[int, ...]:
        """Every column as an int, bit i = entry of row i, in one pass."""
        cols = [0] * self.cols
        for i, mask in enumerate(self.data):
            while mask:
                low = mask & -mask
                cols[low.bit_length() - 1] |= 1 << i
                mask ^= low
        return tuple(cols)

    def submatrix(self, rows: int, cols: int) -> BitMatrix:
        """Upper-left rows x cols block."""
        if rows > self.rows or cols > self.cols:
            raise ValueError("submatrix larger than matrix")
        keep = (1 << cols) - 1
        return BitMatrix(rows, cols, tuple(m & keep for m in self.data[:rows]))

    def to_text(self) -> str:
        """Repo-wide text form: "rows cols" then one '0'/'1' string per row.

        The leftmost character of each line is column 1.
        """
        lines = [f"{self.rows} {self.cols}"]
        for mask in self.data:
            lines.append("".join("1" if (mask >> j) & 1 else "0" for j in range(self.cols)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> BitMatrix:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix text")
        rows, cols = (int(tok) for tok in lines[0].split())
        if cols == 0 and len(lines) == 1:  # zero-length rows print as blank lines
            return cls.zeros(rows, 0)
        if len(lines) - 1 != rows:
            raise ValueError("row count does not match header")
        masks = []
        for ln in lines[1:]:
            ln = ln.strip()
            if len(ln) != cols or set(ln) - {"0", "1"}:
                raise ValueError(f"bad matrix row {ln!r}")
            masks.append(sum(1 << j for j, ch in enumerate(ln) if ch == "1"))
        return cls(rows, cols, tuple(masks))


def matvec(m: BitMatrix, v: int) -> int:
    """Product M v over GF(2); bit i is the parity of row_i AND v."""
    if v < 0 or v >> m.cols:
        raise ValueError(f"dimension mismatch: {m.rows}x{m.cols} times vector {v:#b}")
    return sum(((rowmask & v).bit_count() & 1) << i for i, rowmask in enumerate(m.data))


def xor_rows(rows: Sequence[int], sel: int) -> int:
    """XOR of rows[i] over the set bits i of sel."""
    acc = 0
    while sel:
        low = sel & -sel
        acc ^= rows[low.bit_length() - 1]
        sel ^= low
    return acc


def span(rows: Sequence[int]) -> Iterator[int]:
    """xor_rows(rows, n) for n = 0 .. 2^len(rows) - 1, in index order.

    n - 1 and n differ in bits 0..v, v the lowest set bit of n, so each
    step is one XOR with the prefix XOR rows[0] ^ ... ^ rows[v].
    """
    prefix = list(accumulate(rows, operator.xor))
    acc = 0
    yield acc
    for n in range(1, 1 << len(rows)):
        acc ^= prefix[(n & -n).bit_length() - 1]
        yield acc


def dependencies(vectors: Sequence[int]) -> list[int]:
    """Index masks of the dependencies among the vectors, one per vector
    that the earlier ones span, in index order.  Each vector is reduced by
    the pivots held (keyed by top bit), its index mask XORed alongside, so
    a mask is the unique sum over the first independent vectors: on matrix
    columns, the reduced-row-echelon kernel basis."""
    pivots: dict[int, tuple[int, int]] = {}  # top bit -> (reduced vector, index mask)
    deps = []
    for i, vec in enumerate(vectors):
        mask = 1 << i
        while vec:
            top = vec.bit_length() - 1
            held = pivots.get(top)
            if held is None:
                pivots[top] = (vec, mask)
                break
            vec ^= held[0]
            mask ^= held[1]
        else:
            deps.append(mask)
    return deps


def kernel_basis(m: BitMatrix) -> list[int]:
    """Basis masks of the right null space {v : M v = 0}; size = cols - rank."""
    return dependencies(m.columns())


def rank(m: BitMatrix) -> int:
    """Row rank over GF(2), by rank-nullity from the kernel basis."""
    return m.cols - len(kernel_basis(m))


def stack_transposed(ms: Sequence[BitMatrix]) -> BitMatrix:
    """Horizontal concatenation of the transposes, [M_1^T | ... | M_k^T].

    All inputs must share the same shape p x m.  The result is m x (k*p);
    applied to the concatenation of k digit vectors it returns the sum of
    the per-matrix transposed products.
    """
    if not ms:
        raise ValueError("need at least one matrix")
    p, cols = ms[0].rows, ms[0].cols
    for m in ms:
        if m.rows != p or m.cols != cols:
            raise ValueError("dimension mismatch: stacked matrices must share shape")
    out_masks = [0] * cols
    for j, m in enumerate(ms):
        for i, col in enumerate(m.columns()):
            out_masks[i] |= col << (j * p)
    return BitMatrix(cols, len(ms) * p, tuple(out_masks))
