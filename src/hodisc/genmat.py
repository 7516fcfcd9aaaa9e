"""Generating matrices for digital nets and sequences over GF(2).

Builds the Sobol'-style matrices whose row k is the Laurent expansion of
x^(e-z-1)/p_j(x)^i with k-1 = (i-1)e_j + z, interlaces matrix sets by a
factor alpha, truncates to net size, and tracks the quality-parameter
bound t.  Sequence (unbounded-width) use is realised by regenerating at a
larger size, which is deterministic, and truncating on demand.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .gf2 import BitMatrix
from .gf2poly import laurent_expand, primitive_polys


@dataclass(frozen=True)
class GeneratingMatrixSet:
    """One matrix per coordinate, all depth x width, plus quality metadata.

    ``alpha`` is the declared interlacing order (1 for plain nets) and
    ``t_bound`` the formula bound on the quality parameter; the exact t is
    certified separately (netverify), since certifying is exponential.
    ``t_bound`` is None when no formula applies to the construction.
    """

    s: int
    depth: int
    width: int
    matrices: tuple[BitMatrix, ...]
    alpha: int
    t_bound: int | None

    def __post_init__(self) -> None:
        if self.s < 1 or len(self.matrices) != self.s:
            raise ValueError("matrix count must equal dimension")
        for m in self.matrices:
            if m.rows != self.depth or m.cols != self.width:
                raise ValueError("all matrices must share depth x width")
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")


def sobol_matrices(s: int, depth: int, width: int) -> GeneratingMatrixSet:
    """Order-1 generating matrices for dimensions 1..s at the given size.

    Coordinate 1 uses p_1 = x (identity matrix, i.e. van der Corput);
    later coordinates walk the ordered primitive-polynomial list.  The
    result satisfies entry(k,l) = 0 for k > l, and t_bound is the sum of
    (deg p_j - 1) over coordinates.
    """
    if s < 1 or depth < 1 or width < 1:
        raise ValueError("dimensions must be positive")
    polys = primitive_polys(s)
    mats = []
    t_bound = 0
    for p in polys:
        e = p.degree
        t_bound += e - 1
        rows = []
        for k in range(1, depth + 1):
            i = (k - 1) // e + 1
            z = (k - 1) % e
            coeffs = laurent_expand(p, i, z, width)
            rows.append(sum(a << l for l, a in enumerate(coeffs)))
        mats.append(BitMatrix.from_rows(rows, width))
    return GeneratingMatrixSet(s, depth, width, tuple(mats), 1, t_bound)


def interlace_matrices(src: GeneratingMatrixSet, alpha: int) -> GeneratingMatrixSet:
    """Interlace an order-1 set of s = alpha*d matrices down to d matrices.

    Row u*alpha + v of output matrix j is row u+1 of input matrix
    (j-1)*alpha + v.  The output has depth alpha*width and t bound
    alpha*t' + d*alpha*(alpha-1)/2.  Interlacing an already-interlaced set
    is rejected: no t formula is known for the composition.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if src.alpha != 1:
        raise ValueError("source set is already interlaced")
    if src.s % alpha:
        raise ValueError(f"dimension {src.s} not divisible by alpha={alpha}")
    if src.depth < src.width:
        raise ValueError("need src.depth >= src.width to supply all referenced rows")
    d = src.s // alpha
    new_depth = alpha * src.width
    mats = []
    for j in range(1, d + 1):
        rows = []
        for k in range(1, new_depth + 1):
            u, v = divmod(k - 1, alpha)
            v += 1
            rows.append(src.matrices[(j - 1) * alpha + v - 1].data[u])
        mats.append(BitMatrix.from_rows(rows, src.width))
    t_bound = None
    if src.t_bound is not None:
        t_bound = alpha * src.t_bound + d * (alpha * (alpha - 1) // 2)
    return GeneratingMatrixSet(d, new_depth, src.width, tuple(mats), alpha, t_bound)


def truncate(src: GeneratingMatrixSet, m: int) -> GeneratingMatrixSet:
    """Upper-left alpha*m x m submatrices; alpha and t_bound carry over."""
    rows = src.alpha * m
    if m < 1:
        raise ValueError("m must be positive")
    if rows > src.depth or m > src.width:
        raise ValueError(f"cannot truncate {src.depth}x{src.width} set to {rows}x{m}")
    mats = tuple(mat.submatrix(rows, m) for mat in src.matrices)
    return GeneratingMatrixSet(src.s, rows, m, mats, src.alpha, src.t_bound)


def t_reduced(t: int, alpha: int, alpha_prime: int) -> int:
    """Quality bound at a smaller order: ceil(t * alpha' / alpha)."""
    if not 1 <= alpha_prime <= alpha:
        raise ValueError(f"alpha'={alpha_prime} out of range 1..{alpha}")
    if t < 0:
        raise ValueError("t must be >= 0")
    return -(-t * alpha_prime // alpha)


def sequence_net(s: int, alpha: int, m: int) -> GeneratingMatrixSet:
    """Width-m truncation of the order-alpha sequence in dimension s.

    For alpha = 1 this is the plain order-1 construction at m x m; for
    alpha > 1 the order-1 construction in dimension alpha*s is interlaced,
    giving alpha*m x m matrices.  The first 2^m sequence points coincide
    with the net of these truncated matrices.
    """
    if alpha == 1:
        return sobol_matrices(s, m, m)
    base = sobol_matrices(s * alpha, m, m)
    return interlace_matrices(base, alpha)


def write_matrix_files(g: GeneratingMatrixSet, outdir: str) -> list[str]:
    """Export one text file per coordinate plus a JSON sidecar; returns paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for j, mat in enumerate(g.matrices, start=1):
        path = os.path.join(outdir, f"matrix_{j}.txt")
        with open(path, "w") as fh:
            fh.write(mat.to_text())
        paths.append(path)
    meta = {
        "s": g.s,
        "alpha": g.alpha,
        "t_bound": g.t_bound,
        "depth": g.depth,
        "width": g.width,
    }
    meta_path = os.path.join(outdir, "meta.json")
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(meta_path)
    return paths
