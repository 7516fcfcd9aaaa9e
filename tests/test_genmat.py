import pytest

from hodisc.genmat import (
    GeneratingMatrixSet,
    _sequence_bound,
    interlace_matrices,
    sequence_net,
    sobol_matrices,
    t_reduced,
    truncate,
    write_matrix_files,
)
from hodisc.gf2 import BitMatrix


def test_first_coordinate_is_identity():
    for m in (1, 2, 5, 12):
        g = sobol_matrices(3, m, m)
        assert g.matrices[0] == BitMatrix.identity(m)


def test_t_bound_from_degrees():
    assert sobol_matrices(2, 4, 4).t_bound == 0      # degrees 1, 1
    assert sobol_matrices(3, 4, 4).t_bound == 1      # degrees 1, 1, 2
    assert sobol_matrices(5, 4, 4).t_bound == 1 + 2 + 2  # 1,1,2,3,3
    # interlaced by 2 from degrees 1,1,2,3, as verify prints it without a net
    assert _sequence_bound(2, 2) == sequence_net(2, 2, 3).t_bound == 2 * 3 + 2 * 1


def test_upper_triangular_structure():
    g = sobol_matrices(4, 10, 10)
    for mat in g.matrices:
        for k in range(10):
            for l in range(10):
                if k > l:
                    assert mat.entry(k, l) == 0


def test_interlaced_column_structure():
    # entry(k, l) = 0 for k > alpha * l carries over to interlaced matrices
    g = interlace_matrices(sobol_matrices(4, 6, 6), 2)
    for mat in g.matrices:
        for k in range(1, mat.rows + 1):
            for l in range(1, mat.cols + 1):
                if k > 2 * l:
                    assert mat.entry(k - 1, l - 1) == 0


def test_interlace_alpha_one_is_identity_map():
    src = sobol_matrices(2, 3, 3)
    out = interlace_matrices(src, 1)
    assert out.matrices == src.matrices
    assert out.t_bound == src.t_bound
    assert out.alpha == 1


def test_interlace_t_bound_alpha_five():
    # one output dimension, interlacing factor 5, source quality 0
    src = sobol_matrices(5, 4, 4)
    assert src.t_bound == 5
    d1 = interlace_matrices(sobol_matrices(5, 4, 4), 5)
    assert d1.s == 1 and d1.alpha == 5
    assert d1.t_bound == 5 * 5 + 1 * 10
    # the quoted case: t' = 0 inputs give exactly s * alpha-choose-2
    two = interlace_matrices(sobol_matrices(2, 4, 4), 2)
    assert two.t_bound == 0 + 1 * 1


def test_interlace_row_layout():
    ident = BitMatrix.identity(2)
    src = GeneratingMatrixSet(2, 2, 2, (ident, ident), 1, 0)
    out = interlace_matrices(src, 2)
    assert out.s == 1 and out.depth == 4 and out.width == 2
    e1 = out.matrices[0]
    assert [e1.data[k] for k in range(4)] == [0b01, 0b01, 0b10, 0b10]


def test_interlace_rejects_bad_inputs():
    src = sobol_matrices(3, 4, 4)
    with pytest.raises(ValueError):
        interlace_matrices(src, 2)  # 3 not divisible by 2
    shallow = sobol_matrices(2, 2, 4)
    with pytest.raises(ValueError):
        interlace_matrices(shallow, 2)  # depth < width
    nested = interlace_matrices(sobol_matrices(4, 4, 4), 2)
    with pytest.raises(ValueError):
        interlace_matrices(nested, 2)  # no t formula for compositions


def test_truncate_identity_and_composition():
    g = sobol_matrices(2, 8, 8)
    t1 = truncate(g, 4)
    assert t1.matrices[0] == BitMatrix.identity(4)
    assert truncate(t1, 2) == truncate(g, 2)
    assert t1.alpha == g.alpha and t1.t_bound == g.t_bound


def test_truncate_interlaced_matches_direct():
    big = interlace_matrices(sobol_matrices(2, 6, 6), 2)
    small = truncate(big, 3)
    direct = interlace_matrices(sobol_matrices(2, 3, 3), 2)
    assert small.matrices == direct.matrices


def test_truncate_rejects_overflow():
    g = sequence_net(1, 2, 3)  # 6 x 3
    with pytest.raises(ValueError):
        truncate(g, 4)


def test_t_reduced():
    assert t_reduced(10, 5, 1) == 2
    assert t_reduced(7, 3, 3) == 7
    assert t_reduced(0, 4, 2) == 0
    assert t_reduced(5, 3, 2) == 4  # ceil(10/3)
    with pytest.raises(ValueError):
        t_reduced(5, 3, 4)
    with pytest.raises(ValueError):
        t_reduced(5, 3, 0)


def test_construction_is_deterministic():
    a = sequence_net(2, 3, 4)
    b = sequence_net(2, 3, 4)
    assert a == b


def test_sequence_net_shapes():
    g1 = sequence_net(2, 1, 5)
    assert (g1.depth, g1.width, g1.s, g1.alpha) == (5, 5, 2, 1)
    g3 = sequence_net(2, 3, 4)
    assert (g3.depth, g3.width, g3.s, g3.alpha) == (12, 4, 2, 3)


def test_write_matrix_files(tmp_path):
    g = sequence_net(2, 2, 3)
    paths = write_matrix_files(g, str(tmp_path))
    assert len(paths) == 3  # two coordinates + sidecar
    text = (tmp_path / "matrix_1.txt").read_text()
    assert BitMatrix.from_text(text) == g.matrices[0]
    import json

    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta == {"s": 2, "alpha": 2, "t_bound": g.t_bound, "depth": 6, "width": 3}
