"""Higher-order digital nets over GF(2) and their exact L2 discrepancy.

Construction (generating matrices, digit interlacing, the finite-N
propagation-rule point set), measurement (Warnock closed form, prefix
scans, Walsh-series checks), and certification (order-alpha independence,
box and interval-union equidistribution, dual nets, character sums).
"""

from .discrepancy import (
    DiscrepancyReport,
    ScanRow,
    quadrature_oracle_l2,
    sum_of_digits,
    walsh_series_l2,
    warnock_l2,
    warnock_l2_sq,
    warnock_scan,
)
from .genmat import (
    GeneratingMatrixSet,
    interlace_matrices,
    sequence_net,
    sobol_matrices,
    t_reduced,
    truncate,
)
from .gf2 import BitMatrix, kernel_basis, matvec, rank, stack_transposed
from .gf2poly import Gf2Poly, is_primitive, laurent_expand, poly_mul, primitive_polys
from .netverify import (
    DualNetBasis,
    JAlphaBox,
    VerificationBudgetError,
    box_counts,
    character_sum,
    dual_enumerate,
    dual_min_weight,
    find_dependency,
    j_alpha_count,
    smallest_certified_t,
    verify_order_alpha,
)
from .points import (
    DyadicPoint,
    corollary_exact_coords,
    corollary_pointset,
    digital_shift,
    interlace_point,
    net_points,
    nth_point,
)
from .walsh import WalshIndex, mu, mu_alpha, mu_vec, r_coeff, r_coeff_oracle, wal_vec

__all__ = [
    "BitMatrix",
    "DiscrepancyReport",
    "DualNetBasis",
    "DyadicPoint",
    "GeneratingMatrixSet",
    "Gf2Poly",
    "JAlphaBox",
    "ScanRow",
    "VerificationBudgetError",
    "WalshIndex",
    "box_counts",
    "character_sum",
    "corollary_exact_coords",
    "corollary_pointset",
    "digital_shift",
    "dual_enumerate",
    "dual_min_weight",
    "find_dependency",
    "interlace_matrices",
    "interlace_point",
    "is_primitive",
    "j_alpha_count",
    "kernel_basis",
    "laurent_expand",
    "matvec",
    "mu",
    "mu_alpha",
    "mu_vec",
    "net_points",
    "nth_point",
    "poly_mul",
    "primitive_polys",
    "quadrature_oracle_l2",
    "r_coeff",
    "r_coeff_oracle",
    "rank",
    "sequence_net",
    "smallest_certified_t",
    "sobol_matrices",
    "stack_transposed",
    "sum_of_digits",
    "t_reduced",
    "truncate",
    "verify_order_alpha",
    "wal_vec",
    "walsh_series_l2",
    "warnock_l2",
    "warnock_l2_sq",
    "warnock_scan",
]

__version__ = "0.1.0"
