"""Big q-Bessel functions: evaluation, zeros, orthogonality analysis, and
Kramer-type sampling reconstruction on the geometric lattice."""

from .qcalc import (
    QContext,
    SeriesValue,
    fused_product_ratio,
    q_derivative,
    q_derivative_inv,
    q_integral,
)
from .bqbessel import (
    IDENTITY_KINDS,
    apply_L,
    eval_J,
    eval_big_cos,
    eval_big_sin,
    eval_dJ_dz,
    identity_residual,
    recurrence_alpha_step,
    recurrence_shifted,
)
from .zerofinder import ZeroTable, find_zeros, refine_zero
from .orthogonality import (
    GramReport,
    QLatticeSignal,
    fourier_coefficients,
    fourier_partial_sum,
    gram_matrix,
    inner_product,
    lommel_integral_direct,
    lommel_rhs_closed,
    norm_sq_closed,
    weight,
)
from .sampling import (
    ClosedSumResult,
    ReconstructionReport,
    closed_sum_check,
    q_hankel_transform,
    reconstruct,
    sampling_kernel,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "QContext",
    "SeriesValue",
    "q_derivative",
    "q_derivative_inv",
    "q_integral",
    "fused_product_ratio",
    "eval_J",
    "eval_dJ_dz",
    "eval_big_cos",
    "eval_big_sin",
    "recurrence_alpha_step",
    "recurrence_shifted",
    "apply_L",
    "identity_residual",
    "IDENTITY_KINDS",
    "ZeroTable",
    "find_zeros",
    "refine_zero",
    "QLatticeSignal",
    "GramReport",
    "weight",
    "inner_product",
    "lommel_integral_direct",
    "lommel_rhs_closed",
    "norm_sq_closed",
    "gram_matrix",
    "fourier_coefficients",
    "fourier_partial_sum",
    "ReconstructionReport",
    "ClosedSumResult",
    "q_hankel_transform",
    "sampling_kernel",
    "reconstruct",
    "closed_sum_check",
    "errors",
]
