"""Results are functions of their arguments: every public computation
gives the same bits at mpmath's default precision and inside a caller's
higher working precision.
"""

from contextlib import nullcontext

import mpmath as mp
import pytest

from bigqbessel import (
    QContext,
    QLatticeSignal,
    closed_sum_check,
    eval_big_cos,
    eval_big_sin,
    eval_dJ_dz,
    eval_J,
    find_zeros,
    fourier_coefficients,
    gram_matrix,
    identity_residual,
    inner_product,
    orthogonality,
    lommel_integral_direct,
    lommel_rhs_closed,
    norm_sq_closed,
    q_hankel_transform,
    reconstruct,
    refine_zero,
    sampling_kernel,
)

import oracles

CTX = QContext(0.5)
F = QLatticeSignal(values=[1.0, -0.5, 0.25])
G = QLatticeSignal(values=[0.5, 2.0])
Z1 = float(oracles.ZEROS_Q05_A0[0]) ** 2

# name -> f(table), table a 3-zero table of (0.5, 0) built at the default
# precision; tol 1e-20 keeps every working precision above 53 bits
CALLS = {
    "eval_J": lambda t: eval_J(CTX, 0.5, 0.7, 3.3, 1e-20),
    "eval_dJ_dz": lambda t: eval_dJ_dz(CTX, 0.5, 0.7, 3.3, 1e-20),
    "eval_dJ_dz at z = 0": lambda t: eval_dJ_dz(CTX, 0.5, 0.7, 0, 1e-20),
    "eval_big_cos": lambda t: eval_big_cos(CTX, 0.7, 3.3, 1e-20),
    "eval_big_sin": lambda t: eval_big_sin(CTX, 0.7, 3.3, 1e-20),
    "identity_residual": lambda t: identity_residual(
        CTX, "dq-order-raise", 0.5, 0.7, 3.3, 1e-20
    ),
    "find_zeros": lambda t: find_zeros(CTX, 0.0, 3, tol=1e-12),
    "refine_zero": lambda t: refine_zero(CTX, 0.0, 0.9 * Z1, 1.1 * Z1, 1e-12),
    "refine_zero at tol 1e-9": lambda t: refine_zero(
        CTX, 0.0, 0.9 * Z1, 1.1 * Z1, 1e-9
    ),
    "refine_zero at tol 1e-30": lambda t: refine_zero(
        CTX, 0.0, 0.9 * Z1, 1.1 * Z1, 1e-30
    ),
    "q_hankel_transform": lambda t: q_hankel_transform(CTX, 0.0, F, 0.7, 1e-20),
    "reconstruct": lambda t: reconstruct(CTX, 0.0, F, t, [0.7, 3.3], 1e-20),
    "fourier_coefficients": lambda t: fourier_coefficients(
        CTX, 0.0, F, t, 1e-20
    ),
    "gram_matrix": lambda t: gram_matrix(CTX, 0.0, t, 1e-20),
    "sampling_kernel": lambda t: sampling_kernel(CTX, 0.0, t, 1, 0.7, 1e-20),
    "closed_sum_check": lambda t: closed_sum_check(CTX, 0.0, t, 0.7, 1e-20),
    "lommel_integral_direct": lambda t: lommel_integral_direct(
        CTX, 0.0, 0.7, 3.3, 1e-20
    ),
    "lommel_rhs_closed": lambda t: lommel_rhs_closed(
        CTX, 0.0, 0.7, 3.3, 1e-20
    ),
    "inner_product": lambda t: inner_product(CTX, 0.0, F, G, 1e-20),
    "norm_sq_closed": lambda t: norm_sq_closed(
        CTX, 0.0, t.zeros[0], t.derivs[0], 1e-20
    ),
}


def _bits(v):
    """v with every mpf replaced by its _mpf_ tuple."""
    if isinstance(v, mp.mpf):
        return v._mpf_
    if isinstance(v, (list, tuple)):
        return [_bits(e) for e in v]
    if hasattr(v, "__dataclass_fields__"):
        return {k: _bits(getattr(v, k)) for k in v.__dataclass_fields__}
    return v


@pytest.fixture(scope="module")
def table():
    return find_zeros(CTX, 0.0, 3, tol=1e-12)


def _bits_at(precision, call, table):
    """The call's bits inside the context `precision`, on a cold L3 memo
    so that every run computes every value."""
    orthogonality._memo.cache_clear()
    with precision:
        return _bits(call(table))


@pytest.mark.parametrize("name", list(CALLS))
def test_result_ignores_the_callers_precision(table, name):
    call = CALLS[name]
    default = _bits_at(nullcontext(), call, table)
    assert _bits_at(mp.workdps(60), call, table) == default


@pytest.mark.parametrize("name", list(CALLS))
def test_l1_ignores_a_lower_callers_precision(table, name):
    # every argument of every layer, not only L1's, enters exactly, so
    # below 53 bits a caller's precision does not round a float argument
    call = CALLS[name]
    default = _bits_at(nullcontext(), call, table)
    assert _bits_at(mp.workprec(30), call, table) == default
