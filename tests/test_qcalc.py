"""q-calculus primitives: the fused q-product ratio, q-derivatives and
the Jackson q-integral, checked against hand values, mpmath's
q-Pochhammer and classical closed forms; and the typed errors of bad
arguments across the library.
"""

import math

import mpmath as mp
import pytest

from bigqbessel import (
    QContext,
    QLatticeSignal,
    ReconstructionReport,
    SeriesValue,
    ZeroTable,
    eval_J,
    fourier_coefficients,
    fused_product_ratio,
    identity_residual,
    q_derivative,
    q_derivative_inv,
    q_integral,
    reconstruct,
    weight,
)
from bigqbessel.errors import (
    InvalidArgument,
    NonPositiveUpperLimit,
    ZeroArgument,
)


def test_qcontext_validates_q():
    with pytest.raises(ValueError):
        QContext(1.0)
    with pytest.raises(ValueError):
        QContext(0.0)


def test_fused_product_ratio_matches_quotient():
    # ratio (-x^2 q^2; q^2)_inf / (-x^2 q^(2a+4); q^2)_inf at x=1, a=0
    q = mp.mpf("0.5")
    got = fused_product_ratio(1, 2, 4, q, 1e-14)
    q2 = q * q
    want = mp.qp(-q2, q2) / mp.qp(-q2 ** 2, q2)
    assert abs(got - want) <= 1e-13 * abs(want)
    # telescoping: only the e_num <= e < e_den factors survive; with
    # e_num=2, e_den=4, q^2-steps leave the single factor (1 + x^2 q^2)
    assert abs(got - (1 + q2)) <= 1e-13


def test_q_derivative_polynomial_exact():
    # D_q x^3 = (1 + q + q^2) x^2 exactly
    q = mp.mpf("0.3")
    x = mp.mpf("0.7")
    got = q_derivative(lambda t: t ** 3, x, q)
    want = (1 + q + q * q) * x * x
    assert abs(got - want) <= 1e-15 * abs(want)


def test_q_derivative_inv_polynomial_exact():
    # D_{q^{-1}} x^2 = (1 + q^{-1}) x
    q = mp.mpf("0.4")
    x = mp.mpf("0.9")
    got = q_derivative_inv(lambda t: t * t, x, q)
    want = (1 + 1 / q) * x
    assert abs(got - want) <= 1e-15 * abs(want)


def test_q_derivative_zero_argument():
    with pytest.raises(ZeroArgument):
        q_derivative(lambda t: t, 0.0, 0.5)
    with pytest.raises(ZeroArgument):
        q_derivative_inv(lambda t: t, 0.0, 0.5)


def test_q_integral_monomial_closed_form():
    # int_0^1 x^2 d_q x = (1-q) sum q^(3n) = 1 / (1 + q + q^2)
    for qv in ("0.3", "0.5", "0.9"):
        q = mp.mpf(qv)
        sv = q_integral(lambda x: x * x, 1, q, tol=1e-14)
        want = 1 / (1 + q + q * q)
        assert abs(sv.value - want) <= 1e-13 * abs(want)


def test_q_integral_scales_with_upper_limit():
    # int_0^a x d_q x = a^2 / (1 + q)
    q = mp.mpf("0.6")
    a = mp.mpf("0.5")
    sv = q_integral(lambda x: x, a, q, tol=1e-14)
    assert abs(sv.value - a * a / (1 + q)) <= 1e-13


def test_q_integral_rejects_bad_limit():
    with pytest.raises(NonPositiveUpperLimit):
        q_integral(lambda x: x, 0, 0.5)
    with pytest.raises(NonPositiveUpperLimit):
        q_integral(lambda x: x, -1, 0.5)


def test_series_value_float_conversion():
    sv = q_integral(lambda x: x, 1, 0.5, tol=1e-14)
    assert math.isclose(float(sv), 2.0 / 3.0, rel_tol=1e-12)


NAN = math.nan
NO_ZEROS = ZeroTable(0.5, 0.0)
SIGNAL = QLatticeSignal([1.0, 0.5])

INVALID_AT_THE_EDGE = {
    "fused_product_ratio(nan)": lambda: fused_product_ratio(NAN, 2, 4, 0.5),
    "fused_product_ratio(tol=nan)": (
        lambda: fused_product_ratio(2.0, 2, 4, 0.5, tol=NAN)
    ),
    "weight(x=nan)": lambda: weight(QContext(0.5), 0.0, NAN),
    "weight(x=-1)": lambda: weight(QContext(0.5), 0.0, -1.0),
    "q_integral(tol=nan)": lambda: q_integral(lambda x: x, 1, 0.5, tol=NAN),
    "q_integral(tol=0)": lambda: q_integral(lambda x: x, 1, 0.5, tol=0.0),
    "eval_J(terms_max=0)": (
        lambda: eval_J(QContext(0.5), 0.0, 1.0, 0.5, terms_max=0)
    ),
    "fourier_coefficients(no zeros)": (
        lambda: fourier_coefficients(QContext(0.5), 0.0, SIGNAL, NO_ZEROS)
    ),
    "reconstruct(no zeros)": (
        lambda: reconstruct(QContext(0.5), 0.0, SIGNAL, NO_ZEROS, [1.0])
    ),
}


@pytest.mark.parametrize("call", INVALID_AT_THE_EDGE.values(),
                         ids=INVALID_AT_THE_EDGE.keys())
def test_invalid_argument_is_typed_and_immediate(call):
    # a NaN or out-of-range argument is reported as such at once, not as
    # a product or sum that ran out of terms, nor as a bare ValueError
    with pytest.raises(InvalidArgument):
        call()


INVALID_AT_CONSTRUCTION = {
    "QContext(q=1.5)": lambda: QContext(1.5),
    "QContext(q=0)": lambda: QContext(0.0),
    "SeriesValue(abs_error<0)": lambda: SeriesValue(mp.mpf(1), mp.mpf(-1), 1),
    "SeriesValue(terms_used=0)": lambda: SeriesValue(mp.mpf(1), mp.mpf(0), 0),
    "QLatticeSignal(empty)": lambda: QLatticeSignal([]),
    "QLatticeSignal(a=0)": lambda: QLatticeSignal([1.0], a=0.0),
    "QLatticeSignal(a=nan)": lambda: QLatticeSignal([1.0], a=NAN),
    "QLatticeSignal(value=nan)": lambda: QLatticeSignal([1.0, NAN]),
    "QLatticeSignal(value=-inf)": (
        lambda: QLatticeSignal([mp.mpf("-inf")])
    ),
    "ZeroTable(lengths)": lambda: ZeroTable(0.5, 0.0, [1.0], [], []),
    "ZeroTable(order)": (
        lambda: ZeroTable(0.5, 0.0, [2.0, 1.0], [1, 1], [0, 0])
    ),
    "ZeroTable(sign)": lambda: ZeroTable(0.5, 0.0, [-1.0], [1.0], [0.0]),
    "ZeroTable(zero=inf)": (
        lambda: ZeroTable(0.5, 0.0, [1.0, math.inf], [1, 1], [0, 0])
    ),
    "ZeroTable(deriv=nan)": lambda: ZeroTable(0.5, 0.0, [1.0], [NAN], [0.0]),
    "ZeroTable(residual=nan)": (
        lambda: ZeroTable(0.5, 0.0, [1.0], [1.0], [mp.mpf("nan")])
    ),
    "ReconstructionReport(lengths)": (
        lambda: ReconstructionReport([1.0], [], [], mp.mpf(0), 1)
    ),
    "identity_residual(kind)": (
        lambda: identity_residual(QContext(0.5), "no-such-kind", 0, 1, 1)
    ),
}


@pytest.mark.parametrize("call", INVALID_AT_CONSTRUCTION.values(),
                         ids=INVALID_AT_CONSTRUCTION.keys())
def test_invalid_value_is_typed_at_construction(call):
    # the dataclass checks and the kind check raise the library's own
    # error, which is still a ValueError
    with pytest.raises(InvalidArgument):
        call()
