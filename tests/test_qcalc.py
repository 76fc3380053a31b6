"""q-calculus primitives: Pochhammer symbols, q-derivatives, the Jackson
q-integral, and the generic basic hypergeometric evaluator, checked
against hand values, mpmath's q-Pochhammer, and classical closed forms.
"""

import math

import mpmath as mp
import pytest

from bigqbessel import (
    QContext,
    QLatticeSignal,
    SeriesValue,
    ZeroTable,
    basic_hypergeometric,
    fourier_coefficients,
    fused_product_ratio,
    q_derivative,
    q_derivative_inv,
    q_integral,
    qpoch,
    qpoch_inf,
    reconstruct,
    weight,
)
from bigqbessel.errors import (
    DivergentSeries,
    InvalidArgument,
    NonPositiveUpperLimit,
    PoleInDenominator,
    ZeroArgument,
)

import oracles


def test_qcontext_validates_q():
    with pytest.raises(ValueError):
        QContext(1.0)
    with pytest.raises(ValueError):
        QContext(0.0)


def test_qpoch_hand_value():
    # (0.5; 0.5)_3 = (1 - 0.5)(1 - 0.25)(1 - 0.125)
    got = qpoch(0.5, 0.5, 3)
    assert abs(got - mp.mpf("0.328125")) < 1e-15


def test_qpoch_against_mpmath():
    for a in (-1.5, -0.3, 0.2, 0.9):
        for n in (0, 1, 4, 9):
            got = qpoch(a, 0.6, n)
            want = mp.qp(mp.mpf(a), mp.mpf("0.6"), n)
            assert abs(got - want) <= 1e-14 * max(1, abs(want))


def test_qpoch_inf_frozen_value():
    sv = qpoch_inf(0.5, 0.5, tol=1e-14)
    assert isinstance(sv, SeriesValue)
    assert abs(sv.value - oracles.QPOCH_INF_HALF) <= 1e-14
    # reported error bound is honest (reference at 40 digits; the frozen
    # constant above is parsed at ambient precision and is too coarse
    # for this sub-ulp comparison)
    with mp.workdps(40):
        true = mp.qp(mp.mpf("0.5"), mp.mpf("0.5"))
        assert abs(sv.value - true) <= sv.abs_error * (1 + mp.mpf("1e-6"))


def test_qpoch_inf_against_mpmath():
    for a in (-2.0, -0.7, 0.1, 0.95):
        got = qpoch_inf(a, 0.8, tol=1e-13).value
        want = mp.qp(mp.mpf(a), mp.mpf("0.8"))
        assert abs(got - want) <= 1e-12 * max(1, abs(want))


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


def test_basic_hypergeometric_q_binomial_theorem():
    # 1phi0(a; -; q, z) = (a z; q)_inf / (z; q)_inf for |z| < 1
    q = mp.mpf("0.5")
    a = mp.mpf("0.3")
    z = mp.mpf("0.4")
    got = basic_hypergeometric([a], [], q, z, tol=1e-14).value
    want = mp.qp(a * z, q) / mp.qp(z, q)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_basic_hypergeometric_0phi1_decays():
    sv = basic_hypergeometric([], [0.25], 0.25, 0.1, tol=1e-14)
    assert sv.terms_used < 60
    assert sv.abs_error < 1e-12


def test_basic_hypergeometric_pole():
    # denominator parameter q^{-2} makes (b; q)_k vanish at k = 3
    with pytest.raises(PoleInDenominator):
        basic_hypergeometric([0.5], [0.5 ** -2], 0.5, 0.1)


def test_basic_hypergeometric_divergent():
    # r > s + 1 gives a growing q^(-C(k,2)) factor
    with pytest.raises(DivergentSeries):
        basic_hypergeometric([0.5, 0.3], [], 0.5, 0.2)


def test_series_value_float_conversion():
    sv = q_integral(lambda x: x, 1, 0.5, tol=1e-14)
    assert math.isclose(float(sv), 2.0 / 3.0, rel_tol=1e-12)


NAN = math.nan
NO_ZEROS = ZeroTable(0.5, 0.0)
SIGNAL = QLatticeSignal([1.0, 0.5])

INVALID_AT_THE_EDGE = {
    "qpoch_inf(nan, q)": lambda: qpoch_inf(NAN, 0.5),
    "qpoch_inf(q=1.5)": lambda: qpoch_inf(0.5, 1.5),
    "qpoch_inf(tol=nan)": lambda: qpoch_inf(0.5, 0.5, tol=NAN),
    "fused_product_ratio(nan)": lambda: fused_product_ratio(NAN, 2, 4, 0.5),
    "fused_product_ratio(tol=nan)": (
        lambda: fused_product_ratio(2.0, 2, 4, 0.5, tol=NAN)
    ),
    "weight(x=nan)": lambda: weight(QContext(0.5), 0.0, NAN),
    "weight(x=-1)": lambda: weight(QContext(0.5), 0.0, -1.0),
    "q_integral(tol=nan)": lambda: q_integral(lambda x: x, 1, 0.5, tol=NAN),
    "q_integral(tol=0)": lambda: q_integral(lambda x: x, 1, 0.5, tol=0.0),
    "basic_hypergeometric(q=2)": (
        lambda: basic_hypergeometric([0.5], [0.25], 2.0, 0.1)
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
