"""Big q-Bessel functions J_alpha(x, lambda; q^2) and their identities.

The function is represented through the spectral parameter z = lambda^2:
it is entire and even in lambda, so z is the natural variable (zero finding
becomes one-dimensional on z > 0, and the imaginary-lambda axis is plain
z < 0).  The series is

    J_alpha = sum_k (-1)^k q^(k(k-1) + 2k(alpha+1))
              / ((q^2; q^2)_k (q^(2alpha+2); q^2)_k) * P_k(x) * z^k,

with P_k(x) = prod_{j<k} (x^2 + q^(2j)), the stable rewriting of the
product form (-1/x^2; q^2)_k x^(2k) that is regular at x = 0 (there
P_k(0) = q^(k(k-1))).
"""

from __future__ import annotations

import math
from typing import Callable

import mpmath as mp

from .defaults import DEFAULT_TOL, TERMS_MAX
from .errors import InvalidOrder, ZeroSpectralParameter
from .qcalc import (
    QContext,
    SeriesValue,
    _mpf,
    _workdigits,
    fused_product_ratio,
    q_derivative,
    q_derivative_inv,
    sum_series,
)

__all__ = [
    "eval_J",
    "eval_dJ_dz",
    "eval_big_cos",
    "eval_big_sin",
    "classical_j",
    "recurrence_alpha_step",
    "recurrence_shifted",
    "apply_L",
    "identity_residual",
    "IDENTITY_KINDS",
]


def _series_value(alpha, x, z, q, tol, terms_max) -> SeriesValue:
    """Sum the J series with adaptive precision."""
    qf = float(q)
    xf = float(x)
    zf = float(z)
    af = float(alpha)

    def ratio_log(k: int) -> float:
        if zf == 0:
            return -1e9
        num = (
            2 * k * math.log10(qf)
            + 2 * (af + 1) * math.log10(qf)
            + math.log10(xf * xf + qf ** (2 * k))
            + math.log10(abs(zf))
        )
        den = math.log10(1 - qf ** (2 * k + 2)) + math.log10(
            1 - qf ** (2 * af + 2 + 2 * k)
        )
        return num - den

    qm = _mpf(q)
    xm = _mpf(x)
    zm = _mpf(z)
    am = _mpf(alpha)

    def ratio_m(k: int) -> mp.mpf:
        return (
            -(qm ** (2 * k))
            * qm ** (2 * (am + 1))
            * (xm * xm + qm ** (2 * k))
            * zm
            / ((1 - qm ** (2 * k + 2)) * (1 - qm ** (2 * am + 2 + 2 * k)))
        )

    return sum_series(0.0, ratio_log, lambda: mp.mpf(1), ratio_m, tol, terms_max)


def eval_J(
    ctx: QContext,
    alpha,
    x,
    z,
    tol: float = DEFAULT_TOL,
    terms_max: int = TERMS_MAX,
) -> SeriesValue:
    """Evaluate J_alpha(x, lambda; q^2) at z = lambda^2 (z may be negative,
    representing lambda on the imaginary axis)."""
    if alpha <= -1:
        raise InvalidOrder(f"alpha must exceed -1; got {alpha}")
    if z == 0:
        return SeriesValue(mp.mpf(1), mp.mpf(0), 1)
    return _series_value(alpha, x, z, ctx.q, tol, terms_max)


def eval_dJ_dz(
    ctx: QContext,
    alpha,
    x,
    z,
    tol: float = DEFAULT_TOL,
    terms_max: int = TERMS_MAX,
) -> SeriesValue:
    """Term-wise z-derivative of eval_J: sum_k k c_k(x) z^(k-1).

    The lambda-derivative used by the norm formula and the sampling kernel
    is 2*lambda*eval_dJ_dz.
    """
    if alpha <= -1:
        raise InvalidOrder(f"alpha must exceed -1; got {alpha}")
    qf = float(ctx.q)
    xf = float(x)
    zf = float(z)
    af = float(alpha)
    qm = _mpf(ctx.q)
    xm = _mpf(x)
    zm = _mpf(z)
    am = _mpf(alpha)

    # First derivative term (k = 1): c_1 = -q^(2(alpha+1)) P_1(x)
    # / ((1 - q^2)(1 - q^(2alpha+2))).
    def term0_m() -> mp.mpf:
        return (
            -(qm ** (2 * (am + 1)))
            * (xm * xm + 1)
            / ((1 - qm**2) * (1 - qm ** (2 * am + 2)))
        )

    log_t0 = (
        2 * (af + 1) * math.log10(qf)
        + math.log10(xf * xf + 1)
        - math.log10(1 - qf * qf)
        - math.log10(1 - qf ** (2 * af + 2))
    )

    # d_{k+1}/d_k for d_k = k c_k z^(k-1), with the loop index n starting
    # at 0 for the k=1 term: ratio(n) relates k = n+1 to k = n+2.
    def ratio_m(n: int) -> mp.mpf:
        k = n + 1
        return (
            mp.mpf(k + 1)
            / k
            * -(qm ** (2 * k))
            * qm ** (2 * (am + 1))
            * (xm * xm + qm ** (2 * k))
            * zm
            / ((1 - qm ** (2 * k + 2)) * (1 - qm ** (2 * am + 2 + 2 * k)))
        )

    def ratio_log(n: int) -> float:
        if zf == 0:
            return -1e9
        k = n + 1
        return (
            math.log10((k + 1) / k)
            + 2 * k * math.log10(qf)
            + 2 * (af + 1) * math.log10(qf)
            + math.log10(xf * xf + qf ** (2 * k))
            + math.log10(abs(zf))
            - math.log10(1 - qf ** (2 * k + 2))
            - math.log10(1 - qf ** (2 * af + 2 + 2 * k))
        )

    if z == 0:
        return SeriesValue(term0_m(), mp.mpf(0), 1)
    return sum_series(log_t0, ratio_log, term0_m, ratio_m, tol, terms_max)


def _trig_series(x, z, q, tol, terms_max, which: str) -> SeriesValue:
    """The two displayed trigonometric series over (q; q)_{2k} factorials,
    used as an independent evaluation path for the trig functions."""
    qf = float(q)
    xf = float(x)
    zf = float(z)
    qm = _mpf(q)
    xm = _mpf(x)
    zm = _mpf(z)
    # cos: terms (-1)^k q^(k(k-1)+k) P_k(x) z^k / (q; q)_{2k}
    # sin: terms (-1)^k q^(k(k-1)+3k) P_k(x) z^k / (q; q)_{2k+1}
    shift = 1 if which == "cos" else 3

    def ratio_m(k: int) -> mp.mpf:
        d1 = 1 - qm ** (2 * k + shift)  # (1-q^(2k+1)) cos / (1-q^(2k+3)) sin
        d2 = 1 - qm ** (2 * k + 2)
        return -(qm ** (2 * k + shift)) * (xm * xm + qm ** (2 * k)) * zm / (d1 * d2)

    def ratio_log(k: int) -> float:
        if zf == 0:
            return -1e9
        return (
            (2 * k + shift) * math.log10(qf)
            + math.log10(xf * xf + qf ** (2 * k))
            + math.log10(abs(zf))
            - math.log10(1 - qf ** (2 * k + shift))
            - math.log10(1 - qf ** (2 * k + 2))
        )

    def term0_m() -> mp.mpf:
        return mp.mpf(1) if which == "cos" else 1 / (1 - qm)

    if z == 0:
        return SeriesValue(term0_m(), mp.mpf(0), 1)
    lt0 = 0.0 if which == "cos" else -math.log10(1 - qf)
    return sum_series(lt0, ratio_log, term0_m, ratio_m, tol, terms_max)


def eval_big_cos(
    ctx: QContext,
    x,
    z,
    tol: float = DEFAULT_TOL,
    terms_max: int = TERMS_MAX,
    method: str = "order",
) -> SeriesValue:
    """Big q-cosine cos(x, lambda; q^2) = J_{-1/2}(x, lambda; q^2).

    method="order" evaluates via eval_J at alpha = -1/2; method="display"
    uses the displayed series over (q; q)_{2k} factorials.
    """
    if method == "display":
        return _trig_series(x, z, ctx.q, tol, terms_max, "cos")
    return eval_J(ctx, -0.5, x, z, tol, terms_max)


def eval_big_sin(
    ctx: QContext,
    x,
    z,
    tol: float = DEFAULT_TOL,
    terms_max: int = TERMS_MAX,
    method: str = "order",
) -> SeriesValue:
    """Big q-sine sin(x, lambda; q^2) = J_{1/2}(x, lambda; q^2) / (1 - q).

    The 1/(1-q) scaling is done at the working precision for tol, and
    abs_error includes its rounding.
    """
    if method == "display":
        return _trig_series(x, z, ctx.q, tol, terms_max, "sin")
    sv = eval_J(ctx, 0.5, x, z, tol, terms_max)
    with mp.workdps(_workdigits(tol)):
        pref = 1 / (1 - _mpf(ctx.q))
        value = sv.value * pref
        # 1 - q, the division and the product each round by at most
        # 2^-prec relative; 10^(1-dps) covers the three
        err = sv.abs_error * pref + abs(value) * mp.mpf(10) ** (1 - mp.mp.dps)
        return SeriesValue(+value, +err, sv.terms_used)


def classical_j(alpha, t):
    """Normalized classical Bessel function j_alpha(t) = 0F1(alpha+1; -t^2/4),
    the q -> 1 limit target of the rescaled big q-Bessel function."""
    if alpha <= -1:
        raise InvalidOrder(f"alpha must exceed -1; got {alpha}")
    t = _mpf(t)
    return mp.hyp0f1(_mpf(alpha) + 1, -t * t / 4)


def recurrence_alpha_step(ctx: QContext, alpha, x, z, J_prev, J_curr):
    """Order recurrence: J_{alpha+1}(x) from J_{alpha-1}(x), J_alpha(x):

        J_{alpha+1} = (1-q^(2a+2)) / (z q^(2a) (q^(2a+2) x^2 + 1))
                      * [(1 - q^(2a) - z q^(2a) x^2) J_alpha
                         - (1 - q^(2a)) J_{alpha-1}].

    All three orders must exceed -1, i.e. alpha > 0.
    """
    if alpha <= 0:
        raise InvalidOrder(
            f"alpha must exceed 0 so that alpha-1 > -1; got {alpha}"
        )
    if z == 0:
        raise ZeroSpectralParameter("recurrence undefined at z = 0")
    q = _mpf(ctx.q)
    a = _mpf(alpha)
    x = _mpf(x)
    z = _mpf(z)
    qa = q ** (2 * a)
    pref = (1 - q ** (2 * a + 2)) / (z * qa * (q ** (2 * a + 2) * x * x + 1))
    return pref * (
        (1 - qa - z * qa * x * x) * _mpf(J_curr) - (1 - qa) * _mpf(J_prev)
    )


def recurrence_shifted(ctx: QContext, alpha, x, z, J_prev, J_curr):
    """Shifted recurrence: J_{alpha+1}(x/q) from J_{alpha-1}(x), J_alpha(x):

        J_{alpha+1}(x/q) = (1-q^(2a+2))(1-q^(2a)) / (z q^(2a) (1 + x^2))
                           * [J_alpha(x) - J_{alpha-1}(x)].

    Derived by eliminating J_alpha(x/q) between the two one-step relations;
    the coefficient (1-q^(2a)) multiplies the whole bracket (the display
    that attaches it to J_alpha only does not match a direct evaluation).
    """
    if alpha <= 0:
        raise InvalidOrder(
            f"alpha must exceed 0 so that alpha-1 > -1; got {alpha}"
        )
    if z == 0:
        raise ZeroSpectralParameter("recurrence undefined at z = 0")
    q = _mpf(ctx.q)
    a = _mpf(alpha)
    x = _mpf(x)
    z = _mpf(z)
    pref = (
        (1 - q ** (2 * a + 2))
        * (1 - q ** (2 * a))
        / (z * q ** (2 * a) * (1 + x * x))
    )
    return pref * (_mpf(J_curr) - _mpf(J_prev))


def apply_L(ctx: QContext, alpha, f: Callable, x):
    """The second-order q-difference operator L:

        L f(x) = w_out(x)/x * D_{q^{-1}}[ y -> w_in(y)/y * (D_q f)(y) ](x)

    with w_in = (-y^2 q^2; q^2)_inf / (-y^2 q^(2alpha+4); q^2)_inf and
    w_out = (-x^2 q^(2alpha+2); q^2)_inf / (-x^2 q^2; q^2)_inf.
    J_alpha(., lambda; q^2) is an eigenfunction with eigenvalue
    -lambda^2 q^(2alpha+3) / (1-q)^2.
    """
    q = _mpf(ctx.q)
    a = _mpf(alpha)

    def inner(y):
        y = _mpf(y)
        return (
            fused_product_ratio(y * y, 2, 2 * a + 4, q)
            / y
            * q_derivative(f, y, q)
        )

    x = _mpf(x)
    return (
        fused_product_ratio(x * x, 2 * a + 2, 2, q)
        / x
        * q_derivative_inv(inner, x, q)
    )


# Descriptive identity ids (see identity_residual).
IDENTITY_KINDS = (
    "dq-order-raise",
    "dqinv-order-lower",
    "eigenfunction",
    "recurrence-order",
    "recurrence-shifted",
    "trig-dq",
    "trig-dqinv",
    "trig-dqinv-printed",
)


def identity_residual(
    ctx: QContext, kind: str, alpha, x, z, tol: float = DEFAULT_TOL
):
    """Relative residual |LHS - RHS| / max(1, |RHS|) of a difference/
    recurrence identity, with both sides evaluated independently.

    Kinds:
      dq-order-raise      D_q J_alpha = -z q^(2a+2) x /((1-q)(1-q^(2a+2)))
                          * J_{alpha+1}
      dqinv-order-lower   D_{q^{-1}}[w * J_{alpha+1}] = -x(1-q^(2a+2))
                          /(1-q^{-1}) * w' * J_alpha (w, w' weight ratios)
      eigenfunction       L J_alpha = -z q^(2a+3)/(1-q)^2 * J_alpha
      recurrence-order    recurrence_alpha_step vs direct series
      recurrence-shifted  recurrence_shifted vs direct series
      trig-dq             D_q cos = -z q x/(1-q) * sin
      trig-dqinv          D_{q^{-1}}[w(2,3) sin] = x q/(1-q) w(2,1) cos,
                          the specialization of dqinv-order-lower at
                          alpha = -1/2
      trig-dqinv-printed  same LHS against the displayed constant
                          -x q (1-q)^2; reported as-is, not corrected
    """
    q = _mpf(ctx.q)
    a = _mpf(alpha)
    xm = _mpf(x)
    zm = _mpf(z)
    with mp.workdps(_workdigits(tol)):
        if kind == "dq-order-raise":
            lhs = q_derivative(
                lambda t: eval_J(ctx, alpha, t, zm, tol).value, xm, q
            )
            rhs = (
                -zm
                * q ** (2 * a + 2)
                * xm
                / ((1 - q) * (1 - q ** (2 * a + 2)))
                * eval_J(ctx, a + 1, xm, zm, tol).value
            )
        elif kind == "dqinv-order-lower":
            def g(t):
                t = _mpf(t)
                return (
                    fused_product_ratio(t * t, 2, 2 * a + 4, q, tol)
                    * eval_J(ctx, a + 1, t, zm, tol).value
                )

            lhs = q_derivative_inv(g, xm, q)
            rhs = (
                -xm
                * (1 - q ** (2 * a + 2))
                / (1 - 1 / q)
                * fused_product_ratio(xm * xm, 2, 2 * a + 2, q, tol)
                * eval_J(ctx, a, xm, zm, tol).value
            )
        elif kind == "eigenfunction":
            lhs = apply_L(
                ctx, a, lambda t: eval_J(ctx, alpha, t, zm, tol).value, xm
            )
            rhs = (
                -zm
                * q ** (2 * a + 3)
                / (1 - q) ** 2
                * eval_J(ctx, a, xm, zm, tol).value
            )
        elif kind == "recurrence-order":
            jm1 = eval_J(ctx, a - 1, xm, zm, tol).value
            j0 = eval_J(ctx, a, xm, zm, tol).value
            lhs = recurrence_alpha_step(ctx, a, xm, zm, jm1, j0)
            rhs = eval_J(ctx, a + 1, xm, zm, tol).value
        elif kind == "recurrence-shifted":
            jm1 = eval_J(ctx, a - 1, xm, zm, tol).value
            j0 = eval_J(ctx, a, xm, zm, tol).value
            lhs = recurrence_shifted(ctx, a, xm, zm, jm1, j0)
            rhs = eval_J(ctx, a + 1, xm / q, zm, tol).value
        elif kind == "trig-dq":
            lhs = q_derivative(
                lambda t: eval_big_cos(ctx, t, zm, tol).value, xm, q
            )
            rhs = (
                -zm * q * xm / (1 - q) * eval_big_sin(ctx, xm, zm, tol).value
            )
        elif kind in ("trig-dqinv", "trig-dqinv-printed"):
            def g(t):
                t = _mpf(t)
                return (
                    fused_product_ratio(t * t, 2, 3, q, tol)
                    * eval_big_sin(ctx, t, zm, tol).value
                )

            lhs = q_derivative_inv(g, xm, q)
            w = fused_product_ratio(xm * xm, 2, 1, q, tol)
            cosv = eval_big_cos(ctx, xm, zm, tol).value
            if kind == "trig-dqinv":
                rhs = xm * q / (1 - q) * w * cosv
            else:
                rhs = -xm * q * (1 - q) ** 2 * w * cosv
        else:
            raise ValueError(
                f"unknown identity kind {kind!r}; expected one of "
                f"{IDENTITY_KINDS}"
            )
        return abs(lhs - rhs) / max(1, abs(rhs))
