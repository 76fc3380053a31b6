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
from .errors import InvalidArgument, InvalidOrder, ZeroSpectralParameter
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


def _log10_abs(v) -> float:
    """log10|v| as a float, also for an mpf beyond the double range;
    -inf at v = 0."""
    f = abs(float(v))
    if 0 < f < math.inf:
        return math.log10(f)
    return float(mp.log10(abs(_mpf(v)))) if v else -math.inf


def _j_ratio(alpha, x, z, q):
    """The term ratio r(k) = t_{k+1}/t_k of the J series,

        r(k) = -q^(2k) q^(2alpha+2) (x^2 + q^(2k)) z
               / ((1 - q^(2k+2)) (1 - q^(2alpha+2+2k))),

    as the pair of callables sum_series takes, each of (k, lead):
    log10|lead r(k)| in floats for the precision pass, and lead r(k) in
    mpf for the exact pass.  The mpf product takes lead in its first
    multiplication, and skips it when no lead is given.
    log10(x^2 + q^(2k)) is a log-sum of 2 log10|x| and 2k log10 q, so the
    float pass does not overflow for large |x|.  A non-finite alpha, x or
    z raises InvalidArgument.
    """
    for name, v in (("alpha", alpha), ("x", x), ("z", z)):
        # math.isfinite is the fast path for the common float argument
        if not (math.isfinite(v) if isinstance(v, float) else mp.isfinite(v)):
            raise InvalidArgument(f"{name} must be finite; got {v}")
    qf = float(q)
    af = float(alpha)
    lq = math.log10(qf)
    lx2 = 2 * _log10_abs(x)
    lz = _log10_abs(z)

    def log_ratio(k: int, lead: float = 1.0) -> float:
        lp = 2 * k * lq
        hi, lo = max(lx2, lp), min(lx2, lp)
        return (
            math.log10(lead)
            + lp
            + 2 * (af + 1) * lq
            + hi
            + math.log10(1 + 10 ** (lo - hi))
            + lz
            - math.log10(1 - qf ** (2 * k + 2))
            - math.log10(1 - qf ** (2 * af + 2 + 2 * k))
        )

    qm = _mpf(q)
    xm = _mpf(x)
    zm = _mpf(z)
    am = _mpf(alpha)

    def ratio(k: int, lead=None) -> mp.mpf:
        t = -(qm ** (2 * k))
        if lead is not None:
            t *= lead
        return (
            t
            * qm ** (2 * (am + 1))
            * (xm * xm + qm ** (2 * k))
            * zm
            / ((1 - qm ** (2 * k + 2)) * (1 - qm ** (2 * am + 2 + 2 * k)))
        )

    return log_ratio, ratio


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
    log_ratio, ratio = _j_ratio(alpha, x, z, ctx.q)
    return sum_series(0.0, log_ratio, lambda: mp.mpf(1), ratio, tol, terms_max)


def eval_dJ_dz(
    ctx: QContext, alpha, x, z, tol: float = DEFAULT_TOL
) -> SeriesValue:
    """Term-wise z-derivative of eval_J: sum_k k c_k(x) z^(k-1).

    The lambda-derivative used by the norm formula and the sampling kernel
    is 2*lambda*eval_dJ_dz.
    """
    if alpha <= -1:
        raise InvalidOrder(f"alpha must exceed -1; got {alpha}")
    # d_k = k c_k z^(k-1), with the loop index n = k - 1: the first term
    # is c_1, i.e. r(0) at z = 1, and d_{k+1}/d_k = (k+1)/k r(k).  The
    # inputs are converted to mpf once for both ratios.
    am, xm, qm = _mpf(alpha), _mpf(x), _mpf(ctx.q)
    log_c1, c1 = _j_ratio(am, xm, 1, qm)
    if z == 0:
        return SeriesValue(c1(0), mp.mpf(0), 1)
    log_ratio, ratio = _j_ratio(am, xm, z, qm)
    return sum_series(
        log_c1(0),
        lambda n: log_ratio(n + 1, (n + 2) / (n + 1)),
        lambda: c1(0),
        lambda n: ratio(n + 1, mp.mpf(n + 2) / (n + 1)),
        tol,
    )


def eval_big_cos(ctx: QContext, x, z, tol: float = DEFAULT_TOL) -> SeriesValue:
    """Big q-cosine cos(x, lambda; q^2) = J_{-1/2}(x, lambda; q^2)."""
    return eval_J(ctx, -0.5, x, z, tol)


def eval_big_sin(ctx: QContext, x, z, tol: float = DEFAULT_TOL) -> SeriesValue:
    """Big q-sine sin(x, lambda; q^2) = J_{1/2}(x, lambda; q^2) / (1 - q).

    The 1/(1-q) scaling is done at the working precision for tol, and
    abs_error includes its rounding.
    """
    sv = eval_J(ctx, 0.5, x, z, tol)
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
                          alpha = -1/2 (the constant -x q (1-q)^2 of
                          the paper's display is restated in the
                          test oracles)
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
        elif kind == "trig-dqinv":
            def g(t):
                t = _mpf(t)
                return (
                    fused_product_ratio(t * t, 2, 3, q, tol)
                    * eval_big_sin(ctx, t, zm, tol).value
                )

            lhs = q_derivative_inv(g, xm, q)
            w = fused_product_ratio(xm * xm, 2, 1, q, tol)
            rhs = xm * q / (1 - q) * w * eval_big_cos(ctx, xm, zm, tol).value
        else:
            raise ValueError(
                f"unknown identity kind {kind!r}; expected one of "
                f"{IDENTITY_KINDS}"
            )
        return abs(lhs - rhs) / max(1, abs(rhs))
