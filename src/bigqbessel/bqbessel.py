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

eval_J and eval_dJ_dz sum the series through one term ratio (_j_ratio).
Its factors that depend on neither x nor z, q^(2alpha+2) and per term
-q^(2k) q^(2alpha+2), q^(2k) and (1 - q^(2k+2)) (1 - q^(2alpha+2+2k)),
are shared by every call at the same q, alpha and working precision: they
live in a memo keyed by (q, alpha, mpmath's precision and rounding), with
q and alpha compared by value, that holds the _FACTOR_SLOTS keys used
last (an LRU cache).  Each factor is the same mpmath operation on the
same operands at the same precision as in the ratio written as one
expression, so every value is bit-identical to that expression's.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable

import mpmath as mp

from .defaults import DEFAULT_TOL, TERMS_MAX
from .errors import InvalidArgument, InvalidOrder, ZeroSpectralParameter
from .qcalc import (
    QContext,
    SeriesValue,
    _mpf,
    _require_finite,
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


# The memo of _Factors (_factors) holds the _FACTOR_SLOTS keys used last.
# Factor rows built per round of the benchmark's workloads, by memo size
# (without the memo every term builds one; zero_tables: 1 round, seed 1,
# 31 467 terms summed; lattice: 2 rounds, seed 1, 37 932 terms):
#
#     size   zero_tables   lattice
#        1        21 646     8 636
#        2         3 385     8 370
#        4         3 355     7 841
#        8         3 355     6 869
#
# The zero finder needs 2: its refine alternates eval_J and eval_dJ_dz,
# which sum at different working precisions.  4 also serves the lattice,
# whose columns sum at several precisions; 8 saves it little more.  In the
# pointwise workload no key repeats, and every size builds one row per term.
_FACTOR_SLOTS = 4


class _Factors:
    """The factors of r(k) that depend only on (q, alpha) and the working
    precision: A = q^(2alpha+2) and, per row k, T_k = (-q^(2k)) A,
    p_k = q^(2k) and D_k = (1 - q^(2k+2)) (1 - q^(2alpha+2+2k)).  Rows are
    built in order, on demand, at the precision of the entry's key."""

    __slots__ = ("qm", "am", "A", "T", "p", "D")

    def __init__(self, q, alpha):
        self.qm = _mpf(q)
        self.am = _mpf(alpha)
        self.A = self.qm ** (2 * (self.am + 1))
        self.T, self.D = [], []
        self.p = [self.qm ** 0]

    def _row(self) -> None:
        """Append row k = len(D); q^(2k+2) is kept as p_(k+1)."""
        k = len(self.D)
        qm, p = self.qm, self.p
        p.append(qm ** (2 * k + 2))
        self.T.append(-p[k] * self.A)
        self.D.append((1 - p[k + 1]) * (1 - qm ** (2 * self.am + 2 + 2 * k)))


@functools.lru_cache(maxsize=_FACTOR_SLOTS)
def _factors(q, alpha, prec: int, rounding: str) -> _Factors:
    """The memo entry of (q, alpha) at mpmath's precision and rounding
    (the working ones of the caller); q and alpha are keys by value, so
    0.5 and mpf(0.5) share one."""
    return _Factors(q, alpha)


def _j_ratio(alpha, x, z, q):
    """The term ratio r(k) = t_{k+1}/t_k of the J series,

        r(k) = -q^(2k) q^(2alpha+2) (x^2 + q^(2k)) z
               / ((1 - q^(2k+2)) (1 - q^(2alpha+2+2k))),

    as the pair of callables sum_series takes, each of (k, lead):
    log10|lead r(k)| in floats for the precision pass, and lead r(k) in
    mpf for the exact pass.
    log10(x^2 + q^(2k)) is a log-sum of 2 log10|x| and 2k log10 q, so the
    float pass does not overflow for large |x|.  A non-finite alpha, x or
    z raises InvalidArgument.

    The mpf pass reads A, T_k = (-p_k) A, p_k = q^(2k) and
    D_k = (1 - q^(2k+2)) (1 - q^(2alpha+2+2k)), which depend on neither x
    nor z, from the memo entry of (q, alpha) at the current precision and
    rounding (_factors; at most _FACTOR_SLOTS entries), and takes x^2 once
    per precision.  It returns ((T_k (x^2 + p_k)) z) / D_k, or with a lead
    ((((-p_k) lead) A) (x^2 + p_k)) z / D_k: the operations, operands,
    order and precision of the one expression t A (x^2 + p_k) z / (D1 D2),
    t = -p_k (times lead), so every value is bit-identical to that
    expression's (tests/oracles.py keeps it as the reference).
    """
    _require_finite(alpha=alpha, x=x, z=z)
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

    xm = _mpf(x)
    zm = _mpf(z)
    # the precision and rounding, the memo entry and x^2 of the last call
    prec_rounding, f, x2 = None, None, None

    def ratio(k: int, lead=None) -> mp.mpf:
        nonlocal prec_rounding, f, x2
        if prec_rounding != mp.mp._prec_rounding:
            # a list that mpmath changes in place: keep a copy
            prec_rounding = list(mp.mp._prec_rounding)
            f = _factors(q, alpha, *prec_rounding)
            x2 = xm * xm
        while len(f.D) <= k:
            f._row()
        p = f.p[k]
        t = f.T[k] if lead is None else -p * lead * f.A
        return t * (x2 + p) * zm / f.D[k]

    return log_ratio, ratio


def _j_sign(alpha, z, q) -> int:
    """The sign of J_alpha(1, sqrt(z); q^2) where a sum in doubles
    certifies it: +1 or -1 when the double sum S of the terms of _j_ratio
    at x = 1 exceeds the a-priori bound E on its error (derived below), and
    0 when it does not, when q, alpha or z is not exactly a finite double,
    or outside 0 < q < 1, alpha > -1, z > 0."""
    qf, af, zf = float(q), float(alpha), float(z)
    for f, v in ((qf, q), (af, alpha), (zf, z)):
        if not math.isfinite(f) or mp.mpf(f) != v:
            return 0
    if not (0 < qf < 1 and af > -1 and zf > 0):
        return 0
    # Rounding.  u = 2^-53: each +, -, *, / is within u relative and pow
    # within 1 ulp (2u).  Counting roundings, to first order in u:
    # q2 = q q carries 1; a = q^(2 alpha) q2 = q^(2 alpha + 2) carries 4
    # (2 alpha is exact); c = a z carries 5; the running p = q^(2k)
    # carries 2k.  In r(k) = -(p c)(1 + p) / ((1 - p q2)(1 - p a)), p c
    # carries 2k + 6, 1 + p carries 2k + 1 and the three outer operations
    # 3.  1 - y, with y within m u, is within (m y / (1 - y) + 1) u, and
    # y / (1 - y) is largest at k = 0; so 1 - p q2 carries
    # (2k + 2) q2 / (1 - q2) + 1 and 1 - p a carries (2k + 5) a / (1 - a) + 1.
    # In all r(k) is within (2k + 6) K u with K = 1/(1 - q2) + 1/(1 - a)
    # >= 2, and t_n = t_{n-1} r(n-1) (one more rounding each) within
    #   sum_{k<n} ((2k + 6) K + 1) u = ((n^2 + 5n) K + n) u
    #                                <= (n + 3)^2 K u = beta.
    # Summing t_0..t_n adds at most n u A, A = sum |t_k|.
    # Tail.  At x = 1, z > 0 and alpha > -1, with w = q^(2k),
    #   |r(k)| = a z w (1 + w) / ((1 - q2 w)(1 - a w)):
    # the numerator grows with w, and as q2, a < 1 the denominator falls
    # with w; w falls with k, so |r(k)| falls with k.  Once |r(n)| <= 1/2
    # the terms after t_n sum to at most |t_{n+1}| / (1 - |r(n)|)
    # <= 2 |t_{n+1}|.  So, to first order,
    #   |J - S| <= (beta + n u) A + 2 |t_{n+1}|.
    # While beta <= 1/8 the second-order terms, the gap between the
    # computed and the exact A, r(n) and t_{n+1}, and the rounding of E
    # itself stay within the factor 4 of
    #   E = 4 ((beta + n u) A + |t_{n+1}|).
    # Underflow: q2, c and p are checked to be normal; a product p c below
    # the normal range makes |r| < 2^-1021 K^2 <= u and so ends the loop at
    # that term, where it enters E only.  Overflow gives up through A.
    u = 2.0**-53
    q2 = qf * qf
    a = qf ** (2 * af) * q2
    c = a * zf
    if not (a < 1 and min(q2, c) >= sys.float_info.min):
        return 0
    k_amp = 1 / (1 - q2) + 1 / (1 - a)
    p = t = s = total = 1.0  # q^(2n), t_n, the sums of t_k and of |t_k|
    for n in range(TERMS_MAX):
        r = -(p * c) * (1 + p) / ((1 - p * q2) * (1 - p * a))
        t *= r
        if abs(r) <= 0.5 and abs(t) <= u * total:
            break
        s += t
        total += abs(t)
        p *= q2
        if not (total < math.inf and p >= sys.float_info.min):
            return 0
    else:
        return 0
    beta = (n + 3) ** 2 * k_amp * u
    if beta > 0.125 or not abs(s) > 4 * ((beta + n * u) * total + abs(t)):
        return 0
    return 1 if s > 0 else -1


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
    # is c_1, i.e. r(0) at z = 1, and d_{k+1}/d_k = (k+1)/k r(k).  x is
    # converted to mpf once for both ratios.
    xm = _mpf(x)
    log_c1, c1 = _j_ratio(alpha, xm, 1, ctx.q)
    if z == 0:
        return SeriesValue(c1(0), mp.mpf(0), 1)
    log_ratio, ratio = _j_ratio(alpha, xm, z, ctx.q)
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
            raise InvalidArgument(
                f"unknown identity kind {kind!r}; expected one of "
                f"{IDENTITY_KINDS}"
            )
        return abs(lhs - rhs) / max(1, abs(rhs))
