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
last (an LRU cache).  The memo builds them as mpmath's raw _mpf_ tuples
through mpmath.libmp, taking log q once per entry for the real powers of
q, and the ratio combines them with x and z the same way, in the raw form
that sum_series' exact pass sums.  Each factor, and each step of the
ratio, is the same mpmath operation on the same operands at the same
precision and rounding as in the ratio written as one mpf expression, so
every value is bit-identical to that expression's.  alpha, x and z enter
exactly (qcalc._order, qcalc._arg), so the caller's precision does not
change a value.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable

import mpmath as mp
from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pow,
    mpf_pow_int,
    mpf_sub,
)

from .defaults import DEFAULT_TOL, TERMS_MAX
from .errors import InvalidArgument, ZeroSpectralParameter
from .qcalc import (
    QContext,
    SeriesValue,
    _arg,
    _integer,
    _log10_abs,
    _order,
    _tol,
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
    "recurrence_alpha_step",
    "recurrence_shifted",
    "apply_L",
    "identity_residual",
    "IDENTITY_KINDS",
]


# The memo of _Factors (_factors) holds the _FACTOR_SLOTS keys used last;
# each entry builds its rows on raw tuples and takes log q at most once.
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
    p_k = q^(2k) and D_k = (1 - q^(2k+2)) (1 - q^(2alpha+2+2k)), and the
    lead row L_k = ((-p_k) ((k+1)/k)) A of eval_dJ_dz, k >= 1.  Rows are
    built in order, on demand, at the precision and rounding of the
    entry's key, as raw _mpf_ tuples through mpmath.libmp: each step is
    the operation mpf arithmetic performs for the expression
    (q^(2k+2), 2 alpha + 2 + 2k, 1 - y, -p_k A, ...), on the same operands
    in the same order at the same precision and rounding, so every row is
    the expression's bit for bit (tests/oracles.py keeps the expression).
    Only eval_dJ_dz reads L, so only it builds lead rows.

    q^t for a real exponent t is mpmath's mpf_pow(q, t): mpf_pow_int for
    an integer t, a square root for a half-integer one, and otherwise
    exp(t c) with c = log q at 10 guard bits, which does not depend on t.
    The entry takes c once, when it first needs it, instead of once per
    row."""

    __slots__ = ("qm", "prec", "rnd", "log_q", "e0", "A", "T", "p", "D", "L")

    def __init__(self, q, alpha):
        self.prec, self.rnd = prec, rnd = mp.mp._prec_rounding
        self.qm = _arg("q", q)._mpf_
        am = _arg("alpha", alpha)._mpf_
        self.log_q = None
        # 2 alpha + 2, the k-free part of the exponent 2 alpha + 2 + 2k
        self.e0 = mpf_add(
            mpf_mul_int(am, 2, prec, rnd), from_int(2), prec, rnd
        )
        self.A = self._pow(
            mpf_mul_int(mpf_add(am, from_int(1), prec, rnd), 2, prec, rnd)
        )
        self.T, self.D = [], []
        self.p = [fone]  # q^0
        self.L = [None]  # the lead (k+1)/k starts at k = 1

    def _pow(self, t: tuple) -> tuple:
        """q^t as mpf_pow(q, t) rounds it, with log q taken once."""
        if t[2] >= -1:  # an integer or a half-integer t
            return mpf_pow(self.qm, t, self.prec, self.rnd)
        if self.log_q is None:
            self.log_q = mpf_log(self.qm, self.prec + 10, self.rnd)
        return mpf_exp(mpf_mul(t, self.log_q), self.prec, self.rnd)

    def _row(self) -> None:
        """Append row k = len(D); q^(2k+2) is kept as p_(k+1)."""
        prec, rnd = self.prec, self.rnd
        k = len(self.D)
        p1 = mpf_pow_int(self.qm, 2 * k + 2, prec, rnd)
        t = mpf_neg(self.p[k], prec, rnd)
        self.T.append(mpf_mul(t, self.A, prec, rnd))
        self.p.append(p1)
        y = self._pow(mpf_add(self.e0, from_int(2 * k), prec, rnd))
        self.D.append(
            mpf_mul(
                mpf_sub(fone, p1, prec, rnd), mpf_sub(fone, y, prec, rnd),
                prec, rnd,
            )
        )

    def _lead_row(self) -> None:
        """Append lead row k = len(L), which needs row k - 1."""
        prec, rnd = self.prec, self.rnd
        k = len(self.L)
        lead = mpf_div(from_int(k + 1, prec, rnd), from_int(k), prec, rnd)
        t = mpf_mul(mpf_neg(self.p[k], prec, rnd), lead, prec, rnd)
        self.L.append(mpf_mul(t, self.A, prec, rnd))


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

    as the pair of callables sum_series takes: log_ratio(k, lead), the
    float log10|lead r(k)| of the precision pass, and ratio(k, led), the
    exact r(k), or with led the r(k) times the lead (k+1)/k of eval_dJ_dz
    (k >= 1), as a raw _mpf_ tuple at the current precision and rounding.
    log10(x^2 + q^(2k)) is a log-sum of 2 log10|x| and 2k log10 q, so the
    float pass does not overflow for large |x|.  alpha, x and z are mpf,
    converted exactly by the public entry (_arg).

    The exact ratio reads T_k = (-p_k) A, p_k = q^(2k),
    D_k = (1 - q^(2k+2)) (1 - q^(2alpha+2+2k)) and, with led, the lead row
    L_k = ((-p_k) ((k+1)/k)) A, which depend on neither x nor z, from the
    memo entry of (q, alpha) at the current precision and rounding
    (_factors; at most _FACTOR_SLOTS entries), and takes x^2 once per
    precision.  It returns ((T_k (x^2 + p_k)) z) / D_k, with L_k for T_k
    under led, each step an mpmath.libmp operation at that precision and
    rounding: the operations, operands, order and precision of the one mpf
    expression t A (x^2 + p_k) z / (D1 D2), t = -p_k (times the lead), so
    every value is bit-identical to that expression's (tests/oracles.py
    keeps it as the reference).

    Tail bound.  |r(k+1)| <= q^2 |r(k)| for every real x, every z != 0
    and every alpha > -1, so the terms after t_n sum to at most
    |t_(n+1)| / (1 - |r(n)|) once |r(n)| < 1, the tail that sum_series
    reports.  With w = q^(2k) and a = q^(2alpha+2),

        r(k+1)/r(k) = q^2 (x^2 + q^2 w)/(x^2 + w)
                      (1 - q^2 w)(1 - a w) / ((1 - q^4 w)(1 - a q^2 w)),

    and as 0 < q^2 w <= q^2 < 1 and 0 < a w < 1 (alpha > -1 makes a < 1)
    each factor after q^2 lies in (0, 1].  The lead (k+1)/k that
    eval_dJ_dz puts on r(k), k >= 1, falls with k, so it keeps the bound.
    """
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

    xm = x._mpf_
    zm = z._mpf_
    # the precision and rounding, the memo entry and x^2 of the last call
    prec_rounding, f, x2 = None, None, None

    def ratio(k: int, led: bool = False) -> tuple:
        nonlocal prec_rounding, f, x2
        if prec_rounding != mp.mp._prec_rounding:
            # a list that mpmath changes in place: keep a copy
            prec_rounding = list(mp.mp._prec_rounding)
            f = _factors(q, alpha, *prec_rounding)
            x2 = mpf_mul(xm, xm, *prec_rounding)
        prec, rnd = prec_rounding
        while len(f.D) <= k:
            f._row()
        if led:
            while len(f.L) <= k:
                f._lead_row()
        t = f.L[k] if led else f.T[k]
        return mpf_div(
            mpf_mul(mpf_mul(t, mpf_add(x2, f.p[k], prec, rnd), prec, rnd),
                    zm, prec, rnd),
            f.D[k],
            prec,
            rnd,
        )

    return log_ratio, ratio


def _j_sign(alpha, z, q) -> int:
    """The sign of J_alpha(1, sqrt(z); q^2) where a sum in doubles
    certifies it: +1 or -1 when the double sum S of the terms of _j_ratio
    at x = 1 exceeds the a-priori bound E on its error (derived below), and
    0 when it does not, when q, alpha or z is not exactly a finite double,
    or outside 0 < q < 1, alpha > -1, z > 0."""
    qf, af, zf = float(q), float(alpha), float(z)
    for f, v in ((qf, q), (af, alpha), (zf, z)):
        if not math.isfinite(f):
            return 0
        if isinstance(v, float):
            continue
        if isinstance(v, mp.mpf):
            if v._mpf_ != from_float(f):
                return 0
        elif f != v:  # an int, which Python compares with a float exactly
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
    # Tail.  By the tail bound of _j_ratio, once |r(n)| <= 1/2 the terms
    # after t_n sum to at most |t_{n+1}| / (1 - |r(n)|) <= 2 |t_{n+1}|.
    # So, to first order,
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
    alpha, x, z = _order(alpha, -1), _arg("x", x), _arg("z", z)
    tol, terms_max = _tol(tol), _integer("terms_max", terms_max)
    if z == 0:
        return SeriesValue(mp.mpf(1), mp.mpf(0), 1)
    log_ratio, ratio = _j_ratio(alpha, x, z, ctx.q)
    return sum_series(0.0, log_ratio, lambda: fone, ratio, tol, terms_max)


def eval_dJ_dz(
    ctx: QContext, alpha, x, z, tol: float = DEFAULT_TOL
) -> SeriesValue:
    """Term-wise z-derivative of eval_J: sum_k k c_k(x) z^(k-1).

    The lambda-derivative used by the norm formula and the sampling kernel
    is 2*lambda*eval_dJ_dz.
    """
    alpha, x, z = _order(alpha, -1), _arg("x", x), _arg("z", z)
    tol = _tol(tol)
    # d_k = k c_k z^(k-1), with the loop index n = k - 1: the first term
    # is c_1, i.e. r(0) at z = 1, and d_{k+1}/d_k = (k+1)/k r(k).  At
    # z = 0 every ratio is 0, and the sum is c_1 alone.
    log_c1, c1 = _j_ratio(alpha, x, mp.mpf(1), ctx.q)
    log_ratio, ratio = _j_ratio(alpha, x, z, ctx.q)
    return sum_series(
        log_c1(0),
        lambda n: log_ratio(n + 1, (n + 2) / (n + 1)),
        lambda: c1(0),
        lambda n: ratio(n + 1, True),
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
        pref = 1 / (1 - _arg("q", ctx.q))
        value = sv.value * pref
        # 1 - q, the division and the product each round by at most
        # 2^-prec relative; 10^(1-dps) covers the three
        err = sv.abs_error * pref + abs(value) * mp.mpf(10) ** (1 - mp.mp.dps)
        return SeriesValue(+value, +err, sv.terms_used)


def _recurrence_args(ctx: QContext, alpha, x, z):
    """(q, alpha, x, z) as mpf for the recurrences, which need alpha > 0
    (so that alpha - 1 > -1) and z != 0."""
    alpha, q = _order(alpha, 0), _arg("q", ctx.q)
    x, z = _arg("x", x), _arg("z", z)
    if z == 0:
        raise ZeroSpectralParameter("recurrence undefined at z = 0")
    return q, alpha, x, z


def recurrence_alpha_step(ctx: QContext, alpha, x, z, J_prev, J_curr):
    """Order recurrence: J_{alpha+1}(x) from J_{alpha-1}(x), J_alpha(x):

        J_{alpha+1} = (1-q^(2a+2)) / (z q^(2a) (q^(2a+2) x^2 + 1))
                      * [(1 - q^(2a) - z q^(2a) x^2) J_alpha
                         - (1 - q^(2a)) J_{alpha-1}].

    All three orders must exceed -1, i.e. alpha > 0.
    """
    q, a, x, z = _recurrence_args(ctx, alpha, x, z)
    J_prev, J_curr = _arg("J_prev", J_prev), _arg("J_curr", J_curr)
    qa = q ** (2 * a)
    pref = (1 - q ** (2 * a + 2)) / (z * qa * (q ** (2 * a + 2) * x * x + 1))
    return pref * ((1 - qa - z * qa * x * x) * J_curr - (1 - qa) * J_prev)


def recurrence_shifted(ctx: QContext, alpha, x, z, J_prev, J_curr):
    """Shifted recurrence: J_{alpha+1}(x/q) from J_{alpha-1}(x), J_alpha(x):

        J_{alpha+1}(x/q) = (1-q^(2a+2))(1-q^(2a)) / (z q^(2a) (1 + x^2))
                           * [J_alpha(x) - J_{alpha-1}(x)].

    Derived by eliminating J_alpha(x/q) between the two one-step relations;
    the coefficient (1-q^(2a)) multiplies the whole bracket (the display
    that attaches it to J_alpha only does not match a direct evaluation).
    """
    q, a, x, z = _recurrence_args(ctx, alpha, x, z)
    J_prev, J_curr = _arg("J_prev", J_prev), _arg("J_curr", J_curr)
    pref = (
        (1 - q ** (2 * a + 2))
        * (1 - q ** (2 * a))
        / (z * q ** (2 * a) * (1 + x * x))
    )
    return pref * (J_curr - J_prev)


def apply_L(ctx: QContext, alpha, f: Callable, x):
    """The second-order q-difference operator L:

        L f(x) = w_out(x)/x * D_{q^{-1}}[ y -> w_in(y)/y * (D_q f)(y) ](x)

    with w_in = (-y^2 q^2; q^2)_inf / (-y^2 q^(2alpha+4); q^2)_inf and
    w_out = (-x^2 q^(2alpha+2); q^2)_inf / (-x^2 q^2; q^2)_inf.
    J_alpha(., lambda; q^2) is an eigenfunction with eigenvalue
    -lambda^2 q^(2alpha+3) / (1-q)^2.
    """
    q, a = _arg("q", ctx.q), _arg("alpha", alpha)

    def inner(y):
        return (
            fused_product_ratio(y * y, 2, 2 * a + 4, q)
            / y
            * q_derivative(f, y, q)
        )

    x = _arg("x", x)
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
    if kind not in IDENTITY_KINDS:
        raise InvalidArgument(
            f"unknown identity kind {kind!r}; expected one of "
            f"{IDENTITY_KINDS}"
        )
    # the recurrences evaluate J_{alpha-1}, the other kinds J_alpha
    a = _order(alpha, 0 if kind.startswith("recurrence") else -1)
    q, xm, zm = _arg("q", ctx.q), _arg("x", x), _arg("z", z)
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
        else:  # trig-dqinv
            def g(t):
                return (
                    fused_product_ratio(t * t, 2, 3, q, tol)
                    * eval_big_sin(ctx, t, zm, tol).value
                )

            lhs = q_derivative_inv(g, xm, q)
            w = fused_product_ratio(xm * xm, 2, 1, q, tol)
            rhs = xm * q / (1 - q) * w * eval_big_cos(ctx, xm, zm, tol).value
        return abs(lhs - rhs) / max(1, abs(rhs))
