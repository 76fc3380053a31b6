"""Independent oracles used by the test suite.

Everything but the last section is computed without touching the
package's series engine: the big q-Bessel series is summed directly from
its printed definition with mpmath's q-Pochhammer, and zeros are located
by a dense float64 grid scan (numpy Horner) followed by bisection on the
brute-force series.
Frozen constants below were produced by these same routines at 40 digits.

The section before the last keeps the J term ratio as the one mpf
expression the library evaluated before it kept its (q, alpha)-only
factors in a memo, summed through the package's own `sum_series`: it is
the reference for the bit-identity of `eval_J` and `eval_dJ_dz`.

The last section restates four of the paper's displays that turned out
false (the product-integral closed form, the norm formula, the sampling
kernel and the D_{q^{-1}} constant of the big q-trig functions, as
printed).  They are built on the package's own evaluations, at
the package's working precision, so that the tests show that the displays,
not the evaluation, disagree with the direct computation.
"""

import math

import mpmath as mp
import numpy as np

from bigqbessel import (
    eval_big_cos,
    eval_big_sin,
    eval_dJ_dz,
    eval_J,
    fused_product_ratio,
    q_derivative_inv,
)
from bigqbessel.bqbessel import _log10_abs
from bigqbessel.qcalc import SeriesValue, _mpf, _workdigits, sum_series

# --- frozen constants (independent brute-force series, 40-digit run) ----

# J_0(x=1, lambda^2=0.01; q^2=0.25)
J_Q05_A0_X1_Z001 = mp.mpf("0.9911190109920320792818971")

# (0.5; 0.5)_infinity
QPOCH_INF_HALF = mp.mpf("0.2887880950866024212788997")

# first five positive lambda-zeros of J_0(1, lambda; q^2) at q = 0.5
ZEROS_Q05_A0 = [
    mp.mpf("1.124253358794089558641119"),
    mp.mpf("3.611837405451427421334845"),
    mp.mpf("7.942826252026860059857569"),
    mp.mpf("15.99801718635127601501381"),
    mp.mpf("31.99998405512801460400392"),
]

# first five positive lambda-zeros of J_{1/2}(1, lambda; q^2) at q = 0.8
ZEROS_Q08_A05 = [
    mp.mpf("0.4911775424836051737926656"),
    mp.mpf("1.042458602695282648589552"),
    mp.mpf("1.690099497046688274768611"),
    mp.mpf("2.442892004164352558599584"),
    mp.mpf("3.290652996991748371331285"),
]

# squared norms of J_{alpha+1}(., j_k) under the weighted q-integral,
# computed by the direct lattice sum with mpmath q-Pochhammer weights
NORMS_Q05_A0 = [
    mp.mpf("0.51284394476785248543"),
    mp.mpf("0.33054908209216879303"),
    mp.mpf("1.8955092105260872154"),
    mp.mpf("35.111901556676647486"),
    mp.mpf("2117.2513148323931047"),
]

NORMS_Q08_A05 = [
    mp.mpf("0.25050503676786297665"),
    mp.mpf("0.03954265323045082277"),
    mp.mpf("0.05312313691394864216"),
    mp.mpf("0.33719770033207594009"),
    mp.mpf("2.1555061151091784717"),
]


def brute_J(alpha, x, z, q2, dps=40):
    """Direct summation of the printed series, with the product
    prod_{j<k}(x^2 + q^{2j}) in place of the (-1/x^2; q^2)_k x^{2k}
    factor so x = 0 is regular.  Entirely independent of the package.
    """
    with mp.workdps(dps):
        alpha = mp.mpf(alpha)
        x = mp.mpf(x)
        z = mp.mpf(z)
        q2 = mp.mpf(q2)
        s = mp.mpf(0)
        for k in range(500):
            pk = mp.mpf(1)
            for j in range(k):
                pk *= x * x + q2 ** j
            t = (
                (-1) ** k
                * q2 ** (k * (k - 1) // 2)
                * q2 ** (k * (alpha + 1))
                * pk
                * z ** k
                / (mp.qp(q2, q2, k) * mp.qp(q2 ** (alpha + 1), q2, k))
            )
            s += t
            if k > 4 and abs(t) < mp.mpf(10) ** (5 - dps) * max(1, abs(s)):
                break
        return +s


def brute_dJ(alpha, x, z, q2, dps=40):
    """Term-wise z-derivative of brute_J's printed series,
    sum_k k t_k(x) z^(k-1), summed the same way."""
    with mp.workdps(dps):
        alpha = mp.mpf(alpha)
        x = mp.mpf(x)
        z = mp.mpf(z)
        q2 = mp.mpf(q2)
        s = mp.mpf(0)
        for k in range(1, 500):
            pk = mp.mpf(1)
            for j in range(k):
                pk *= x * x + q2 ** j
            t = (
                (-1) ** k
                * k
                * q2 ** (k * (k - 1) // 2)
                * q2 ** (k * (alpha + 1))
                * pk
                * z ** (k - 1)
                / (mp.qp(q2, q2, k) * mp.qp(q2 ** (alpha + 1), q2, k))
            )
            s += t
            if k > 4 and abs(t) < mp.mpf(10) ** (5 - dps) * max(1, abs(s)):
                break
        return +s


def brute_big_trig(which, x, z, q, dps=40):
    """The displayed big q-trig series over (q; q)_{2k} factorials,

        cos: sum_k (-1)^k q^(k(k-1)+k) P_k(x) z^k / (q; q)_{2k}
        sin: sum_k (-1)^k q^(k(k-1)+3k) P_k(x) z^k / (q; q)_{2k+1}

    with P_k(x) = prod_{j<k}(x^2 + q^{2j}), summed directly.  Entirely
    independent of the package.
    """
    shift, odd = (1, 0) if which == "cos" else (3, 1)
    with mp.workdps(dps):
        x = mp.mpf(x)
        z = mp.mpf(z)
        q = mp.mpf(q)
        s = mp.mpf(0)
        for k in range(500):
            pk = mp.mpf(1)
            for j in range(k):
                pk *= x * x + q ** (2 * j)
            t = (
                (-1) ** k
                * q ** (k * (k - 1) + shift * k)
                * pk
                * z ** k
                / mp.qp(q, q, 2 * k + odd)
            )
            s += t
            if k > 4 and abs(t) < mp.mpf(10) ** (5 - dps) * max(1, abs(s)):
                break
        return +s


def dense_grid_zeros(q, alpha, count, lam_lo, lam_hi, n=400000, dps=40):
    """Independent zero oracle: float64 Horner evaluation of the series
    in z = lambda^2 on a dense uniform lambda grid, then bisection of
    each sign-change bracket on the brute-force mpmath series.
    """
    q2 = float(q) ** 2
    coeff = [1.0]
    for k in range(80):
        coeff.append(
            coeff[-1]
            * (-(q2 ** k))
            * q2 ** (alpha + 1)
            * (1 + q2 ** k)
            / ((1 - q2 ** (k + 1)) * (1 - q2 ** (alpha + 1 + k)))
        )
    lams = np.linspace(lam_lo, lam_hi, n)
    zv = lams ** 2
    p = np.zeros_like(zv)
    for ck in reversed(coeff):
        p = p * zv + ck
    sign = np.sign(p)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    out = []
    with mp.workdps(dps):
        for i in idx[:count]:
            a, b = mp.mpf(float(lams[i])), mp.mpf(float(lams[i + 1]))
            fa = brute_J(alpha, 1, a * a, q2, dps)
            for _ in range(140):
                m = (a + b) / 2
                fm = brute_J(alpha, 1, m * m, q2, dps)
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            out.append((a + b) / 2)
    return out


# --- the J term ratio as one expression ----------------------------------


def ratio_expression(alpha, x, z, q):
    """The pair (log10|lead r(k)|, lead r(k)) of the J series as
    sum_series takes it, with r(k) as one mpf expression per term:

        r(k) = -q^(2k) q^(2alpha+2) (x^2 + q^(2k)) z
               / ((1 - q^(2k+2)) (1 - q^(2alpha+2+2k))),

    every q-power recomputed at the precision of the call."""
    qf = float(q)
    af = float(alpha)
    lq = math.log10(qf)
    lx2 = 2 * _log10_abs(x)
    lz = _log10_abs(z)

    def log_ratio(k, lead=1.0):
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

    qm, xm, zm, am = _mpf(q), _mpf(x), _mpf(z), _mpf(alpha)

    def ratio(k, lead=None):
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


def expression_J(q, alpha, x, z, tol):
    """eval_J's series summed with ratio_expression."""
    if z == 0:
        return SeriesValue(mp.mpf(1), mp.mpf(0), 1)
    log_ratio, ratio = ratio_expression(alpha, x, z, q)
    return sum_series(0.0, log_ratio, lambda: mp.mpf(1), ratio, tol)


def expression_dJ_dz(q, alpha, x, z, tol):
    """eval_dJ_dz's series summed with ratio_expression: first term r(0)
    at z = 1, ratio (n+2)/(n+1) r(n+1)."""
    log_c1, c1 = ratio_expression(alpha, x, 1, q)
    if z == 0:
        return SeriesValue(c1(0), mp.mpf(0), 1)
    log_ratio, ratio = ratio_expression(alpha, x, z, q)
    return sum_series(
        log_c1(0),
        lambda n: log_ratio(n + 1, (n + 2) / (n + 1)),
        lambda: c1(0),
        lambda n: ratio(n + 1, mp.mpf(n + 2) / (n + 1)),
        tol,
    )


# --- displays as printed in the paper (shown false by the tests) --------


def _closed_form_constants(q, am, a, tol):
    """C = (1-q)(1-q^(2a+2))/q^(2a+2) and W(a) of the product integral."""
    C = (1 - q) * (1 - q ** (2 * am + 2)) / q ** (2 * am + 2)
    W = fused_product_ratio(a * a, 0, 2 * am + 2, q, tol)
    return C, W


def lommel_rhs_printed(ctx, alpha, a, lam, mu, tol):
    """The product-integral closed form as printed: C W(a) B(a/q, a; mu, lam),
    with the bracket orientation reversed and no x -> 0 boundary term."""
    q, am, a, lam, mu = (_mpf(v) for v in (ctx.q, alpha, a, lam, mu))
    with mp.workdps(_workdigits(tol)):
        z_lam = lam * lam
        z_mu = mu * mu
        C, W = _closed_form_constants(q, am, a, tol)
        bracket = eval_J(ctx, am + 1, a / q, z_mu, tol).value * eval_J(
            ctx, am, a, z_lam, tol
        ).value - eval_J(ctx, am + 1, a / q, z_lam, tol).value * eval_J(
            ctx, am, a, z_mu, tol
        ).value
        return C * W * bracket


def norm_sq_closed_printed(ctx, alpha, zero, deriv, tol, a=1.0):
    """The norm formula as printed: C/(2 j_k) W(a) J_{alpha+1}(a/q, j_k)
    times the lambda-derivative, without the x -> 0 boundary derivative
    terms and with the opposite sign."""
    q, am, a, zero, deriv = (_mpf(v) for v in (ctx.q, alpha, a, zero, deriv))
    with mp.workdps(_workdigits(tol)):
        C, W = _closed_form_constants(q, am, a, tol)
        jp_aq = eval_J(ctx, am + 1, a / q, zero * zero, tol).value
        return C / (2 * zero) * W * jp_aq * deriv


def sampling_kernel_printed(ctx, alpha, table, k, lam, tol):
    """The sampling kernel as printed, built on J_{alpha+1} and its
    lambda-derivative at j_k in place of J_alpha."""
    am, lam, jk = _mpf(alpha), _mpf(lam), _mpf(table.zeros[k])
    with mp.workdps(_workdigits(tol)):
        z = lam * lam
        deriv = 2 * jk * eval_dJ_dz(ctx, am + 1, 1, jk * jk, tol).value
        num = eval_J(ctx, am + 1, 1, z, tol).value
        return 2 * jk * num / ((z - jk * jk) * deriv)


def trig_dqinv_printed_residual(ctx, x, z, tol):
    """The D_{q^{-1}} relation of the big q-trig functions with the
    printed constant: D_{q^{-1}}[w(2,3) sin](x) against
    -x q (1-q)^2 w(2,1) cos(x), as identity_residual's relative residual.
    The library's "trig-dqinv" kind has the corrected constant x q/(1-q).
    """
    q, xm, zm = _mpf(ctx.q), _mpf(x), _mpf(z)
    with mp.workdps(_workdigits(tol)):

        def g(t):
            t = _mpf(t)
            return (
                fused_product_ratio(t * t, 2, 3, q, tol)
                * eval_big_sin(ctx, t, zm, tol).value
            )

        lhs = q_derivative_inv(g, xm, q)
        w = fused_product_ratio(xm * xm, 2, 1, q, tol)
        rhs = -xm * q * (1 - q) ** 2 * w * eval_big_cos(ctx, xm, zm, tol).value
        return abs(lhs - rhs) / max(1, abs(rhs))
