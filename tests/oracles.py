"""Independent oracles used by the test suite.

Everything but the last section is computed without touching the
package's series engine: the big q-Bessel series is summed directly from
its printed definition with mpmath's q-Pochhammer, and zeros are located
by a dense float64 grid scan (numpy Horner) followed by bisection on the
brute-force series.
Frozen constants below were produced by these same routines at 40 digits.

The section before the last keeps the J term ratio as the one mpf
expression the library evaluated before it kept its (q, alpha)-only
factors in a memo, and `sum_series_mpf`, the library's summation loop as
it ran on mpf objects before its exact pass moved to raw `_mpf_` tuples:
summed together they are the reference for the bit-identity of `eval_J`
and `eval_dJ_dz`, the summation, stop decision, tail and rounding floor
included.  `factor_rows_expression` keeps the memo's factor rows as the
mpf expressions that built them before they were built on raw tuples, and
`j_sum_loop` the double sum of the zero scan as it ran before it read its
rows from a memo.

The last section restates four of the paper's displays that turned out
false (the product-integral closed form, the norm formula, the sampling
kernel and the D_{q^{-1}} constant of the big q-trig functions, as
printed).  They are built on the package's own evaluations, at
the package's working precision, so that the tests show that the displays,
not the evaluation, disagree with the direct computation.
"""

import math
import sys

import mpmath as mp
import numpy as np
from mpmath.libmp import from_float

from bigqbessel import (
    eval_big_cos,
    eval_big_sin,
    eval_dJ_dz,
    eval_J,
    fused_product_ratio,
    q_derivative_inv,
)
from bigqbessel.defaults import GUARD_DIGITS, MIN_DPS, TERMS_MAX
from bigqbessel.errors import DivergentSeries, InvalidArgument
from bigqbessel.qcalc import SeriesValue, _log10_abs, _workdigits

# --- frozen constants (independent brute-force series, 40-digit run) ----

# J_0(x=1, lambda^2=0.01; q^2=0.25)
J_Q05_A0_X1_Z001 = mp.mpf("0.9911190109920320792818971")

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


def classical_zero(q, alpha, k):
    """The classical limit of the k-th lambda-zero of J_alpha(1, .; q^2):
    (1 - q^2) j_(alpha,k) / (2 sqrt 2), with j_(alpha,k) the k-th zero of
    the Bessel function J_alpha (mp.besseljzero).  As q -> 1,
    (lambda_k / classical_zero - 1) / (1 - q) tends to (3 + alpha) / 4."""
    q = mp.mpf(q)
    return (1 - q * q) * mp.besseljzero(alpha, k) / (2 * mp.sqrt(2))


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


# --- the J term ratio as one expression, summed on mpf objects -----------


def sum_series_mpf(
    log_term0, log_ratio, mp_term0, mp_ratio, tol, terms_max=TERMS_MAX
):
    """qcalc.sum_series with its exact pass on mpf objects: mp_term0() and
    mp_ratio(k) return mpf, and every operation is mpf arithmetic."""
    if not tol > 0:
        raise InvalidArgument(f"tol must be positive; got {tol}")
    if terms_max < 1:
        raise InvalidArgument(f"terms_max must be at least 1; got {terms_max}")
    digs = max(1.0, -math.log10(tol))
    lt = log_term0
    peak = max(0.0, lt)
    k = 0
    while k < terms_max:
        lr = log_ratio(k)
        lt += lr
        k += 1
        peak = max(peak, lt)
        if lr < 0 and lt < -(digs + 10):
            break
    else:
        raise DivergentSeries(
            f"series failed to decay within the {terms_max}-term budget"
        )
    dps = max(MIN_DPS, int(peak + digs) + GUARD_DIGITS)
    with mp.workdps(dps):
        t = mp_term0()
        s = mp.mpf(0)
        n = 0
        tail = None
        while n < terms_max:
            s += t
            r = mp_ratio(n)
            n += 1
            nxt = t * r
            if abs(t) <= tol * max(1, abs(s)) and abs(r) < 1:
                tail = abs(nxt) / (1 - abs(r))
                break
            t = nxt
        if tail is None:
            raise DivergentSeries(
                f"truncation rule not certified within {terms_max} terms"
            )
        err = tail + mp.mpf(10) ** (int(peak) + 5 - dps)
        return SeriesValue(+s, +err, n)


def _unrounded(v):
    """v as an mpf that the caller's precision has not rounded: an int, a
    float or an mpf converted exactly, as mpf arithmetic converts a
    right-hand operand."""
    return mp.make_mpf(mp.mpf.mpf_convert_rhs(v))


def ratio_expression(alpha, x, z, q):
    """The pair (log10|lead r(k)|, lead r(k)) of the J series as
    sum_series takes it, with r(k) as one mpf expression per term:

        r(k) = -q^(2k) q^(2alpha+2) (x^2 + q^(2k)) z
               / ((1 - q^(2k+2)) (1 - q^(2alpha+2+2k))),

    every q-power recomputed at the precision of the call, and x and z
    taken unrounded."""
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

    qm, am = _unrounded(q), _unrounded(alpha)
    xm, zm = _unrounded(x), _unrounded(z)

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


def factor_rows_expression(q, alpha, rows):
    """The (q, alpha)-only factors of r(k) for k < rows as mpf expressions
    at the current precision and rounding, each as its raw _mpf_ tuple:
    A = q^(2alpha+2), T_k = (-q^(2k)) A, p_k = q^(2k) (k <= rows),
    D_k = (1 - q^(2k+2)) (1 - q^(2alpha+2+2k)) and the lead row
    L_k = ((-p_k) ((k+1)/k)) A of eval_dJ_dz (L_0 is None)."""
    qm, am = _unrounded(q), _unrounded(alpha)
    A = qm ** (2 * (am + 1))
    p = [qm ** (2 * k) for k in range(rows + 1)]
    T = [(-p[k] * A)._mpf_ for k in range(rows)]
    D = [
        ((1 - qm ** (2 * k + 2)) * (1 - qm ** (2 * am + 2 + 2 * k)))._mpf_
        for k in range(rows)
    ]
    L = [None] + [
        (-p[k] * (mp.mpf(k + 1) / k) * A)._mpf_ for k in range(1, rows)
    ]
    return A._mpf_, T, [v._mpf_ for v in p], D, L


def expression_J(q, alpha, x, z, tol):
    """eval_J's series summed with ratio_expression by sum_series_mpf."""
    if z == 0:
        return SeriesValue(mp.mpf(1), mp.mpf(0), 1)
    log_ratio, ratio = ratio_expression(alpha, x, z, q)
    return sum_series_mpf(0.0, log_ratio, lambda: mp.mpf(1), ratio, tol)


def expression_dJ_dz(q, alpha, x, z, tol):
    """eval_dJ_dz's series summed with ratio_expression by sum_series_mpf:
    first term r(0) at z = 1, ratio (n+2)/(n+1) r(n+1)."""
    log_c1, c1 = ratio_expression(alpha, x, 1, q)
    log_ratio, ratio = ratio_expression(alpha, x, z, q)
    return sum_series_mpf(
        log_c1(0),
        lambda n: log_ratio(n + 1, (n + 2) / (n + 1)),
        lambda: c1(0),
        lambda n: ratio(n + 1, mp.mpf(n + 2) / (n + 1)),
        tol,
    )


def j_sum_loop(alpha, z, q):
    """bqbessel._j_sum as it summed before it read its (q, alpha) rows
    from a memo: every double of r(n) computed in place, with p = q^(2n)
    the running product, and an mpf argument compared with from_float."""
    qf, af, zf = float(q), float(alpha), float(z)
    for f, v in ((qf, q), (af, alpha), (zf, z)):
        if not math.isfinite(f):
            return None
        if isinstance(v, float):
            continue
        if isinstance(v, mp.mpf):
            if v._mpf_ != from_float(f):
                return None
        elif f != v:
            return None
    if not (0 < qf < 1 and af > -1 and zf > 0):
        return None
    u = 2.0**-53
    q2 = qf * qf
    a = qf ** (2 * af) * q2
    c = a * zf
    if not (a < 1 and min(q2, c) >= sys.float_info.min):
        return None
    k_amp = 1 / (1 - q2) + 1 / (1 - a)
    p = t = s = total = 1.0
    for n in range(TERMS_MAX):
        r = -(p * c) * (1 + p) / ((1 - p * q2) * (1 - p * a))
        t *= r
        if abs(r) <= 0.5 and abs(t) <= u * total:
            break
        s += t
        total += abs(t)
        p *= q2
        if not (total < math.inf and p >= sys.float_info.min):
            return None
    else:
        return None
    beta = (n + 3) ** 2 * k_amp * u
    if beta > 0.125:
        return None
    return s, 4 * ((beta + n * u) * total + abs(t))


# --- displays as printed in the paper (shown false by the tests) --------


def _closed_form_constants(q, am, a, tol):
    """C = (1-q)(1-q^(2a+2))/q^(2a+2) and W(a) of the product integral."""
    C = (1 - q) * (1 - q ** (2 * am + 2)) / q ** (2 * am + 2)
    W = fused_product_ratio(a * a, 0, 2 * am + 2, q, tol)
    return C, W


def lommel_rhs_printed(ctx, alpha, a, lam, mu, tol):
    """The product-integral closed form as printed: C W(a) B(a/q, a; mu, lam),
    with the bracket orientation reversed and no x -> 0 boundary term."""
    q, am, a, lam, mu = (_unrounded(v) for v in (ctx.q, alpha, a, lam, mu))
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
    q, am, a, zero, deriv = (
        _unrounded(v) for v in (ctx.q, alpha, a, zero, deriv)
    )
    with mp.workdps(_workdigits(tol)):
        C, W = _closed_form_constants(q, am, a, tol)
        jp_aq = eval_J(ctx, am + 1, a / q, zero * zero, tol).value
        return C / (2 * zero) * W * jp_aq * deriv


def sampling_kernel_printed(ctx, alpha, table, k, lam, tol):
    """The sampling kernel as printed, built on J_{alpha+1} and its
    lambda-derivative at j_k in place of J_alpha."""
    am, lam = _unrounded(alpha), _unrounded(lam)
    jk = _unrounded(table.zeros[k])
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
    q, xm, zm = _unrounded(ctx.q), _unrounded(x), _unrounded(z)
    with mp.workdps(_workdigits(tol)):

        def g(t):
            t = _unrounded(t)
            return (
                fused_product_ratio(t * t, 2, 3, q, tol)
                * eval_big_sin(ctx, t, zm, tol).value
            )

        lhs = q_derivative_inv(g, xm, q)
        w = fused_product_ratio(xm * xm, 2, 1, q, tol)
        rhs = -xm * q * (1 - q) ** 2 * w * eval_big_cos(ctx, xm, zm, tol).value
        return abs(lhs - rhs) / max(1, abs(rhs))
