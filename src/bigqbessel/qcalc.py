"""q-calculus primitives.

q-shifted factorials, infinite q-products, basic hypergeometric series,
q-derivatives, and the Jackson q-integral.  All series operations follow a
single truncation rule: stop at index k once |term_k| <= tol*max(1, |S|)
and the next term ratio is certified below some r < 1; the reported tail
bound is |term_{k+1}|/(1-r).

qpoch, fused_product_ratio, the q-derivatives, q_integral and jackson_sum
compute at the caller's precision, and their tol sets only the truncation;
L1-L3 call them inside the working precision of their own call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import mpmath as mp

from .defaults import DEFAULT_TOL, GUARD_DIGITS, MIN_DPS, TERMS_MAX
from .errors import (
    DivergentSeries,
    InvalidArgument,
    NonPositiveUpperLimit,
    PoleInDenominator,
    ZeroArgument,
)

__all__ = [
    "QContext",
    "SeriesValue",
    "qpoch",
    "qpoch_inf",
    "basic_hypergeometric",
    "q_derivative",
    "q_derivative_inv",
    "q_integral",
    "jackson_sum",
    "fused_product_ratio",
]


@dataclass(frozen=True)
class QContext:
    """The base q in (0, 1).

    Every operation takes the order alpha itself and enforces its own
    alpha range (e.g. alpha > -1/2 for orthogonality).
    """

    q: float

    def __post_init__(self) -> None:
        if not 0.0 < float(self.q) < 1.0:
            raise InvalidArgument(
                f"q must lie strictly in (0, 1); got {self.q}"
            )


@dataclass(frozen=True)
class SeriesValue:
    """A computed value with a truncation-tail bound and term count."""

    value: mp.mpf
    abs_error: mp.mpf
    terms_used: int

    def __post_init__(self) -> None:
        if self.abs_error < 0:
            raise InvalidArgument("abs_error must be nonnegative")
        if self.terms_used < 1:
            raise InvalidArgument("terms_used must be at least 1")

    def __float__(self) -> float:
        return float(self.value)


def _mpf(x) -> mp.mpf:
    """x as an mpf; an mpf passes through unrounded."""
    return x if isinstance(x, mp.mpf) else mp.mpf(x)


def _require_finite(**args) -> None:
    """Raise InvalidArgument naming the first argument that is not a
    finite number."""
    for name, v in args.items():
        # math.isfinite is the fast path for the common float argument
        if not (math.isfinite(v) if isinstance(v, float) else mp.isfinite(v)):
            raise InvalidArgument(f"{name} must be finite; got {v}")


def _workdigits(tol: float) -> int:
    """Working decimal digits of the routines that combine several series
    values at tolerance tol."""
    return max(30, int(-math.log10(tol)) + 15)


def qpoch(a, q, n: int):
    """Finite q-shifted factorial prod_{i<n} (1 - a*q^i); 1 for n = 0, at
    the caller's precision."""
    if n < 0 or n != int(n):
        raise InvalidArgument(f"n must be a nonnegative integer; got {n}")
    a = _mpf(a)
    q = _mpf(q)
    p = mp.mpf(1)
    for i in range(int(n)):
        p *= 1 - a * q**i
    return p


def qpoch_inf(a, q, tol: float = DEFAULT_TOL) -> SeriesValue:
    """Infinite q-product (a; q)_inf, truncated so the dropped log-tail
    sum_{i>=N} |a| q^i / (1 - |a| q^i) implies relative error < tol."""
    if not 0 < q < 1:
        raise InvalidArgument(f"q must lie strictly in (0, 1); got {q}")
    if not tol > 0:
        raise InvalidArgument(f"tol must be positive; got {tol}")
    _require_finite(a=a)
    if a == 0:
        return SeriesValue(mp.mpf(1), mp.mpf(0), 1)
    with mp.workdps(max(MIN_DPS, int(-math.log10(tol)) + 10)):
        a = _mpf(a)
        q = _mpf(q)
        p = mp.mpf(1)
        i = 0
        while True:
            t = abs(a) * q**i
            if t < mp.mpf("0.5"):
                # Tail of the log-series: sum_{j>=i} t*q^(j-i)/(1-t) and
                # the relative error bound exp(tail)-1 ~ tail.
                tail = t / ((1 - q) * (1 - t))
                if tail < tol:
                    break
            p *= 1 - a * q**i
            i += 1
            if i > 10 * TERMS_MAX:
                raise DivergentSeries("qpoch_inf failed to certify its tail")
        abs_err = abs(p) * tail
        return SeriesValue(+p, +abs_err, max(i, 1))


def fused_product_ratio(x2, e_num, e_den, q, tol: float = DEFAULT_TOL):
    """Ratio of infinite products prod_j (1 + x2*q^(e_num+2j)) /
    (1 + x2*q^(e_den+2j)), truncated jointly.

    This evaluates weight ratios such as
    (-x^2 q^{e_num}; q^2)_inf / (-x^2 q^{e_den}; q^2)_inf
    as one fused product, avoiding overflow/underflow of the separately
    huge/tiny factors for large x2.  At the caller's precision; tol sets
    only the truncation.
    """
    _require_finite(x2=x2, e_num=e_num, e_den=e_den, q=q)
    if not tol > 0:
        raise InvalidArgument(f"tol must be positive; got {tol}")
    x2 = _mpf(x2)
    q = _mpf(q)
    e_num = _mpf(e_num)
    e_den = _mpf(e_den)
    e_min = min(e_num, e_den)
    p = mp.mpf(1)
    j = 0
    while True:
        fn = 1 + x2 * q ** (e_num + 2 * j)
        fd = 1 + x2 * q ** (e_den + 2 * j)
        p *= fn / fd
        j += 1
        # Remaining log-tail is bounded by |x2| q^(e_min+2j) / (1 - q^2)
        # (both sub-products from index j on differ from 1 by at most this).
        if abs(x2) * q ** (e_min + 2 * j) < tol * (1 - q * q) / 2:
            break
        if j > 10 * TERMS_MAX:
            raise DivergentSeries("fused_product_ratio failed to converge")
    return p


def sum_series(
    log_term0: float,
    log_ratio: Callable[[int], float],
    mp_term0: Callable[[], mp.mpf],
    mp_ratio: Callable[[int], mp.mpf],
    tol: float,
    terms_max: int = TERMS_MAX,
) -> SeriesValue:
    """Adaptive-precision summation engine used by all series here.

    A cheap float pass over log10 term magnitudes estimates the peak term,
    which fixes the working precision (the series alternate in sign, and
    the peak can exceed the sum by hundreds of digits).  The exact pass
    then applies the geometric-ratio truncation rule.
    """
    if not tol > 0:
        raise InvalidArgument(f"tol must be positive; got {tol}")
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
        # Add the rounding floor: partial sums peak at ~10^peak, so the
        # summation noise sits near 10^(peak - dps).
        err = tail + mp.mpf(10) ** (int(peak) + 5 - dps)
        return SeriesValue(+s, +err, n)


def basic_hypergeometric(
    nums: Sequence,
    dens: Sequence,
    q,
    z,
    tol: float = DEFAULT_TOL,
) -> SeriesValue:
    """Basic hypergeometric series r_phi_s(nums; dens; q, z) including the
    ((-1)^k q^C(k,2))^(1+s-r) convergence factor."""
    if not 0 < q < 1:
        raise InvalidArgument(f"q must lie strictly in (0, 1); got {q}")
    r = len(nums)
    s = len(dens)
    excess = 1 + s - r
    if excess < 0 and z != 0:
        raise DivergentSeries(
            f"r={r} > s+1={s + 1}: the q^((1+s-r)*C(k,2)) factor diverges"
        )
    qm = _mpf(q)
    zm = _mpf(z)
    numsm = [_mpf(a) for a in nums]
    densm = [_mpf(b) for b in dens]
    if zm == 0:
        return SeriesValue(mp.mpf(1), mp.mpf(0), 1)

    def ratio_m(k: int) -> mp.mpf:
        # t_{k+1}/t_k for the series of (2.3)-type terms.
        top = mp.mpf(1)
        for a in numsm:
            top *= 1 - a * qm**k
        bot = 1 - qm ** (k + 1)
        for b in densm:
            f = 1 - b * qm**k
            if f == 0:
                if top == 0:
                    return mp.mpf(0)  # numerator already truncated
                raise PoleInDenominator(
                    f"denominator parameter {b} zeroes term k={k}"
                )
            bot *= f
        return top / bot * zm * ((-1) * qm**k) ** excess

    def ratio_log(k: int) -> float:
        rr = float(abs(ratio_m(k)))
        return math.log10(rr) if rr > 0 else -1e9

    return sum_series(0.0, ratio_log, lambda: mp.mpf(1), ratio_m, tol)


def q_derivative(f: Callable, x, q):
    """q-difference quotient (f(x) - f(qx)) / ((1-q) x), at the caller's
    precision."""
    if x == 0:
        raise ZeroArgument("q_derivative is undefined at x = 0")
    x = _mpf(x)
    q = _mpf(q)
    return (_mpf(f(x)) - _mpf(f(q * x))) / ((1 - q) * x)


def q_derivative_inv(f: Callable, x, q):
    """Inverse-base difference quotient (f(x) - f(x/q)) / ((1 - 1/q) x), at
    the caller's precision."""
    if x == 0:
        raise ZeroArgument("q_derivative_inv is undefined at x = 0")
    x = _mpf(x)
    q = _mpf(q)
    return (_mpf(f(x)) - _mpf(f(x / q))) / ((1 - 1 / q) * x)


def q_integral(f: Callable, a, q, tol: float = DEFAULT_TOL) -> SeriesValue:
    """Jackson q-integral (1-q) a sum_n f(a q^n) q^n over [0, a], with the
    tail rule of jackson_sum, at the caller's precision."""
    a = _mpf(a)
    q = _mpf(q)
    return jackson_sum(lambda n: f(a * q**n), a, q, tol)


def jackson_sum(
    sample: Callable[[int], mp.mpf], a, q, tol: float = DEFAULT_TOL
) -> SeriesValue:
    """(1-q) a sum_n sample(n) q^n, where sample(n) = f(a q^n), over at
    most 10 * TERMS_MAX lattice points.

    The tail is bounded by a*q^(N+1)*sup|f|, with sup|f| estimated as twice
    the max over the first 64 lattice points; the estimate is enlarged on
    the fly if later samples exceed it, which keeps the bound honest.  The
    sum is taken at the caller's precision; tol sets only where it stops.
    """
    _require_finite(a=a)
    if a <= 0:
        raise NonPositiveUpperLimit(f"upper limit must be positive; got {a}")
    if not tol > 0:
        raise InvalidArgument(f"tol must be positive; got {tol}")
    a = _mpf(a)
    q = _mpf(q)
    head = [_mpf(sample(n)) for n in range(64)]
    sup = 2 * max(abs(v) for v in head)
    s = mp.mpf(0)
    n = 0
    while n < 10 * TERMS_MAX:
        fv = head[n] if n < 64 else _mpf(sample(n))
        if abs(fv) > sup:
            sup = 2 * abs(fv)
        s += fv * q**n
        n += 1
        tail = a * q**n * sup
        if tail < tol:
            break
    else:
        raise DivergentSeries("q_integral tail bound not reached")
    return SeriesValue((1 - q) * a * s, (1 - q) * tail, n)
