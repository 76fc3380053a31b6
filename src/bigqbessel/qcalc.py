"""q-calculus primitives.

Infinite q-product ratios, q-derivatives, the Jackson q-integral, and
sum_series, which sums the J series: it stops at index k once
|term_k| <= tol*max(1, |S|) and the next term ratio has |r(k)| < 1, and
reports the tail bound |term_{k+1}|/(1-|r(k)|), proved beside
bqbessel._j_ratio.  Its exact pass works on mpmath's raw _mpf_ tuples
with the mpmath.libmp functions that mpf arithmetic calls, at the same
precision and rounding, so every value and every stop decision is the one
the same loop on mpf objects gives (tests/oracles.py keeps that loop).

Every public entry of L0-L3 passes its caller's arguments through four
gates before any work: _arg converts each number exactly, _order also
refuses an order alpha at or below the entry's floor, _tol checks a tol
and _integer a count.  Each raises a typed error that names the argument
as passed.
fused_product_ratio, the q-derivatives, q_integral and jackson_sum (so
orthogonality.weight too) compute at the caller's precision, and their tol
sets only the truncation; L1-L3 call them inside their working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    fone,
    from_float,
    from_int,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_gt,
    mpf_le,
    mpf_lt,
    mpf_mul,
)

from .defaults import DEFAULT_TOL, GUARD_DIGITS, MIN_DPS, TERMS_MAX
from .errors import (
    DivergentSeries,
    InvalidArgument,
    InvalidOrder,
    NonPositiveUpperLimit,
    ZeroArgument,
)

__all__ = [
    "QContext",
    "SeriesValue",
    "q_derivative",
    "q_derivative_inv",
    "q_integral",
    "jackson_sum",
    "fused_product_ratio",
]


@dataclass(frozen=True)
class QContext:
    """The base q in (0, 1).

    Every operation takes the order alpha itself and states its own floor
    through _order (e.g. alpha > -1/2 for orthogonality).
    """

    q: float

    def __post_init__(self) -> None:
        if not 0 < _arg("q", self.q) < 1:
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
        _arg("value", self.value)
        if _arg("abs_error", self.abs_error) < 0:
            raise InvalidArgument("abs_error must be nonnegative")
        _integer("terms_used", self.terms_used)

    def __float__(self) -> float:
        return float(self.value)


def _arg(name: str, v) -> mp.mpf:
    """The caller's number v as an mpf: an int or a float (numpy.float64 is
    one) converted exactly, as mpf.mpf_convert_rhs does, whatever mpmath's
    precision, or an mpf as it is.  Any other type (str, complex, Fraction,
    numpy.int64, numpy.float32, mpi, None, bool), and a value that is not
    finite, raises InvalidArgument naming the argument."""
    if isinstance(v, float):
        if math.isfinite(v):
            return mp.make_mpf(from_float(v))
    elif isinstance(v, int) and not isinstance(v, bool):
        return mp.make_mpf(from_int(v))
    elif isinstance(v, mp.mpf):
        if v._mpf_ not in (fnan, finf, fninf):
            return v
    else:
        raise InvalidArgument(
            f"{name} must be an int, a float or an mpf; "
            f"got {type(v).__name__} {v!r}"
        )
    raise InvalidArgument(f"{name} must be finite; got {v}")


def _order(alpha, floor: float) -> mp.mpf:
    """alpha converted by _arg; InvalidOrder if it is at or below floor,
    naming alpha as the caller passed it."""
    am = _arg("alpha", alpha)
    if am <= floor:
        raise InvalidOrder(f"alpha must exceed {floor}; got {alpha}")
    return am


def _tol(tol):
    """tol as passed if it is an int, a float or an mpf that is finite and
    > 0 (a NaN fails 0 < tol); else InvalidArgument."""
    if isinstance(tol, (int, float, mp.mpf)) and 0 < tol < math.inf:
        return tol
    raise InvalidArgument(f"tol must be a finite number > 0; got {tol!r}")


def _integer(name: str, v, least: int | None = 1) -> int:
    """v if it is an int, not a bool, of at least `least` (None: any int);
    else InvalidArgument naming the argument."""
    if isinstance(v, int) and not isinstance(v, bool):
        if least is None or v >= least:
            return v
    bound = "" if least is None else f" >= {least}"
    raise InvalidArgument(f"{name} must be an integer{bound}; got {v!r}")


def _log10_abs(v) -> float:
    """log10|v| as a float, also for an mpf v beyond the double range;
    -inf at v = 0."""
    f = abs(float(v))
    if 0 < f < math.inf:
        return math.log10(f)
    return float(mp.log10(abs(v))) if v else -math.inf


def _workdigits(tol: float) -> int:
    """Working decimal digits of the routines that combine several series
    values at tolerance tol, once _tol accepts it."""
    return max(30, int(-_log10_abs(_tol(tol))) + 15)


def fused_product_ratio(x2, e_num, e_den, q, tol: float = DEFAULT_TOL):
    """Ratio of infinite products prod_j (1 + x2*q^(e_num+2j)) /
    (1 + x2*q^(e_den+2j)), truncated jointly.

    This evaluates weight ratios such as
    (-x^2 q^{e_num}; q^2)_inf / (-x^2 q^{e_den}; q^2)_inf
    as one fused product, avoiding overflow/underflow of the separately
    huge/tiny factors for large x2.  At the caller's precision; tol sets
    only the truncation.
    """
    x2, q = _arg("x2", x2), _arg("q", q)
    e_num, e_den = _arg("e_num", e_num), _arg("e_den", e_den)
    tol = _tol(tol)
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
    mp_term0: Callable[[], tuple],
    mp_ratio: Callable[[int], tuple],
    tol: float,
    terms_max: int = TERMS_MAX,
) -> SeriesValue:
    """Adaptive-precision summation engine of the J series and dJ/dz.

    A cheap float pass over log10 term magnitudes (log_term0, and
    log_ratio(k) = log10|r(k)|) estimates the peak term, which fixes the
    working precision (the series alternate in sign, and the peak can
    exceed the sum by hundreds of digits).  The exact pass then applies
    the truncation rule and the tail bound of the module docstring.  It
    calls mp_term0() and mp_ratio(k) inside the working precision; each
    returns the term or the ratio as a raw _mpf_ tuple computed at that
    precision and rounding.  The exact pass is the loop

        s = 0; t = t_0
        s += t; r = r(n); nxt = t r
        stop if |t| <= tol max(1, |s|) and |r| < 1, else t = nxt

    in mpmath.libmp operations, each on the operands, in the order and at
    the precision and rounding that mpf arithmetic would use, so its
    values are those of the loop on mpf objects bit for bit.  The tail,
    the rounding floor and the result are mpf.  tol and terms_max come
    checked from the public entry (_tol, _integer).
    """
    digs = max(1.0, -_log10_abs(tol))
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
        prec, rnd = mp.mp._prec_rounding
        # tol max(1, |s|) as mpmath evaluates it: tol times |s| while
        # |s| > 1, with tol converted exactly as a right-hand operand; else
        # tol * 1, which is tol for a float or an int and tol rounded to
        # the working precision for an mpf.
        tol_m = mp.mpf.mpf_convert_rhs(tol)
        tol_1 = mp.mpf.mpf_convert_rhs(tol * 1)
        t = mp_term0()
        s = fzero
        n = 0
        while n < terms_max:
            s = mpf_add(s, t, prec, rnd)
            r = mp_ratio(n)
            n += 1
            nxt = mpf_mul(t, r, prec, rnd)
            abs_s = mpf_abs(s, prec, rnd)
            bound = (
                mpf_mul(tol_m, abs_s, prec, rnd)
                if mpf_gt(abs_s, fone)
                else tol_1
            )
            if mpf_le(mpf_abs(t, prec, rnd), bound):
                abs_r = mpf_abs(r, prec, rnd)
                if mpf_lt(abs_r, fone):
                    break
            t = nxt
        else:
            raise DivergentSeries(
                f"truncation rule not certified within {terms_max} terms"
            )
        tail = abs(mp.make_mpf(nxt)) / (1 - mp.make_mpf(abs_r))
        # Add the rounding floor: partial sums peak at ~10^peak, so the
        # summation noise sits near 10^(peak - dps).
        err = tail + mp.mpf(10) ** (int(peak) + 5 - dps)
        return SeriesValue(+mp.make_mpf(s), +err, n)


def q_derivative(f: Callable, x, q):
    """q-difference quotient (f(x) - f(qx)) / ((1-q) x), at the caller's
    precision."""
    x, q = _arg("x", x), _arg("q", q)
    if x == 0:
        raise ZeroArgument("q_derivative is undefined at x = 0")
    return (_arg("f(x)", f(x)) - _arg("f(x)", f(q * x))) / ((1 - q) * x)


def q_derivative_inv(f: Callable, x, q):
    """Inverse-base difference quotient (f(x) - f(x/q)) / ((1 - 1/q) x), at
    the caller's precision."""
    x, q = _arg("x", x), _arg("q", q)
    if x == 0:
        raise ZeroArgument("q_derivative_inv is undefined at x = 0")
    return (_arg("f(x)", f(x)) - _arg("f(x)", f(x / q))) / ((1 - 1 / q) * x)


def q_integral(f: Callable, a, q, tol: float = DEFAULT_TOL) -> SeriesValue:
    """Jackson q-integral (1-q) a sum_n f(a q^n) q^n over [0, a], with the
    tail rule of jackson_sum, at the caller's precision."""
    a, q = _arg("a", a), _arg("q", q)
    return jackson_sum(lambda n: _arg("f(x)", f(a * q**n)), a, q, _tol(tol))


def jackson_sum(
    sample: Callable[[int], mp.mpf], a, q, tol: float = DEFAULT_TOL
) -> SeriesValue:
    """(1-q) a sum_n sample(n) q^n, where sample(n) = f(a q^n), over at
    most 10 * TERMS_MAX lattice points.

    The tail is bounded by a*q^(N+1)*sup|f|, with sup|f| estimated as twice
    the max over the first 64 lattice points; the estimate is enlarged on
    the fly if later samples exceed it, which keeps the bound honest.  The
    sum is taken at the caller's precision; tol sets only where it stops.
    The public entry converts a, q and the samples and checks tol.
    """
    if a <= 0:
        raise NonPositiveUpperLimit(f"upper limit must be positive; got {a}")
    head = [sample(n) for n in range(64)]
    sup = 2 * max(abs(v) for v in head)
    s = mp.mpf(0)
    n = 0
    while n < 10 * TERMS_MAX:
        fv = head[n] if n < 64 else sample(n)
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
