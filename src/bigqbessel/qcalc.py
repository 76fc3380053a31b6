"""q-calculus primitives.

Infinite q-product ratios, q-derivatives, the Jackson q-integral, and
sum_series, which sums the J series: it stops at index k once
|term_k| <= tol*max(1, |S|) and the next term ratio has |r(k)| < 1, and
reports the tail bound |term_{k+1}|/(1-|r(k)|), proved beside
bqbessel._j_ratio.  sum_series is two passes and the tail: a float pass
(_float_pass) that fixes the working precision, and an exact pass
(_exact_pass) that works on mpmath's raw _mpf_ tuples with the
mpmath.libmp functions that mpf arithmetic calls, at the same precision
and rounding, so every value and every stop decision is the one the same
loop on mpf objects gives (tests/oracles.py keeps that loop).  The binary
exponents of a term and of the sum decide most stop tests without the mpf
comparison: where they show |term| > tol*max(1, |S|), the mpf test could
only say the same.  The lattice's column kernel (bqbessel._j_column) runs
the same two passes without the tail.

Every public entry of L0-L3 passes its caller's arguments through six
gates before any work: _arg converts each number exactly and _numbers
each entry of a list, _base also refuses a base q outside (0, 1), _order
an order alpha at or below the entry's floor, _tol checks a tol and
_integer a count.  Each raises a typed error that names the argument as
passed.  The two file-document readers take their fields through _fields.
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
from .errors import DivergentSeries, InvalidArgument, InvalidOrder

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
        _base(self.q)


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


def _numbers(name: str, v) -> list:
    """The entries of the caller's list v, each converted by _arg; a v
    that is not iterable raises InvalidArgument naming the argument."""
    try:
        entries = iter(v)
    except TypeError:
        raise InvalidArgument(
            f"{name} must be a list of numbers; got {type(v).__name__} {v!r}"
        ) from None
    return [_arg(name, e) for e in entries]


def _fields(d, names) -> list:
    """The values of the named fields of the document d, in order; a d
    that is not an object (a dict), or that lacks one of the fields,
    raises InvalidArgument saying so."""
    if not isinstance(d, dict):
        raise InvalidArgument(
            f"document must be an object; got {type(d).__name__}"
        )
    for name in names:
        if name not in d:
            raise InvalidArgument(f"document lacks the field {name}")
    return [d[name] for name in names]


def _base(q) -> mp.mpf:
    """The base q converted by _arg; InvalidArgument unless 0 < q < 1."""
    qm = _arg("q", q)
    if not 0 < qm < 1:
        raise InvalidArgument(f"q must lie strictly in (0, 1); got {q}")
    return qm


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
    only the truncation.  x2 >= 0: every factor is then at least 1.
    """
    x2, q = _arg("x2", x2), _base(q)
    if x2 < 0:
        raise InvalidArgument(f"x2 must be >= 0; got {x2}")
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


# Bits by which _exact_pass's exponent pre-test keeps clear of the stop bound.
_STOP_MARGIN_BITS = 2


def sum_series(
    log_term0: float,
    log_ratio: Callable[[int], float],
    mp_term0: Callable[[], tuple],
    mp_ratio: Callable[[int], tuple],
    tol: float,
    terms_max: int = TERMS_MAX,
) -> SeriesValue:
    """Adaptive-precision summation engine of the J series and dJ/dz.

    A cheap float pass over log10 term magnitudes (_float_pass) estimates
    the peak term, which fixes the working precision (the series alternate
    in sign, and the peak can exceed the sum by hundreds of digits).  The
    exact pass (_exact_pass) then applies the truncation rule of the
    module docstring at that precision, with mp_term0() as its first term
    and mp_ratio(k) as r(k), each a raw _mpf_ tuple computed at that
    precision and rounding.  The tail bound, the rounding floor and the
    result are mpf.  tol and terms_max come checked from the public entry
    (_tol, _integer).
    """
    digs = _digits(tol)
    peak, dps = _float_pass(log_term0, log_ratio, digs, terms_max)
    with mp.workdps(dps):
        s, n, nxt, abs_r = _exact_pass(mp_term0(), mp_ratio, tol, terms_max)
        tail = abs(mp.make_mpf(nxt)) / (1 - mp.make_mpf(abs_r))
        # Add the rounding floor: partial sums peak at ~10^peak, so the
        # summation noise sits near 10^(peak - dps).
        err = tail + mp.mpf(10) ** (int(peak) + 5 - dps)
        return SeriesValue(+mp.make_mpf(s), +err, n)


def _digits(tol) -> float:
    """The decimal digits that tol asks of sum_series, at least 1."""
    return max(1.0, -_log10_abs(tol))


def _float_pass(
    log_term0: float,
    log_ratio: Callable[[int], float],
    digs: float,
    terms_max: int,
) -> tuple[float, int]:
    """(peak, dps): the largest log10|term| (at least 0) over the terms
    t_0 = 10^log_term0, t_(k+1) = t_k 10^log_ratio(k) up to the first one
    that falls, on a falling ratio, below 10^-(digs + 10), and the working
    decimal digits that peak and digs = _digits(tol) fix."""
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
    return peak, max(MIN_DPS, int(peak + digs) + GUARD_DIGITS)


def _exact_pass(
    t: tuple, mp_ratio: Callable[[int], tuple], tol, terms_max: int
) -> tuple:
    """(s, n, nxt, |r|) of the loop

        s = 0
        s += t; r = r(n); nxt = t r
        stop if |t| <= tol max(1, |s|) and |r| < 1, else t = nxt

    from the first term t, with r(n) = mp_ratio(n), on raw _mpf_ tuples at
    mpmath's current precision and rounding: s is the sum of the n terms
    summed, nxt the next term and |r| that of the last ratio.  Each step
    is the mpmath.libmp operation that mpf arithmetic performs, on the
    same operands in the same order at the same precision and rounding,
    so every value is that of the loop on mpf objects bit for bit.

    Exponent pre-test.  With mag(v) = e + bc for v = m 2^e, m of bc
    bits, a term t != 0 has |t| >= 2^(mag(t) - 1), and rounding |t| to
    the working precision keeps that power of 2 as a floor.  The bound
    tol max(1, |s|) is tol (tol * 1 rounded, no larger than 2^mag(tol))
    while |s| <= 1, and tol |s| rounded while |s| > 1, where mag(s) >= 1
    and the product lies below 2^(mag(tol) + mag(s)); rounding keeps
    that power as a ceiling.  So whenever
    mag(t) - 1 > mag(tol) + _STOP_MARGIN_BITS + max(0, mag(s)), |t|
    exceeds the bound and the mpf test would go on to the next term;
    the loop goes on without it.  Every other term, and t = 0, takes the
    mpf test, so each stop decision, and with it n, is the mpf loop's.
    """
    prec, rnd = mp.mp._prec_rounding
    # tol max(1, |s|) as mpmath evaluates it: tol times |s| while |s| > 1,
    # with tol converted exactly as a right-hand operand; else tol * 1,
    # which is tol for a float or an int and tol rounded to the working
    # precision for an mpf.
    tol_m = mp.mpf.mpf_convert_rhs(tol)
    tol_1 = mp.mpf.mpf_convert_rhs(tol * 1)
    # the exponent pre-test of the docstring: mag(tol) and its margin
    mag_tol = tol_m[2] + tol_m[3] + _STOP_MARGIN_BITS
    s = fzero
    n = 0
    while n < terms_max:
        s = mpf_add(s, t, prec, rnd)
        r = mp_ratio(n)
        n += 1
        nxt = mpf_mul(t, r, prec, rnd)
        if t[1] and t[2] + t[3] - 1 > mag_tol + max(0, s[2] + s[3]):
            t = nxt  # |t| > tol max(1, |s|)
            continue
        abs_s = mpf_abs(s, prec, rnd)
        bound = (
            mpf_mul(tol_m, abs_s, prec, rnd)
            if mpf_gt(abs_s, fone)
            else tol_1
        )
        if mpf_le(mpf_abs(t, prec, rnd), bound):
            abs_r = mpf_abs(r, prec, rnd)
            if mpf_lt(abs_r, fone):
                return s, n, nxt, abs_r
        t = nxt
    raise DivergentSeries(
        f"truncation rule not certified within {terms_max} terms"
    )


def q_derivative(f: Callable, x, q):
    """q-difference quotient (f(x) - f(qx)) / ((1-q) x), at the caller's
    precision."""
    x, q = _arg("x", x), _base(q)
    if x == 0:
        raise InvalidArgument("q_derivative is undefined at x = 0")
    return (_arg("f(x)", f(x)) - _arg("f(x)", f(q * x))) / ((1 - q) * x)


def q_derivative_inv(f: Callable, x, q):
    """Inverse-base difference quotient (f(x) - f(x/q)) / ((1 - 1/q) x), at
    the caller's precision."""
    x, q = _arg("x", x), _base(q)
    if x == 0:
        raise InvalidArgument("q_derivative_inv is undefined at x = 0")
    return (_arg("f(x)", f(x)) - _arg("f(x)", f(x / q))) / ((1 - 1 / q) * x)


def q_integral(f: Callable, a, q, tol: float = DEFAULT_TOL) -> SeriesValue:
    """Jackson q-integral (1-q) a sum_n f(a q^n) q^n over [0, a], with the
    tail rule of jackson_sum, at the caller's precision."""
    a, q = _arg("a", a), _base(q)
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
    q^n is taken once per point n and serves both the tail after point
    n - 1 and the term of point n.
    The public entry converts a, q and the samples and checks tol.
    """
    if a <= 0:
        raise InvalidArgument(f"upper limit a must be positive; got {a}")
    head = [sample(n) for n in range(64)]
    sup = 2 * max(abs(v) for v in head)
    s = mp.mpf(0)
    n = 0
    qn = q**n  # q^n, taken once per point
    while n < 10 * TERMS_MAX:
        fv = head[n] if n < 64 else sample(n)
        if abs(fv) > sup:
            sup = 2 * abs(fv)
        s += fv * qn
        n += 1
        qn = q**n
        tail = a * qn * sup
        if tail < tol:
            break
    else:
        raise DivergentSeries("Jackson sum tail bound not reached")
    return SeriesValue((1 - q) * a * s, (1 - q) * tail, n)
