"""Independent reference values for the benchmark's output checks.

The big q-Bessel series is summed here straight from its product form

    J_alpha(x, lambda; q^2) = sum_k (-1)^k q^(k(k-1) + 2k(alpha+1)) P_k(x) z^k
                              / ((q^2; q^2)_k (q^(2alpha+2); q^2)_k),

    P_k(x) = prod_{j<k} (x^2 + q^(2j)),   z = lambda^2,

with numerator and denominator products kept apart; nothing in the
package's series engine is used.  Terms can peak far above the sum (about
10^225 at q=0.95, x=2, z=1e4), so the working precision is set from the
peak term magnitude, and a value is accepted only when two precisions
agree.
"""

from __future__ import annotations

import mpmath as mp

TERMS_CAP = 20_000


class Unsettled(Exception):
    """The reference did not settle at any precision tried."""


def _terms(alpha, x, z, q, dps):
    """Yield (k, t_k) of the J series at `dps` digits."""
    with mp.workdps(dps):
        q2 = mp.mpf(q) ** 2
        a = q2 ** (mp.mpf(alpha) + 1)
        x2 = mp.mpf(x) ** 2
        z = mp.mpf(z)
        p = poch_q = poch_a = mp.mpf(1)
        for k in range(TERMS_CAP):
            sign = -1 if k % 2 else 1
            t = sign * q2 ** (k * (k - 1) // 2) * a**k * p * z**k / (poch_q * poch_a)
            yield k, t
            p *= x2 + q2**k
            poch_q *= 1 - q2 ** (k + 1)
            poch_a *= 1 - a * q2**k


def _sum(alpha, x, z, q, dps, derivative):
    """Sum of the J series (or its term-wise z-derivative) at `dps` digits,
    and log10 of the largest term."""
    eps = mp.mpf(10) ** (-dps)
    with mp.workdps(dps):
        s = mp.mpf(0)
        peak = mp.mpf(0)
        last = None
        for k, t in _terms(alpha, x, z, q, dps):
            if derivative:
                t = k * t / z
            s += t
            mag = abs(t)
            peak = max(peak, mag)
            # Past the peak the term ratios shrink like q^(2k), so a term
            # below eps * max(1, |s|, peak) that is smaller than its
            # predecessor ends the sum.
            if k > 2 and last is not None and mag < last and mag <= eps * max(1, abs(s), peak):
                break
            last = mag
        else:
            raise Unsettled("term cap reached")
        return +s, (float(mp.log10(peak)) if peak > 0 else 0.0)


def series(alpha, x, z, q, abs_error, derivative=False):
    """Reference J (or dJ/dz) accurate well below abs_error.

    The working precision covers the peak term plus the digits of
    abs_error relative to it; the value is accepted once two precisions
    20 digits apart agree to abs_error / 100."""
    _, peak = _sum(alpha, x, z, q, 30, derivative)
    goal = float(-mp.log10(abs_error)) if abs_error > 0 else 60.0
    dps = max(40, int(peak + max(goal, 0)) + 20)
    for _ in range(4):
        lo, _ = _sum(alpha, x, z, q, dps, derivative)
        hi, _ = _sum(alpha, x, z, q, dps + 20, derivative)
        if abs(hi - lo) <= abs_error / 100:
            return hi, abs(hi - lo)
        dps += 40
    raise Unsettled(f"no agreement at q={q}, alpha={alpha}, x={x}, z={z}")
