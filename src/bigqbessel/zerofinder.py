"""Location of the ordered positive zeros of lambda -> J_alpha(1, lambda; q^2),
the zeros on the unit lattice {q^k} of [0, 1].

The scan runs in z = lambda^2 on a geometric grid z_m = Z_START * rho^m
(rho = q^(-1/2)): the zeros spread multiplicatively, so geometric stepping
keeps roughly O(1) zeros per step.  Each step is cut into SUBDIVISIONS
sub-brackets, and each sub-bracket with a sign change is cut once more, to
guard against sign-change pairs hiding inside one step; every sign-change
bracket is narrowed by bisection and polished by Newton steps in z using
the term-wise derivative.  No scan of z < 0 is needed: every series term is
positive there, so the function is >= 1 on the whole negative z-axis.

The scan needs only the sign of J at each grid point.  bqbessel._j_sign
sums the series in doubles and returns the sign when the sum exceeds an
a-priori bound on its error; only where it cannot (near a zero, or where
the terms cancel too much for doubles) does the scan evaluate J with
eval_J.  A certified sign is the sign of J, which eval_J's value also has
wherever |J| exceeds eval_J's error, so the scan builds the brackets that
evaluating J at every point builds.  The step multipliers
rho^(i/SUBDIVISIONS) are taken once per table; only the cut of a
sign-change sub-bracket takes new real powers.

refine_zero reads only the signs of J at the two bracket ends and the
decade of the larger |J|, which sets its working precision.  Each end's
value is the same double sum (_certified_end) where its error bound and
eval_J's certify both, and eval_J's value elsewhere, so the refined bits
are those of evaluating both ends with eval_J.  refine_zero returns J at
its zero, from its last Newton step, and find_zeros keeps it as the
residual.  The scan, and refine_zero's logs, run at mpmath's default 53
bits, so a table does not depend on the caller's precision.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
import math
from typing import List, Tuple

import mpmath as mp
from mpmath.libmp import from_float

from .defaults import (
    RESIDUAL_TOL,
    RHO_EXPONENT,
    SCAN_MAX_STEPS,
    SIMPLICITY_FLOOR,
    SUBDIVISIONS,
    Z_START,
)
from .bqbessel import _j_sign, _j_sum, eval_dJ_dz, eval_J
from .errors import BracketingFailure, InvalidArgument, NoSignChange
from .qcalc import QContext, _arg, _fields, _integer, _numbers, _order, _tol

__all__ = ["ZeroTable", "find_zeros", "refine_zero"]


@dataclass(frozen=True)
class ZeroTable:
    """Ordered positive zeros j_1 < j_2 < ... of lambda -> J_alpha(1, .; q^2),
    with the lambda-derivative and the residual |J| at each zero."""

    q: float
    alpha: float
    zeros: List[mp.mpf] = field(default_factory=list)
    derivs: List[mp.mpf] = field(default_factory=list)
    residuals: List[mp.mpf] = field(default_factory=list)

    def __post_init__(self) -> None:
        _arg("q", self.q)
        _arg("alpha", self.alpha)
        for name in ("zeros", "derivs", "residuals"):
            object.__setattr__(self, name, _numbers(name, getattr(self, name)))
        n = len(self.zeros)
        if len(self.derivs) != n or len(self.residuals) != n:
            raise InvalidArgument(
                "zeros, derivs, residuals must have equal length"
            )
        for a, b in zip(self.zeros, self.zeros[1:]):
            if not a < b:
                raise InvalidArgument("zeros must be strictly increasing")
        if any(z <= 0 for z in self.zeros):
            raise InvalidArgument("zeros must be positive")
        if any(d == 0 for d in self.derivs):  # the sampling kernel's divisor
            raise InvalidArgument("derivs must be nonzero")

    def __len__(self) -> int:
        return len(self.zeros)

    def head(self, n: int) -> "ZeroTable":
        """The sub-table of the first n zeros (for truncation studies): n
        is an int >= 0, and an n past the last zero takes them all."""
        n = _integer("n", n, 0)
        return ZeroTable(
            self.q,
            self.alpha,
            self.zeros[:n],
            self.derivs[:n],
            self.residuals[:n],
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ZeroTable":
        q, alpha, *lists = _fields(
            d, ("q", "alpha", "zeros", "derivs", "residuals")
        )
        return cls(float(_arg("q", q)), float(_arg("alpha", alpha)), *lists)


def _g(ctx: QContext, alpha, z, eval_tol):
    return eval_J(ctx, alpha, 1, z, tol=eval_tol).value


def _eval_tol(tol) -> float:
    """The tolerance of the J evaluations behind a residual target tol,
    once _tol accepts it."""
    return min(_tol(tol) * 1e-4, 1e-16)


# Relative margin of the decade bands of _certified_end: it covers the
# rounding of refine_zero's log10 at 53 bits (1 ulp of a value below 310,
# under 7e-14) and of the float band test.
_DECADE_MARGIN = 1e-9


def _certified_end(alpha, z, q) -> mp.mpf | None:
    """J_alpha(1, sqrt(z); q^2) as the double sum S of bqbessel._j_sum
    where S certifies all that refine_zero reads of eval_J's value V at a
    bracket end: its sign (so V != 0) and int(log10(max(|V|, 1))) at 53
    bits.  Else None; S itself is never 0.

    V lies within E + e of S.  |J - S| <= E (_j_sum).  eval_J at refine's
    tol (_eval_tol, at most 1e-16) stops at a term with |t_n| <=
    tol max(1, |V|) and |r(n)| < 1; the later ratios fall by q^2 per term
    (bqbessel._j_ratio), so the terms after t_n sum to at most
    |t_n| / (1 - q^2), and its rounding floor adds at most
    tol 10^(6 - GUARD_DIGITS).  The factor 4
    of e = 4e-16 (1/(1 - q^2) + 1) max(1, |S| + E) covers
    max(1, |V|) <= 2 max(1, |S| + E) and the rounding of S, E and e.  S
    is certified when [|S| - E - e, |S| + E + e] excludes 0 and lies
    below 1 - delta, where V's decade is 0, or inside one band
    [10^d (1 + delta), 10^(d+1) (1 - delta)], d >= 0, where it is d;
    delta = _DECADE_MARGIN."""
    se = _j_sum(alpha, z, q)
    if se is None:
        return None
    s, err = se
    qf = float(q)
    err += 4e-16 * (1 / (1 - qf * qf) + 1) * max(1.0, abs(s) + err)
    lo, hi = abs(s) - err, abs(s) + err
    if not lo > 0:
        return None
    if not hi < 1 - _DECADE_MARGIN:
        p = 10.0 ** math.floor(math.log10(lo))
        if not (
            p * (1 + _DECADE_MARGIN) <= lo
            and hi <= 10 * p * (1 - _DECADE_MARGIN)
        ):
            return None
    return mp.make_mpf(from_float(s))


def refine_zero(
    ctx: QContext, alpha, z_lo, z_hi, tol: float = RESIDUAL_TOL
) -> Tuple[mp.mpf, mp.mpf, mp.mpf]:
    """Refine one bracket [z_lo, z_hi] with g(z_lo) g(z_hi) < 0, where
    g(z) = J_alpha(1, sqrt(z); q^2), to a zero z* with |g(z*)| <= tol;
    returns (z*, dJ/dlambda at lambda = sqrt(z*), g(z*)).  g(z*) is the
    value of the last Newton step, or of the bracket end where g is 0.

    Bisection narrows the bracket to a safe relative width, then Newton in
    z polishes; each Newton iterate is kept inside the current bracket
    (falling back to bisection when it escapes), so the sign change is
    preserved throughout.  Of the two end values only their signs and the
    decade of the larger are read, so each is the double sum where
    _certified_end certifies both, and eval_J's value elsewhere.
    """
    alpha = _order(alpha, -1)
    z_lo, z_hi = _arg("z_lo", z_lo), _arg("z_hi", z_hi)
    eval_tol = _eval_tol(tol)
    g_lo = _certified_end(alpha, z_lo, ctx.q) or _g(ctx, alpha, z_lo, eval_tol)
    g_hi = _certified_end(alpha, z_hi, ctx.q) or _g(ctx, alpha, z_hi, eval_tol)
    # Near large zeros the slope |dg/dz| is huge, so meeting an absolute
    # residual target on |g| requires the iterate itself to carry far more
    # digits than the residual suggests: |g| ~ |g'| dz, so the working
    # precision must cover log10(function scale / tol) relative to z.  The
    # logs are taken at 53 bits, as find_zeros runs them, so the caller's
    # precision does not move a digit.
    gscale = max(abs(g_lo), abs(g_hi), mp.mpf(1))
    with mp.workprec(53):
        dps = (
            int(mp.log(gscale, 10))
            + int(mp.log(max(z_hi, mp.mpf(1)), 10))
            + int(-mp.log(tol, 10))
            + 40
        )
    with mp.workdps(max(30, dps)):
        z_lo = +z_lo
        z_hi = +z_hi
        if g_lo == 0:
            z, gv = z_lo, g_lo
        elif g_hi == 0:
            z, gv = z_hi, g_hi
        elif g_lo * g_hi > 0:
            raise NoSignChange(
                f"no sign change on [{mp.nstr(z_lo)}, {mp.nstr(z_hi)}]"
            )
        else:
            # Bisection to a relative width where Newton is safe.
            while (z_hi - z_lo) > mp.mpf("0.05") * z_lo:
                z_mid = (z_lo + z_hi) / 2
                g_mid = _g(ctx, alpha, z_mid, eval_tol)
                if g_mid == 0:
                    break
                if g_lo * g_mid < 0:
                    z_hi, g_hi = z_mid, g_mid
                else:
                    z_lo, g_lo = z_mid, g_mid
            z = (z_lo + z_hi) / 2
            for _ in range(200):
                gv = _g(ctx, alpha, z, eval_tol)
                if abs(gv) <= tol:
                    break
                gp = eval_dJ_dz(ctx, alpha, 1, z, tol=eval_tol).value
                step = gv / gp
                z_new = z - step
                if not (z_lo < z_new < z_hi):
                    # Newton escaped the bracket: bisect instead.
                    if gv * g_lo < 0:
                        z_hi, g_hi = z, gv
                    else:
                        z_lo, g_lo = z, gv
                    z_new = (z_lo + z_hi) / 2
                z = z_new
            else:
                raise BracketingFailure(
                    "Newton polish failed to reach the residual target"
                )
        deriv = (
            2 * mp.sqrt(z) * eval_dJ_dz(ctx, alpha, 1, z, tol=eval_tol).value
        )
        return +z, +deriv, gv


def _geometric(z, ratio) -> List[mp.mpf]:
    """SUBDIVISIONS + 1 geometric points from z to z * ratio."""
    return [
        z * ratio ** (mp.mpf(i) / SUBDIVISIONS) for i in range(SUBDIVISIONS + 1)
    ]


def find_zeros(
    ctx: QContext, alpha, count: int, tol: float = RESIDUAL_TOL
) -> ZeroTable:
    """First `count` positive zeros (in lambda) of J_alpha(1, lambda; q^2).

    tol is the absolute residual target on |J| at each accepted zero.  The
    scan starts at z = Z_START, steps by rho = q^RHO_EXPONENT and stops
    with BracketingFailure after SCAN_MAX_STEPS steps (about 4 000 zeros,
    since rho^4 = q^-2).  A zero whose |lambda dJ/dlambda| is below
    SIMPLICITY_FLOOR is not accepted as simple.  The floor is set on
    lambda dJ/dlambda, not on dJ/dlambda: at large alpha or tiny q the
    first zero lies far out (j_1 = 1.5e15 at q = 1/2, alpha = 50), where
    lambda dJ/dlambda is still near -2 but dJ/dlambda falls like 1/lambda.
    """
    am = _order(alpha, -0.5)  # the zero ordering needs alpha > -1/2
    count = _integer("count", count)
    eval_tol = _eval_tol(tol)
    with mp.workprec(53):
        q = _arg("q", ctx.q)
        rho = q ** RHO_EXPONENT
        zeros: List[mp.mpf] = []
        derivs: List[mp.mpf] = []
        residuals: List[mp.mpf] = []

        def sign(z):
            # the certified sign where the double sum gives one, else J
            # (alpha as passed: _j_sign checks a float fastest)
            return _j_sign(alpha, z, ctx.q) or _g(ctx, am, z, eval_tol)

        # the multipliers rho^(i/SUBDIVISIONS) of every step, taken once:
        # z_lo times them are the points _geometric(z_lo, rho) gives
        step = _geometric(mp.mpf(1), rho)
        z_lo = mp.mpf(Z_START)
        g_lo = sign(z_lo)
        for _ in range(SCAN_MAX_STEPS):
            z_hi = z_lo * rho
            sub_z = [z_lo * m for m in step]
            sub_g = [g_lo] + [sign(z) for z in sub_z[1:]]
            brackets = []
            for i in range(SUBDIVISIONS):
                if sub_g[i] * sub_g[i + 1] < 0:
                    # Cut the sign change once more to catch a hidden pair.
                    cut_z = _geometric(sub_z[i], sub_z[i + 1] / sub_z[i])
                    cut_g = (
                        [sub_g[i]]
                        + [sign(z) for z in cut_z[1:-1]]
                        + [sub_g[i + 1]]
                    )
                    inner = [
                        (cut_z[k], cut_z[k + 1])
                        for k in range(SUBDIVISIONS)
                        if cut_g[k] * cut_g[k + 1] < 0
                    ]
                    brackets.extend(inner or [(sub_z[i], sub_z[i + 1])])
            for zl, zr in brackets:
                z_star, deriv, g_star = refine_zero(ctx, am, zl, zr, tol)
                # Take the square root at (at least) the precision the
                # refined root carries, not at the scan's 53 bits.
                root_prec = max(mp.mp.prec, z_star._mpf_[1].bit_length() + 10)
                with mp.workprec(root_prec):
                    lam_star = mp.sqrt(z_star)
                if abs(lam_star * deriv) < SIMPLICITY_FLOOR:
                    raise BracketingFailure(
                        f"lambda dJ/dlambda = {mp.nstr(lam_star * deriv)} "
                        "below the simplicity floor at z = "
                        f"{mp.nstr(z_star)}"
                    )
                zeros.append(lam_star)
                derivs.append(deriv)
                residuals.append(abs(g_star))
                if len(zeros) == count:
                    return ZeroTable(
                        float(ctx.q), float(am), zeros, derivs, residuals
                    )
            z_lo, g_lo = z_hi, sub_g[-1]
        raise BracketingFailure(
            f"scan ceiling of {SCAN_MAX_STEPS} steps reached with only "
            f"{len(zeros)} of {count} zeros bracketed"
        )
