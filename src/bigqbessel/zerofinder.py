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
evaluating J at every point builds.  refine_zero returns J at its zero,
from its last Newton step, and find_zeros keeps it as the residual.  The
scan runs at mpmath's default 53 bits, so a table does not depend on the
caller's precision.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Tuple

import mpmath as mp

from .defaults import (
    RESIDUAL_TOL,
    RHO_EXPONENT,
    SCAN_MAX_STEPS,
    SIMPLICITY_FLOOR,
    SUBDIVISIONS,
    Z_START,
)
from .bqbessel import _j_sign, eval_dJ_dz, eval_J
from .errors import BracketingFailure, InvalidArgument, NoSignChange
from .qcalc import QContext, _arg, _integer, _order, _tol

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
        n = len(self.zeros)
        if len(self.derivs) != n or len(self.residuals) != n:
            raise InvalidArgument(
                "zeros, derivs, residuals must have equal length"
            )
        for name in ("zeros", "derivs", "residuals"):
            entries = [_arg(name, v) for v in getattr(self, name)]
            object.__setattr__(self, name, entries)
        for a, b in zip(self.zeros, self.zeros[1:]):
            if not a < b:
                raise InvalidArgument("zeros must be strictly increasing")
        if any(z <= 0 for z in self.zeros):
            raise InvalidArgument("zeros must be positive")

    def __len__(self) -> int:
        return len(self.zeros)

    def head(self, n: int) -> "ZeroTable":
        """The sub-table of the first n zeros (for truncation studies)."""
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
        q, alpha = (float(_arg(name, d[name])) for name in ("q", "alpha"))
        return cls(q, alpha, d["zeros"], d["derivs"], d["residuals"])


def _g(ctx: QContext, alpha, z, eval_tol):
    return eval_J(ctx, alpha, 1, z, tol=eval_tol).value


def _eval_tol(tol) -> float:
    """The tolerance of the J evaluations behind a residual target tol,
    once _tol accepts it."""
    return min(_tol(tol) * 1e-4, 1e-16)


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
    preserved throughout.
    """
    alpha = _order(alpha, -1)
    z_lo, z_hi = _arg("z_lo", z_lo), _arg("z_hi", z_hi)
    eval_tol = _eval_tol(tol)
    g_lo = _g(ctx, alpha, z_lo, eval_tol)
    g_hi = _g(ctx, alpha, z_hi, eval_tol)
    # Near large zeros the slope |dg/dz| is huge, so meeting an absolute
    # residual target on |g| requires the iterate itself to carry far more
    # digits than the residual suggests: |g| ~ |g'| dz, so the working
    # precision must cover log10(function scale / tol) relative to z.
    gscale = max(abs(g_lo), abs(g_hi), mp.mpf(1))
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
    ctx: QContext,
    alpha,
    count: int,
    tol: float = RESIDUAL_TOL,
    rho: float | None = None,
    max_steps: int = SCAN_MAX_STEPS,
) -> ZeroTable:
    """First `count` positive zeros (in lambda) of J_alpha(1, lambda; q^2).

    tol is the absolute residual target on |J| at each accepted zero.  The
    scan starts at z = Z_START and steps by rho = q^RHO_EXPONENT unless rho
    (> 1) is given; a zero whose |dJ/dlambda| is below SIMPLICITY_FLOOR is not
    accepted as simple.
    """
    am = _order(alpha, -0.5)  # the zero ordering needs alpha > -1/2
    count = _integer("count", count)
    max_steps = _integer("max_steps", max_steps)
    eval_tol = _eval_tol(tol)
    with mp.workprec(53):
        q = _arg("q", ctx.q)
        rho_m = q ** RHO_EXPONENT if rho is None else _arg("rho", rho)
        if not rho_m > 1:  # the scan steps up in z
            raise InvalidArgument(f"rho must exceed 1; got {rho}")
        zeros: List[mp.mpf] = []
        derivs: List[mp.mpf] = []
        residuals: List[mp.mpf] = []

        def sign(z):
            # the certified sign where the double sum gives one, else J
            # (alpha as passed: _j_sign checks a float fastest)
            return _j_sign(alpha, z, ctx.q) or _g(ctx, am, z, eval_tol)

        z_lo = mp.mpf(Z_START)
        g_lo = sign(z_lo)
        steps = 0
        while len(zeros) < count:
            if steps >= max_steps:
                raise BracketingFailure(
                    f"scan ceiling of {max_steps} steps reached with only "
                    f"{len(zeros)} of {count} zeros bracketed; raise the "
                    "ceiling"
                )
            z_hi = z_lo * rho_m
            sub_z = _geometric(z_lo, rho_m)
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
                if abs(deriv) < SIMPLICITY_FLOOR:
                    raise BracketingFailure(
                        f"derivative {mp.nstr(deriv)} below the simplicity "
                        f"floor at z = {mp.nstr(z_star)}"
                    )
                # Take the square root at (at least) the precision the
                # refined root carries, not at the scan's 53 bits.
                root_prec = max(mp.mp.prec, z_star._mpf_[1].bit_length() + 10)
                with mp.workprec(root_prec):
                    lam_star = mp.sqrt(z_star)
                zeros.append(lam_star)
                derivs.append(deriv)
                residuals.append(abs(g_star))
                if len(zeros) == count:
                    break
            z_lo, g_lo = z_hi, sub_g[-1]
            steps += 1
        return ZeroTable(float(ctx.q), float(am), zeros, derivs, residuals)
