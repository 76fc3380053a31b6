"""Location of the ordered positive zeros of lambda -> J_alpha(1, lambda; q^2).

The scan runs in z = lambda^2 on a geometric grid z_m = z_start * rho^m
(rho = q^(-1/2)): the zeros spread multiplicatively, so geometric stepping
keeps roughly O(1) zeros per step.  Each step is cut into sub-brackets to
guard against sign-change pairs hiding inside one step; every sign-change
bracket is narrowed by bisection and polished by Newton steps in z using
the term-wise derivative.  No scan of z < 0 is needed: every series term is
positive there, so the function is >= 1 on the whole negative z-axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .bqbessel import eval_dJ_dz, eval_J
from .errors import BracketingFailure, InvalidOrder, NoSignChange
from .qcalc import QContext

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
        n = len(self.zeros)
        if len(self.derivs) != n or len(self.residuals) != n:
            raise ValueError("zeros, derivs, residuals must have equal length")
        for a, b in zip(self.zeros, self.zeros[1:]):
            if not a < b:
                raise ValueError("zeros must be strictly increasing")
        if any(z <= 0 for z in self.zeros):
            raise ValueError("zeros must be positive")

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
        return {
            "q": self.q,
            "alpha": self.alpha,
            "zeros": list(self.zeros),
            "derivs": list(self.derivs),
            "residuals": list(self.residuals),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ZeroTable":
        return cls(
            q=float(d["q"]),
            alpha=float(d["alpha"]),
            zeros=[mp.mpf(v) for v in d["zeros"]],
            derivs=[mp.mpf(v) for v in d["derivs"]],
            residuals=[mp.mpf(v) for v in d["residuals"]],
        )


def _g(ctx: QContext, alpha, a, z, eval_tol):
    return eval_J(ctx, alpha, a, z, tol=eval_tol).value


def refine_zero(
    ctx: QContext,
    alpha,
    z_lo,
    z_hi,
    tol: float = RESIDUAL_TOL,
    a: float = 1.0,
) -> Tuple[mp.mpf, mp.mpf]:
    """Refine one bracket [z_lo, z_hi] with g(z_lo) g(z_hi) < 0 to a zero
    z* with |g(z*)| <= tol; returns (z*, dJ/dlambda at lambda = sqrt(z*)).

    Bisection narrows the bracket to a safe relative width, then Newton in
    z polishes; each Newton iterate is kept inside the current bracket
    (falling back to bisection when it escapes), so the sign change is
    preserved throughout.
    """
    eval_tol = min(tol * 1e-4, 1e-16)
    z_lo = mp.mpf(z_lo)
    z_hi = mp.mpf(z_hi)
    g_lo = _g(ctx, alpha, a, z_lo, eval_tol)
    g_hi = _g(ctx, alpha, a, z_hi, eval_tol)
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
            z = z_lo
        elif g_hi == 0:
            z = z_hi
        elif g_lo * g_hi > 0:
            raise NoSignChange(
                f"no sign change on [{mp.nstr(z_lo)}, {mp.nstr(z_hi)}]"
            )
        else:
            # Bisection to a relative width where Newton is safe.
            while (z_hi - z_lo) > mp.mpf("0.05") * z_lo:
                z_mid = (z_lo + z_hi) / 2
                g_mid = _g(ctx, alpha, a, z_mid, eval_tol)
                if g_mid == 0:
                    break
                if g_lo * g_mid < 0:
                    z_hi, g_hi = z_mid, g_mid
                else:
                    z_lo, g_lo = z_mid, g_mid
            z = (z_lo + z_hi) / 2
            for _ in range(200):
                gv = _g(ctx, alpha, a, z, eval_tol)
                if abs(gv) <= tol:
                    break
                gp = eval_dJ_dz(ctx, alpha, a, z, tol=eval_tol).value
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
            2 * mp.sqrt(z) * eval_dJ_dz(ctx, alpha, a, z, tol=eval_tol).value
        )
        return +z, +deriv


def _sign_change_brackets(ctx, alpha, a, z_pts, g_pts, eval_tol, depth=0):
    """Sign-change sub-brackets of a partitioned interval; each candidate
    is subdivided once more to catch hidden pairs of changes."""
    out = []
    for (zl, gl), (zr, gr) in zip(
        zip(z_pts, g_pts), zip(z_pts[1:], g_pts[1:])
    ):
        if gl * gr < 0:
            if depth >= 2:
                out.append((zl, zr))
                continue
            sub_z = [
                zl * (zr / zl) ** (mp.mpf(i) / SUBDIVISIONS)
                for i in range(SUBDIVISIONS + 1)
            ]
            sub_g = (
                [gl]
                + [_g(ctx, alpha, a, z, eval_tol) for z in sub_z[1:-1]]
                + [gr]
            )
            inner = _sign_change_brackets(
                ctx, alpha, a, sub_z, sub_g, eval_tol, depth + 1
            )
            out.extend(inner if inner else [(zl, zr)])
    return out


def find_zeros(
    ctx: QContext,
    alpha,
    count: int,
    tol: float = RESIDUAL_TOL,
    a: float = 1.0,
    z_start: float = Z_START,
    rho: float | None = None,
    max_steps: int = SCAN_MAX_STEPS,
    simplicity_floor: float = SIMPLICITY_FLOOR,
) -> ZeroTable:
    """First `count` positive zeros (in lambda) of J_alpha(a, lambda; q^2).

    tol is the absolute residual target on |J| at each accepted zero.
    """
    if alpha <= -0.5:
        raise InvalidOrder(
            f"zero ordering requires alpha > -1/2; got {alpha}"
        )
    if count < 1:
        raise ValueError("count must be at least 1")
    eval_tol = min(tol * 1e-4, 1e-16)
    rho_m = mp.mpf(ctx.q) ** RHO_EXPONENT if rho is None else mp.mpf(rho)
    zeros: List[mp.mpf] = []
    derivs: List[mp.mpf] = []
    residuals: List[mp.mpf] = []
    z_lo = mp.mpf(z_start)
    g_lo = _g(ctx, alpha, a, z_lo, eval_tol)
    steps = 0
    while len(zeros) < count:
        if steps >= max_steps:
            raise BracketingFailure(
                f"scan ceiling of {max_steps} steps reached with only "
                f"{len(zeros)} of {count} zeros bracketed; raise the ceiling"
            )
        z_hi = z_lo * rho_m
        # Cut the step into geometric sub-brackets up front.
        sub_z = [
            z_lo * rho_m ** (mp.mpf(i) / SUBDIVISIONS)
            for i in range(SUBDIVISIONS + 1)
        ]
        sub_g = [g_lo] + [
            _g(ctx, alpha, a, z, eval_tol) for z in sub_z[1:]
        ]
        for zl, zr in _sign_change_brackets(
            ctx, alpha, a, sub_z, sub_g, eval_tol, depth=1
        ):
            z_star, deriv = refine_zero(ctx, alpha, zl, zr, tol, a)
            resid = abs(_g(ctx, alpha, a, z_star, eval_tol))
            if abs(deriv) < simplicity_floor:
                raise BracketingFailure(
                    f"derivative {mp.nstr(deriv)} below the simplicity "
                    f"floor at z = {mp.nstr(z_star)}"
                )
            # Take the square root at (at least) the precision the refined
            # root carries, not at the ambient working precision.
            root_prec = max(mp.mp.prec, z_star._mpf_[1].bit_length() + 10)
            with mp.workprec(root_prec):
                lam_star = mp.sqrt(z_star)
            zeros.append(lam_star)
            derivs.append(deriv)
            residuals.append(resid)
            if len(zeros) == count:
                break
        z_lo, g_lo = z_hi, sub_g[-1]
        steps += 1
    return ZeroTable(float(ctx.q), float(alpha), zeros, derivs, residuals)
