"""Finite big q-Hankel transform and Kramer-type sampling reconstruction.

The transform of a lattice signal f is

    F(lambda) = Int_0^1 w(x) f(x) J_{alpha+1}(x, lambda; q^2) d_q x,

and the reconstruction expands F over the positive zeros j_k of
lambda -> J_alpha(1, lambda; q^2) with the kernel

    S_k(lambda) = 2 j_k J_alpha(1, lambda; q^2)
                  / ((lambda^2 - j_k^2) * dJ_alpha/dlambda |_{j_k}).

This kernel is the partial-fraction (Mittag-Leffler) expansion of
F(lambda)/J_alpha(1, lambda): it interpolates (S_k(j_m) = delta_km holds
by construction since J_alpha(1, j_m) = 0) and the expansion converges
super-exponentially, independently of any orthogonality of the family
{J_{alpha+1}(., j_k)}.  The displayed variant with J_{alpha+1} in place of
J_alpha does not vanish at the sample points and fails the delta-property;
it is restated in tests/oracles.py, where the tests show that it fails.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from typing import List, NamedTuple

import mpmath as mp

from .bqbessel import eval_J
from .defaults import DEFAULT_TOL, KERNEL_POLE_WIDTH
from .errors import AtPole, InvalidArgument
from .orthogonality import QLatticeSignal, _check_table, _lattice
from .qcalc import (
    QContext,
    SeriesValue,
    _arg,
    _integer,
    _numbers,
    _order,
    _workdigits,
)
from .zerofinder import ZeroTable

__all__ = [
    "ReconstructionReport",
    "ClosedSumResult",
    "q_hankel_transform",
    "sampling_kernel",
    "reconstruct",
    "closed_sum_check",
]


def _warn_order(alpha) -> None:
    """Warn for alpha <= -1/2, outside the range the analysis was stated
    for."""
    if alpha <= -0.5:
        warnings.warn(
            "alpha <= -1/2: zero ordering and the underpinning analysis "
            "were only stated for alpha > -1/2",
            stacklevel=3,
        )


@dataclass(frozen=True)
class ReconstructionReport:
    """Direct vs reconstructed transform values over a lambda grid."""

    lambdas: List[mp.mpf]
    direct: List[mp.mpf]
    reconstructed: List[mp.mpf]
    max_rel_err: mp.mpf
    terms: int

    def __post_init__(self) -> None:
        for name in ("lambdas", "direct", "reconstructed"):
            object.__setattr__(self, name, _numbers(name, getattr(self, name)))
        if not (
            len(self.lambdas) == len(self.direct) == len(self.reconstructed)
        ):
            raise InvalidArgument(
                "grid and value lists must have equal length"
            )

    def to_dict(self) -> dict:
        return asdict(self)


class ClosedSumResult(NamedTuple):
    lhs: mp.mpf
    rhs_partial: mp.mpf
    gap: mp.mpf


def q_hankel_transform(
    ctx: QContext,
    alpha,
    f: QLatticeSignal,
    lam,
    tol: float = DEFAULT_TOL,
) -> SeriesValue:
    """Finite big q-Hankel transform of a lattice signal at lambda."""
    alpha, lam = _order(alpha, -1.5), _arg("lam", lam)
    _warn_order(alpha)
    with mp.workdps(_workdigits(tol)):
        lat = _lattice(ctx, alpha, tol)
        return lat.integral(f.values, lat.column(lam * lam))


def _kernel(table: ZeroTable, k: int, lam, z, num):
    """S_k(lambda) from num = J_alpha(1, lambda; q^2) and z = lambda^2."""
    jk = table.zeros[k]
    if abs(abs(lam) - jk) < KERNEL_POLE_WIDTH * jk:
        return 2 * jk / (abs(lam) + jk)
    return 2 * jk * num / ((z - jk * jk) * table.derivs[k])


def sampling_kernel(
    ctx: QContext,
    alpha,
    table: ZeroTable,
    k: int,
    lam,
    tol: float = DEFAULT_TOL,
):
    """Sampling kernel S_k(lambda) for the k-th zero (0-based index).

    Within a relative distance KERNEL_POLE_WIDTH of j_k the removable
    singularity is evaluated by its limit 2 j_k / (lambda + j_k), which
    equals 1 at lambda = j_k (hard switch; the kernel is smooth on that
    scale).
    """
    alpha, lam = _order(alpha, -1), _arg("lam", lam)
    k = _integer("k", k, None)
    _warn_order(alpha)
    if not 0 <= k < len(table):
        raise InvalidArgument(
            f"kernel index k = {k} outside table of {len(table)} zeros"
        )
    _check_table(ctx, alpha, table)
    with mp.workdps(_workdigits(tol)):
        z = lam * lam
        num = eval_J(ctx, alpha, 1, z, tol).value
        return _kernel(table, k, lam, z, num)


def reconstruct(
    ctx: QContext,
    alpha,
    f: QLatticeSignal,
    table: ZeroTable,
    lambdas: List,
    tol: float = DEFAULT_TOL,
) -> ReconstructionReport:
    """Sampling reconstruction of the transform of f from its values at the
    zeros, compared point-wise against the directly computed transform."""
    alpha = _order(alpha, -1)
    lams = _numbers("lambdas", lambdas)
    _warn_order(alpha)
    if len(table) < 1:
        raise InvalidArgument("zero table must contain at least one zero")
    _check_table(ctx, alpha, table)
    with mp.workdps(_workdigits(tol)):
        lat = _lattice(ctx, alpha, tol)
        samples = [lat.integral(f.values, lat.basis(j)).value for j in table.zeros]
        zs = [lam * lam for lam in lams]
        direct = [lat.integral(f.values, lat.column(z)).value for z in zs]
        recon = []
        for lam, z in zip(lams, zs):
            num = eval_J(ctx, alpha, 1, z, tol).value
            s = mp.mpf(0)
            for k, fj in enumerate(samples):
                s += fj * _kernel(table, k, lam, z, num)
            recon.append(+s)
        worst = mp.mpf(0)
        for d, r in zip(direct, recon):
            worst = max(worst, abs(d - r) / max(1, abs(d)))
        return ReconstructionReport(lams, direct, recon, +worst, len(table))


def closed_sum_check(
    ctx: QContext,
    alpha,
    table: ZeroTable,
    lam,
    tol: float = DEFAULT_TOL,
) -> ClosedSumResult:
    """Check of the closed summation that the delta-signal example yields:

        J_{alpha+1}(1, lambda; q^2) / (2 J_alpha(1, lambda; q^2))
            = sum_k j_k J_{alpha+1}(1, j_k; q^2)
                    / ((lambda^2 - j_k^2) dJ_alpha/dlambda |_{j_k}),

    evaluated with the partial sum over the given table.  (The printed
    version of this display equates the sum to the constant 1/2, which is
    inconsistent dimensionally in lambda; the form above is the one the
    reconstruction theorem actually produces.)
    """
    am, lam = _order(alpha, -1), _arg("lam", lam)
    _check_table(ctx, am, table)
    with mp.workdps(_workdigits(tol)):
        z = lam * lam
        for j in table.zeros:
            if abs(abs(lam) - j) < 1e-8 * j:
                raise AtPole(
                    f"lambda = {mp.nstr(lam)} coincides with a zero"
                )
        denom = eval_J(ctx, am, 1, z, tol).value
        if denom == 0:
            raise AtPole("J_alpha(1, lambda) vanishes at this lambda")
        lhs = eval_J(ctx, am + 1, 1, z, tol).value / (2 * denom)
        lat = _lattice(ctx, am, tol)
        s = mp.mpf(0)
        for jk, dk in zip(table.zeros, table.derivs):
            # J_{alpha+1}(1, j_k) is entry m = 0 of the zero's column
            s += jk * lat.basis(jk)[0] / ((z - jk * jk) * dk)
        return ClosedSumResult(+lhs, +s, abs(lhs - s))
