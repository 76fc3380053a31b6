"""Weighted L^2_q inner products, the Lommel-type product integral, norm
closed forms, the Gram matrix of the zero family, and Fourier expansion.

Everything here lives on the unit lattice {q^m} of [0, 1], where the
zeros j_k of J_a(1, .; q^2) are (a is the order alpha).  The central
identity is the two-sided product-integral evaluation: with
C = (1-q)(1-q^(2a+2))/q^(2a+2) and W(1) = (-1; q^2)_inf / (-q^(2a+2);
q^2)_inf,

  (lam^2 - mu^2) * Int_0^1 w(x) J_{a+1}(x,lam) J_{a+1}(x,mu) d_q x
      = C * ( W(1) * B(1/q, 1; lam, mu) - B(0, 0; lam, mu) ),

  B(u, v; lam, mu) = J_{a+1}(u,lam) J_a(v,mu) - J_{a+1}(u,mu) J_a(v,lam).

The x -> 0 boundary term B(0,0;...) does not vanish (J_a(0, lam) != 0),
and it is what breaks the orthogonality of {J_{a+1}(., j_n)}: at a pair of
zeros lam = j_n, mu = j_m the lattice boundary term at x = 1 dies but the
one at x = 0 survives, so the off-diagonal Gram entries are O(1) rather
than zero.  The closed forms below include the boundary term, which is the
form that matches the direct q-integral to working precision; the
boundary-free display is restated in tests/oracles.py, where the tests show
that it fails.

Every lattice sum here is one weighted Jackson sum,
(1-q) sum_m w(q^m) F(q^m) G(q^m) q^m, taken by a _Lattice.  The
lattices live in a memo keyed by (q, alpha, tol) and mpmath's working
precision and rounding, compared by value (_lattice; an LRU cache of the
_LATTICE_SLOTS keys used last), so that calls on one zero table share the
powers q^m, the weights and the columns J_{alpha+1}(q^m, j_k) of the zero
family (_Lattice.basis; the _BASIS_SLOTS zeros used last per lattice).
Each value is the same mpmath operation on the same operands at the same
precision as when a call computed it itself, so every result is
bit-identical to a fresh computation's.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Dict, List

import mpmath as mp

from .bqbessel import eval_dJ_dz, eval_J
from .defaults import DEFAULT_TOL, NOT_A_ZERO_TOL
from .errors import InvalidArgument, LengthMismatch, NotAZero, ScaleMismatch
from .qcalc import (
    QContext,
    SeriesValue,
    _arg,
    _order,
    _tol,
    _workdigits,
    fused_product_ratio,
    jackson_sum,
)
from .zerofinder import ZeroTable

__all__ = [
    "QLatticeSignal",
    "GramReport",
    "weight",
    "inner_product",
    "lommel_integral_direct",
    "lommel_rhs_closed",
    "norm_sq_closed",
    "gram_matrix",
    "fourier_coefficients",
    "fourier_partial_sum",
]


@dataclass(frozen=True)
class QLatticeSignal:
    """A finitely supported function on the unit lattice {q^k}:
    values[k] = f(q^k) for k = 0..K, zero beyond.  The scale a is kept
    for the file format; any a other than 1 raises ScaleMismatch."""

    values: List[float]
    a: float = 1.0

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise InvalidArgument("signal needs at least one lattice value")
        values = [_arg("values", v) for v in self.values]
        object.__setattr__(self, "values", values)
        if _arg("a", self.a) != 1:
            raise ScaleMismatch(
                f"the zeros and the transform live on the scale-1 lattice; "
                f"got a={self.a}"
            )

    def __len__(self) -> int:
        return len(self.values)

    def to_dict(self) -> dict:
        return {"a": self.a, "values": list(self.values)}

    @classmethod
    def from_dict(cls, d: dict) -> "QLatticeSignal":
        return cls(values=d["values"], a=float(_arg("a", d["a"])))


@dataclass(frozen=True)
class GramReport:
    """Pairwise inner products of {J_{alpha+1}(., j_n)} plus the closed-form
    norms and the worst off-diagonal size relative to its diagonals."""

    matrix: List[List[mp.mpf]]
    norm_closed: List[mp.mpf]
    max_offdiag_rel: mp.mpf

    def to_dict(self) -> dict:
        return asdict(self)


def weight(ctx: QContext, alpha, x, tol: float = DEFAULT_TOL):
    """Inner-product weight x (-x^2 q^2; q^2)_inf / (-x^2 q^(2a+4); q^2)_inf
    computed as one fused product, at the caller's precision: tol sets only
    the truncation, so weight(QContext(0.5), 0, 0.7, tol=1e-30) carries 16
    digits at mpmath's default 53 bits.  The lattice sums call it inside
    their working precision."""
    x, alpha, tol = _arg("x", x), _arg("alpha", alpha), _tol(tol)
    if not x >= 0:
        raise InvalidArgument(f"weight is defined for x >= 0; got {x}")
    if x == 0:
        return mp.mpf(0)
    return x * fused_product_ratio(x * x, 2, 2 * alpha + 4, ctx.q, tol)


class _Lattice:
    """The Jackson lattice q^m of [0, 1] for one (ctx, alpha, tol) at one
    working precision, kept across calls in the memo of _lattice.

    The powers q^m and the weights w(q^m) are each computed once, when
    first needed.  column(z) gives a column for one call; basis(zero) gives
    the zero family's column at z = zero^2 from the _BASIS_SLOTS zeros
    used last, so calls on one zero table share it.
    """

    def __init__(self, ctx: QContext, alpha, tol: float) -> None:
        self.ctx = ctx
        self.alpha = alpha
        self.tol = tol
        self.q = _arg("q", ctx.q)
        self.order = _arg("alpha", alpha) + 1
        self._qpow: List[mp.mpf] = []
        self._weights: Dict[int, mp.mpf] = {}
        self._basis: "OrderedDict[mp.mpf, _Column]" = OrderedDict()

    def qpow(self, m: int) -> mp.mpf:
        while len(self._qpow) <= m:
            self._qpow.append(self.q ** len(self._qpow))
        return self._qpow[m]

    def weight(self, m: int) -> mp.mpf:
        if m not in self._weights:
            self._weights[m] = weight(self.ctx, self.alpha, self.qpow(m), self.tol)
        return self._weights[m]

    def column(self, z) -> "_Column":
        return _Column(self, z)

    def basis(self, zero) -> "_Column":
        """m -> J_{alpha+1}(q^m, zero^2), the column kept for zero (by
        value) while it is among the _BASIS_SLOTS zeros used last."""
        col = self._basis.pop(zero, None)
        if col is None:
            col = self.column(zero * zero)
        self._basis[zero] = col
        if len(self._basis) > _BASIS_SLOTS:
            self._basis.popitem(last=False)
        return col

    def integral(self, f, g) -> SeriesValue:
        """(1-q) sum_m ((w(q^m) f[m]) g[m]) q^m.

        f and g are each a signal's value list or a column.  With a signal
        the sum is finite over its support: a term is skipped where f[m] or
        g[m] is 0, and g is not looked at where f[m] is 0.  Two columns
        give the Jackson integral with the tail rule of qcalc.jackson_sum.
        """
        lengths = [len(v) for v in (f, g) if not isinstance(v, _Column)]
        if not lengths:
            return jackson_sum(
                lambda m: self.weight(m) * f[m] * g[m], 1, self.q, self.tol
            )
        n = min(lengths)
        s = mp.mpf(0)
        for m in range(n):
            fv = f[m]
            if fv == 0:
                continue
            gv = g[m]
            if gv == 0:
                continue
            s += self.weight(m) * fv * gv * self.qpow(m)
        val = (1 - self.q) * s
        # Finite sum: only rounding error remains.
        err = abs(val) * mp.mpf(10) ** (10 - mp.mp.dps)
        return SeriesValue(+val, +err, max(n, 1))


class _Column:
    """m -> J_{alpha+1}(q^m, z) on a lattice, each value evaluated once,
    at the lattice's working precision.  The values are kept as mpmath's
    raw (sign, mantissa, exponent, bitcount) tuples, a third smaller than
    mpf objects, since the memo keeps thousands of them."""

    def __init__(self, lattice: _Lattice, z) -> None:
        self._lattice = lattice
        self._z = z
        self._values: List = []

    def __getitem__(self, m: int) -> mp.mpf:
        values = self._values
        if len(values) <= m:
            values.extend([None] * (m + 1 - len(values)))
        if values[m] is None:
            lat = self._lattice
            values[m] = eval_J(
                lat.ctx, lat.order, lat.qpow(m), self._z, lat.tol
            ).value._mpf_
        return mp.make_mpf(values[m])


# The memo of lattices (_lattice) holds the _LATTICE_SLOTS keys (q, alpha,
# tol, precision, rounding) used last, and each lattice the zero family's columns of the _BASIS_SLOTS zeros used
# last (both LRU).  L1 calls per round of the benchmark's lattice workload
# (seed 1, rounds 1-4; requests on 4-20 zeros of two 20-zero tables, one
# memo key each) and the memo's size after round 5 (tracemalloc, before and
# after clearing it), by slot counts:
#
#     lattices  columns    L1 calls per round        memo
#         4         0      2510  1981  2307  2077    0.09 MB
#         4         8      2382  1564  2015  1920    0.16 MB
#         4        16      2085   664  1116  1014    0.33 MB
#         4        20      1889   514   425   412    0.36 MB
#         4        24      1889   514   425   412    0.36 MB
#         1        24      2098  1881  1954  1596       —
#         2        24      1889   514   425   412    0.36 MB
#
# The columns are sized for tables of up to 24 zeros: a request that sweeps
# more zeros in order than there are slots evicts each column before it is
# read again, and so computes every column as it would without the memo.
# A column holds the entries the calls read: 64 for a Gram entry (the head
# of the Jackson sum), and more where q is near 1 or tol is small.  Four
# lattices let two tables share the memo at two tols.
_LATTICE_SLOTS = 4
_BASIS_SLOTS = 24


@functools.lru_cache(maxsize=_LATTICE_SLOTS)
def _memo(ctx: QContext, alpha, tol: float, prec: int, rounding: str):
    return _Lattice(ctx, alpha, tol)


def _lattice(ctx: QContext, alpha, tol: float) -> _Lattice:
    """The memo entry of (ctx.q, alpha, tol) at mpmath's current precision
    and rounding, the working ones of the caller; every key is compared by
    value, so alpha = 0, 0.0 and mpf(0) share one entry."""
    return _memo(ctx, alpha, tol, *mp.mp._prec_rounding)


def inner_product(
    ctx: QContext,
    alpha,
    f: QLatticeSignal,
    g: QLatticeSignal,
    tol: float = DEFAULT_TOL,
) -> SeriesValue:
    """Weighted q-integral <f, g> over [0, 1] of two lattice signals
    (real-valued; conjugation is the identity)."""
    alpha = _arg("alpha", alpha)
    with mp.workdps(_workdigits(tol)):
        return _lattice(ctx, alpha, tol).integral(f.values, g.values)


def lommel_integral_direct(
    ctx: QContext, alpha, lam, mu, tol: float = DEFAULT_TOL
) -> SeriesValue:
    """(lam^2 - mu^2) times the direct weighted q-integral of
    J_{alpha+1}(x, lam) J_{alpha+1}(x, mu) over [0, 1]."""
    alpha, lam, mu = _order(alpha, -2), _arg("lam", lam), _arg("mu", mu)
    with mp.workdps(_workdigits(tol)):
        if lam * lam == mu * mu:
            return SeriesValue(mp.mpf(0), mp.mpf(0), 1)
        lat = _lattice(ctx, alpha, tol)
        sv = lat.integral(lat.column(lam * lam), lat.column(mu * mu))
        fac = lam * lam - mu * mu
        return SeriesValue(fac * sv.value, abs(fac) * sv.abs_error, sv.terms_used)


def _bracket(ctx, alpha, u, v, z_lam, z_mu, tol):
    """B(u, v) = J_{a+1}(u, lam) J_a(v, mu) - J_{a+1}(u, mu) J_a(v, lam)."""
    return eval_J(ctx, alpha + 1, u, z_lam, tol).value * eval_J(
        ctx, alpha, v, z_mu, tol
    ).value - eval_J(ctx, alpha + 1, u, z_mu, tol).value * eval_J(
        ctx, alpha, v, z_lam, tol
    ).value


def _closed_factors(q, am, tol):
    """C and W(1) of the module docstring at alpha = am, at the caller's
    precision."""
    C = (1 - q) * (1 - q ** (2 * am + 2)) / q ** (2 * am + 2)
    return C, fused_product_ratio(1, 0, 2 * am + 2, q, tol)


def lommel_rhs_closed(
    ctx: QContext,
    alpha,
    lam,
    mu,
    tol: float = DEFAULT_TOL,
) -> SeriesValue:
    """Closed form of the Lommel-type product integral (times lam^2-mu^2).

    It includes the x -> 0 lattice boundary term and orients the bracket so
    both sides agree (verified against the direct integral to working
    precision).
    """
    am, q = _order(alpha, -1), _arg("q", ctx.q)
    lam, mu = _arg("lam", lam), _arg("mu", mu)
    with mp.workdps(_workdigits(tol)):
        z_lam = lam * lam
        z_mu = mu * mu
        C, W = _closed_factors(q, am, tol)
        bq = _bracket(ctx, am, 1 / q, 1, z_lam, z_mu, tol)
        b0 = _bracket(ctx, am, 0, 0, z_lam, z_mu, tol)
        val = C * (W * bq - b0)
        err = abs(val) * mp.mpf(10) ** (10 - mp.mp.dps) + tol
        return SeriesValue(+val, +err, 1)


def _check_table(ctx: QContext, alpha, table: ZeroTable) -> None:
    if table.q != float(ctx.q) or table.alpha != float(alpha):
        raise InvalidArgument(
            f"the zero table is for (q, alpha) = ({table.q}, {table.alpha}), "
            f"the call for ({float(ctx.q)}, {float(alpha)})"
        )


def norm_sq_closed(
    ctx: QContext,
    alpha,
    zero,
    deriv,
    tol: float = DEFAULT_TOL,
) -> mp.mpf:
    """Closed form of mu_k = ||J_{alpha+1}(., j_k)||^2 in L^2_q(0, 1), on
    the unit lattice {q^m} where the zeros are.

    Differentiating the product-integral closed form at mu = lam = j_k
    (a zero of J_alpha(1, .; q^2), with deriv the lambda-derivative there):

        mu_k = -C/(2 j_k) * ( W(1) J_{alpha+1}(1/q, j_k) * deriv
                              - J_{alpha+1}(0, j_k) dJ_alpha(0)
                              + dJ_{alpha+1}(0) J_alpha(0, j_k) ),

    where dF(0) denotes the lambda-derivative at x = 0.  A point with
    |J_alpha(1, j_k)| > NOT_A_ZERO_TOL raises NotAZero.
    """
    am, q = _order(alpha, -1), _arg("q", ctx.q)
    zero, deriv = _arg("zero", zero), _arg("deriv", deriv)
    with mp.workdps(_workdigits(tol)):
        z = zero * zero
        resid = abs(eval_J(ctx, am, 1, z, tol).value)
        if resid > NOT_A_ZERO_TOL:
            # a is the lattice end, 1 here; perfbench's probe lines
            # print this message, so its wording stays
            raise NotAZero(
                f"|J_alpha(a, {mp.nstr(zero)})| = {mp.nstr(resid)} exceeds "
                f"{NOT_A_ZERO_TOL}"
            )
        C, W = _closed_factors(q, am, tol)
        jp_aq = eval_J(ctx, am + 1, 1 / q, z, tol).value
        jp0 = eval_J(ctx, am + 1, 0, z, tol).value
        jm0 = eval_J(ctx, am, 0, z, tol).value
        djm0 = 2 * zero * eval_dJ_dz(ctx, am, 0, z, tol).value
        djp0 = 2 * zero * eval_dJ_dz(ctx, am + 1, 0, z, tol).value
        return -C / (2 * zero) * (W * jp_aq * deriv - jp0 * djm0 + djp0 * jm0)


def gram_matrix(
    ctx: QContext,
    alpha,
    table: ZeroTable,
    tol: float = DEFAULT_TOL,
) -> GramReport:
    """Pairwise direct inner products of {J_{alpha+1}(., j_n)} in
    L^2_q(0, 1).

    max_offdiag_rel is the largest |G_nm| / sqrt(G_nn G_mm) over n != m.
    Entries are computed for n <= m and mirrored (the integrand is
    symmetric in the two indices).
    """
    alpha = _order(alpha, -0.5)  # the zero family's floor
    _check_table(ctx, alpha, table)
    n = len(table)
    with mp.workdps(_workdigits(tol)):
        lat = _lattice(ctx, alpha, tol)
        cols = [lat.basis(j) for j in table.zeros]
        mat = [[mp.mpf(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = lat.integral(cols[i], cols[j]).value
                mat[i][j] = v
                mat[j][i] = v
        norms = [
            norm_sq_closed(ctx, alpha, table.zeros[k], table.derivs[k], tol)
            for k in range(n)
        ]
        worst = mp.mpf(0)
        for i in range(n):
            for j in range(n):
                if i != j:
                    rel = abs(mat[i][j]) / mp.sqrt(mat[i][i] * mat[j][j])
                    worst = max(worst, rel)
        return GramReport(mat, norms, +worst)


def fourier_coefficients(
    ctx: QContext,
    alpha,
    f: QLatticeSignal,
    table: ZeroTable,
    tol: float = DEFAULT_TOL,
) -> List[mp.mpf]:
    """Expansion coefficients a_k(f) = <f, J_{alpha+1}(., j_k)> / mu_k with
    mu_k from norm_sq_closed."""
    alpha = _order(alpha, -0.5)  # the zero family's floor
    if len(table) < 1:
        raise InvalidArgument("zero table must contain at least one zero")
    _check_table(ctx, alpha, table)
    with mp.workdps(_workdigits(tol)):
        lat = _lattice(ctx, alpha, tol)
        coeffs = []
        for k in range(len(table)):
            ip = lat.integral(f.values, lat.basis(table.zeros[k])).value
            mu = norm_sq_closed(ctx, alpha, table.zeros[k], table.derivs[k], tol)
            coeffs.append(ip / mu)
        return coeffs


def fourier_partial_sum(
    ctx: QContext,
    alpha,
    coeffs: List,
    table: ZeroTable,
    x,
    tol: float = DEFAULT_TOL,
):
    """Partial sum sum_k a_k J_{alpha+1}(x, j_k; q^2)."""
    am, x = _order(alpha, -2), _arg("x", x)
    if len(coeffs) != len(table):
        raise LengthMismatch(
            f"{len(coeffs)} coefficients vs {len(table)} zeros"
        )
    coeffs = [_arg("coeffs", c) for c in coeffs]
    _check_table(ctx, am, table)
    with mp.workdps(_workdigits(tol)):
        s = mp.mpf(0)
        for c, j in zip(coeffs, table.zeros):
            if c == 0:
                continue
            s += c * eval_J(ctx, am + 1, x, j ** 2, tol).value
        return +s
