"""Weighted lattice inner products, the two-sided product-integral
identity, closed-form norms, Gram analysis, and Fourier coefficients.

Two facts established by this suite deserve emphasis:

* the corrected closed form of the product integral (boundary bracket at
  the upper endpoint minus its x -> 0 limit) agrees with the direct
  Jackson integral to full working accuracy, while the printed variant
  (opposite bracket orientation, no lower boundary term) does not;
* the orthogonality relation itself is numerically false: the lower
  boundary term survives when both spectral parameters are zeros, so
  off-diagonal Gram entries are O(1).  The Gram diagonal still matches
  the closed-form norms.  See the acceptance suite for the verbatim
  (expected-failure) statements.
"""

import mpmath as mp
import pytest

from bigqbessel import (
    QContext,
    QLatticeSignal,
    eval_J,
    find_zeros,
    fourier_coefficients,
    fourier_partial_sum,
    gram_matrix,
    inner_product,
    lommel_integral_direct,
    lommel_rhs_closed,
    norm_sq_closed,
    q_hankel_transform,
    q_integral,
    weight,
)
from bigqbessel.errors import (
    InvalidOrder,
    LengthMismatch,
    NotAZero,
    ScaleMismatch,
)

from bigqbessel.qcalc import _workdigits

import oracles


def test_weight_frozen_value(ctx05):
    # x (-x^2 q^2; q^2)_inf / (-x^2 q^4; q^2)_inf telescopes to
    # x (1 + x^2 q^2) at alpha = 0; at x = 1, q = 1/2 this is 5/4
    got = weight(ctx05, 0.0, 1.0, tol=1e-14)
    assert abs(got - mp.mpf("1.25")) <= 1e-13
    assert weight(ctx05, 0.0, 0.0) == 0


def test_inner_product_delta_signal(ctx05):
    # delta at the lattice head with value 1/(1-q):
    # <f, f> = (1-q) w(1) / (1-q)^2 = w(1)/(1-q)
    f = QLatticeSignal(values=[2.0], a=1.0)
    got = inner_product(ctx05, 0.0, f, f, tol=1e-14).value
    want = weight(ctx05, 0.0, 1.0) / (1 - mp.mpf("0.5"))
    assert abs(got - want) <= 1e-13 * abs(want)


def test_fourier_rejects_off_unit_scale(ctx05, table05):
    # the zeros are those of J_alpha(1, .; q^2): a signal on another
    # lattice is refused for its scale, not blamed on the zeros
    f = QLatticeSignal(values=[1.0, 0.5], a=0.5)
    with pytest.raises(ScaleMismatch):
        fourier_coefficients(ctx05, 0.0, f, table05.head(2))


def test_inner_product_scale_mismatch(ctx05):
    f = QLatticeSignal(values=[1.0], a=1.0)
    g = QLatticeSignal(values=[1.0], a=0.5)
    with pytest.raises(ScaleMismatch):
        inner_product(ctx05, 0.0, f, g)


@pytest.mark.parametrize("q,alpha", [(0.3, 0.0), (0.5, 0.5), (0.9, 0.0)])
def test_product_integral_two_sided(q, alpha):
    ctx = QContext(q)
    for lam, mu in ((0.5, 1.0), (1.0, 3.0), (0.5, 3.0)):
        d = lommel_integral_direct(ctx, alpha, 1.0, lam, mu, 1e-13).value
        c = lommel_rhs_closed(ctx, alpha, 1.0, lam, mu, 1e-13).value
        assert abs(d - c) <= 1e-10 * max(1, abs(c))


def test_product_integral_printed_variant_fails(ctx05):
    # the printed right-hand side has the bracket orientation reversed
    # and omits the x -> 0 boundary term; it does not match the integral
    d = lommel_integral_direct(ctx05, 0.0, 1.0, 0.5, 1.0, 1e-13).value
    p = oracles.lommel_rhs_printed(ctx05, 0.0, 1.0, 0.5, 1.0, 1e-13)
    assert abs(d - p) / max(1, abs(p)) > 1e-2


def test_norm_closed_matches_frozen_oracle(ctx05, table05, ctx08, table08):
    for ctx, table, norms, alpha in (
        (ctx05, table05, oracles.NORMS_Q05_A0, 0.0),
        (ctx08, table08, oracles.NORMS_Q08_A05, 0.5),
    ):
        for k in range(5):
            got = norm_sq_closed(
                ctx, alpha, table.zeros[k], table.derivs[k], tol=1e-13
            )
            assert abs(got - norms[k]) <= 1e-9 * norms[k]


def test_norm_closed_matches_direct_integral(ctx05, table05):
    for k in range(3):
        z = table05.zeros[k] ** 2

        def integrand(x):
            return (
                weight(ctx05, 0.0, x, 1e-13)
                * eval_J(ctx05, 1.0, x, z, 1e-13).value ** 2
            )

        direct = q_integral(integrand, 1.0, 0.5, tol=1e-13).value
        closed = norm_sq_closed(
            ctx05, 0.0, table05.zeros[k], table05.derivs[k], tol=1e-13
        )
        assert abs(direct - closed) <= 1e-9 * abs(closed)


def test_norm_closed_printed_variant_disagrees(ctx05, table05):
    got = oracles.norm_sq_closed_printed(
        ctx05, 0.0, table05.zeros[0], table05.derivs[0], tol=1e-13
    )
    assert abs(got - oracles.NORMS_Q05_A0[0]) > 1e-3


def test_norm_closed_rejects_non_zero(ctx05):
    with pytest.raises(NotAZero):
        norm_sq_closed(ctx05, 0.0, mp.mpf(2), mp.mpf(1), tol=1e-13)


def test_gram_diagonal_matches_closed_norms(ctx05, table05):
    rep = gram_matrix(ctx05, 0.0, table05, tol=1e-13)
    for k in range(5):
        rel = abs(rep.matrix[k][k] - rep.norm_closed[k]) / abs(
            rep.norm_closed[k]
        )
        assert rel <= 1e-9


def test_gram_matrix_symmetric(ctx05, table05):
    rep = gram_matrix(ctx05, 0.0, table05.head(3), tol=1e-13)
    for i in range(3):
        for j in range(3):
            assert rep.matrix[i][j] == rep.matrix[j][i]


def test_gram_offdiagonal_is_order_one(ctx05, table05):
    # the claimed orthogonality does not hold numerically: the surviving
    # lower boundary term of the product integral keeps the off-diagonal
    # entries at O(1) relative size (documented; see acceptance notes)
    rep = gram_matrix(ctx05, 0.0, table05, tol=1e-13)
    assert rep.max_offdiag_rel > 0.1


@pytest.mark.parametrize("q,alpha", [(0.5, 0.0), (0.3, 1.0)])
def test_lattice_sums_match_direct_paths(q, alpha):
    # Gram entries, Fourier coefficients and transforms come from one
    # shared lattice sum; the oracle is the direct path: a q_integral of
    # w J J per pair, and an explicit loop over the signal, each with the
    # same order of multiplication, so the results agree bit for bit
    tol = 1e-13
    ctx = QContext(q)
    table = find_zeros(ctx, alpha, 4, tol=1e-12)
    f = QLatticeSignal(values=[1.0, 0.0, -0.5, 0.25], a=1.0)
    lams = [mp.mpf("0.7"), table.zeros[1]]
    rep = gram_matrix(ctx, alpha, table, tol)
    coeffs = fourier_coefficients(ctx, alpha, f, table, tol)
    transforms = [q_hankel_transform(ctx, alpha, f, lam, tol) for lam in lams]
    # q_hankel_transform squares lambda before raising the precision
    lam_zs = [lam * lam for lam in lams]
    qm = mp.mpf(q)
    am = mp.mpf(alpha)
    with mp.workdps(_workdigits(tol)):
        zs = [j * j for j in table.zeros]

        def wjj(x, zi, zj):
            return (
                weight(ctx, alpha, x, tol)
                * eval_J(ctx, am + 1, x, zi, tol).value
                * eval_J(ctx, am + 1, x, zj, tol).value
            )

        for i in range(4):
            for j in range(i, 4):
                direct = q_integral(
                    lambda x: wjj(x, zs[i], zs[j]), 1.0, q, tol
                ).value
                assert rep.matrix[i][j]._mpf_ == direct._mpf_
                assert rep.matrix[j][i]._mpf_ == direct._mpf_

        def signal_sum(z):
            s = mp.mpf(0)
            for m, fv in enumerate(f.values):
                fv = mp.mpf(fv)
                if fv == 0:
                    continue
                x = qm**m
                s += (
                    weight(ctx, alpha, x, tol)
                    * fv
                    * eval_J(ctx, am + 1, x, z, tol).value
                    * qm**m
                )
            return (1 - qm) * s

        for k in range(4):
            mu = norm_sq_closed(
                ctx, alpha, table.zeros[k], table.derivs[k], tol
            )
            assert coeffs[k]._mpf_ == (signal_sum(zs[k]) / mu)._mpf_
        for sv, z in zip(transforms, lam_zs):
            assert sv.value._mpf_ == signal_sum(z)._mpf_


def test_gram_rejects_low_order(ctx05, table05):
    with pytest.raises(InvalidOrder):
        gram_matrix(ctx05, -0.5, table05)


def test_fourier_coefficients_shape_and_partial_sum(ctx05, table05):
    f = QLatticeSignal(values=[1.0, -0.5, 0.25], a=1.0)
    coeffs = fourier_coefficients(ctx05, 0.0, f, table05, tol=1e-13)
    assert len(coeffs) == 5
    val = fourier_partial_sum(ctx05, 0.0, coeffs, table05, 1.0, tol=1e-13)
    assert mp.isfinite(val)
    with pytest.raises(LengthMismatch):
        fourier_partial_sum(ctx05, 0.0, coeffs[:2], table05, 1.0)


@pytest.mark.xfail(
    strict=True,
    reason="Parseval-type bound fails: without valid orthogonality the "
    "partial energy sums exceed <f, f> (documented defect of the claimed "
    "orthogonality relation)",
)
def test_parseval_partial_sums_bounded(ctx05, table05):
    f = QLatticeSignal(values=[1.0, -0.5, 0.25], a=1.0)
    coeffs = fourier_coefficients(ctx05, 0.0, f, table05, tol=1e-13)
    energy = inner_product(ctx05, 0.0, f, f, tol=1e-13).value
    partial = mp.mpf(0)
    for k in range(5):
        mu_k = norm_sq_closed(
            ctx05, 0.0, table05.zeros[k], table05.derivs[k], tol=1e-13
        )
        partial += mu_k * coeffs[k] ** 2
        assert partial <= energy * (1 + mp.mpf("1e-9"))


def test_parseval_partial_sums_nondecreasing(ctx05, table05):
    # the nondecreasing half of the Parseval property does hold
    f = QLatticeSignal(values=[1.0, -0.5, 0.25], a=1.0)
    coeffs = fourier_coefficients(ctx05, 0.0, f, table05, tol=1e-13)
    prev = mp.mpf(0)
    for k in range(5):
        mu_k = norm_sq_closed(
            ctx05, 0.0, table05.zeros[k], table05.derivs[k], tol=1e-13
        )
        cur = prev + mu_k * coeffs[k] ** 2
        assert cur >= prev
        prev = cur


def test_signal_roundtrip():
    f = QLatticeSignal(values=[1.0, 2.0], a=1.0)
    back = QLatticeSignal.from_dict(f.to_dict())
    assert back.a == f.a
    assert list(back.values) == list(f.values)
    with pytest.raises(ValueError):
        QLatticeSignal(values=[])
