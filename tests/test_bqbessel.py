"""Big q-Bessel evaluation: series values against an independent
brute-force oracle, difference/recurrence identities, big q-trigonometric
consistency, and the classical (q -> 1) limit.
"""

import mpmath as mp
import pytest

from bigqbessel import (
    QContext,
    eval_J,
    eval_big_cos,
    eval_big_sin,
    eval_dJ_dz,
    identity_residual,
    recurrence_alpha_step,
    recurrence_shifted,
)
from bigqbessel.bqbessel import IDENTITY_KINDS
from bigqbessel.errors import InvalidArgument, InvalidOrder, ZeroSpectralParameter

import oracles


def test_eval_J_frozen_value():
    ctx = QContext(0.5)
    got = eval_J(ctx, 0, 1, 0.01, tol=1e-16).value
    assert abs(got - oracles.J_Q05_A0_X1_Z001) <= 1e-16


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.3])
def test_eval_J_matches_brute_series(q, alpha):
    ctx = QContext(q)
    for x in (0.0, q, 1.0):
        for z in (0.04, 1.0):
            got = eval_J(ctx, alpha, x, z, tol=1e-14).value
            want = oracles.brute_J(alpha, x, z, q * q)
            assert abs(got - want) <= 1e-13 * max(1, abs(want))


def test_eval_J_at_z_zero_is_one():
    ctx = QContext(0.7)
    sv = eval_J(ctx, 0.3, 2.0, 0.0)
    assert sv.value == 1
    assert sv.abs_error == 0


def test_eval_J_positive_for_negative_z():
    # every series term is positive when z < 0, so J >= 1 there
    ctx = QContext(0.6)
    for z in (-0.1, -1.0, -25.0):
        assert eval_J(ctx, 0.25, 1.3, z, tol=1e-13).value >= 1


def test_eval_J_rejects_low_order():
    with pytest.raises(InvalidOrder):
        eval_J(QContext(0.5), -1.0, 1.0, 0.1)


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("fn", [eval_J, eval_dJ_dz])
@pytest.mark.parametrize(
    "alpha,x,z,tol",
    [
        (0, 1, NAN, 1e-13),
        (0, INF, 1, 1e-13),
        (NAN, 1, 1, 1e-13),
        (0, 1, INF, 1e-13),
        (0, 1, 1, 0.0),
        (0, 1, 1, NAN),
    ],
)
def test_non_finite_argument_is_invalid_not_divergent(fn, alpha, x, z, tol):
    # an invalid input is reported as such before any series is summed,
    # not as a series that failed to decay
    with pytest.raises(InvalidArgument):
        fn(QContext(0.5), alpha, x, z, tol)


def test_eval_dJ_dz_matches_finite_difference():
    ctx = QContext(0.5)
    z = mp.mpf("0.3")
    with mp.workdps(50):
        h = mp.mpf(10) ** -20
        num = (
            eval_J(ctx, 0, 1, z + h, tol=1e-40).value
            - eval_J(ctx, 0, 1, z - h, tol=1e-40).value
        ) / (2 * h)
    got = eval_dJ_dz(ctx, 0, 1, z, tol=1e-25).value
    assert abs(got - num) <= 1e-15 * max(1, abs(num))


@pytest.mark.parametrize(
    "q,alpha,x,z",
    [
        (0.5, 0.0, 1.0, oracles.ZEROS_Q05_A0[3] ** 2),
        (0.5, 0.0, 0.0, 0.3),
        (0.8, 0.5, 1.0, oracles.ZEROS_Q08_A05[4] ** 2),
        (0.3, 1.0, 1.7, -24.0),
        (0.5, -0.75, 0.3, 1e3),
        (0.5, 0.0, 1.0, 0.0),
        (0.3, 1.0, 1.7, 0.0),
        (0.8, 0.5, 0.0, 0.0),
    ],
)
def test_eval_dJ_dz_abs_error_bounds_brute_series(q, alpha, x, z):
    sv = eval_dJ_dz(QContext(q), alpha, x, z, tol=1e-30)
    with mp.workdps(120):
        want = oracles.brute_dJ(alpha, x, z, mp.mpf(q) ** 2, dps=120)
        assert abs(sv.value - want) <= sv.abs_error


@pytest.mark.parametrize(
    "q,alpha,x,z",
    [(0.5, 0.0, 1.0, 0.3), (0.3, 1.0, 1.7, -24.0), (0.8, 0.5, 0.5, 40.0),
     (0.9, -0.25, 2.0, 1.0)],
)
def test_eval_J_is_the_1phi1(q, alpha, x, z):
    # J_alpha = 1phi1(-1/x^2; q^(2alpha+2); q^2, lambda^2 x^2 q^(2alpha+2))
    sv = eval_J(QContext(q), alpha, x, z, tol=1e-30)
    with mp.workdps(60):
        qm, am, xm = mp.mpf(q), mp.mpf(alpha), mp.mpf(x)
        b = qm ** (2 * am + 2)
        want = mp.qhyper([-1 / (xm * xm)], [b], qm * qm, mp.mpf(z) * xm * xm * b)
        assert abs(sv.value - want) <= sv.abs_error


@pytest.mark.parametrize(
    "x,z",
    [(1e160, 1e-310), (1e160, -1e-310), (mp.mpf("1e400"), mp.mpf("-1e-800"))],
)
def test_eval_J_large_x_precision_pass_does_not_overflow(x, z):
    # x^2 overflows a double, or x and z lie beyond its range; the float
    # precision pass must not report a convergent series as divergent
    sv = eval_J(QContext(0.5), 0, x, z, tol=1e-30)
    with mp.workdps(400):
        want = oracles.brute_J(0, x, z, mp.mpf("0.25"), dps=400)
        assert abs(sv.value - want) <= sv.abs_error


def test_classical_limit_converges():
    # rescaled evaluation at q^2 = 1 - 2^(-k) approaches the normalized
    # Bessel function j_0(t) = 0F1(1; -t^2/4) at t = 2*lam*x
    lam, x = mp.mpf("0.3"), mp.mpf("0.5")
    t = 2 * lam * x
    target = mp.hyp0f1(mp.mpf(1), -t * t / 4)
    errs = []
    for k in (3, 5, 8):
        q2 = 1 - mp.mpf(2) ** -k
        ctx = QContext(float(mp.sqrt(q2)))
        v = eval_J(ctx, 0, x / (1 - q2), ((1 - q2) ** 2 * lam) ** 2, 1e-18)
        errs.append(abs(v.value - target))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-2


@pytest.mark.parametrize(
    "kind",
    ["dq-order-raise", "dqinv-order-lower", "eigenfunction", "trig-dq"],
)
def test_identity_residuals_small(kind):
    worst = mp.mpf(0)
    for q in (0.3, 0.5, 0.9):
        for alpha in (-0.25, 0.0, 0.5, 1.3):
            ctx = QContext(q)
            r = identity_residual(ctx, kind, alpha, q, 0.25, tol=1e-13)
            worst = max(worst, r)
    assert worst < 1e-10


@pytest.mark.parametrize("kind", ["recurrence-order", "recurrence-shifted"])
def test_recurrence_residuals_small_for_positive_order(kind):
    # the three-term recurrences involve order alpha-1 and therefore
    # require alpha > 0
    worst = mp.mpf(0)
    for q in (0.3, 0.5, 0.9):
        for alpha in (0.5, 1.3):
            ctx = QContext(q)
            r = identity_residual(ctx, kind, alpha, q, 0.25, tol=1e-13)
            worst = max(worst, r)
    assert worst < 1e-10


def test_trig_dqinv_corrected_vs_printed():
    # the corrected D_{q^{-1}} constant verifies; the printed one does not
    ctx = QContext(0.5)
    good = identity_residual(ctx, "trig-dqinv", 0.0, 0.5, 0.25, tol=1e-13)
    bad = oracles.trig_dqinv_printed_residual(ctx, 0.5, 0.25, tol=1e-13)
    assert good < 1e-10
    assert bad > 1e-2  # documented misprint: off by a constant factor


def test_identity_kind_rejected():
    with pytest.raises(ValueError):
        identity_residual(QContext(0.5), "no-such-kind", 0.0, 1.0, 0.25)
    assert "eigenfunction" in IDENTITY_KINDS


@pytest.mark.parametrize("kind", IDENTITY_KINDS)
def test_identity_order_floor_follows_the_kind(kind):
    # the recurrences evaluate J_{alpha-1}, the other kinds J_alpha
    floor = 0 if kind.startswith("recurrence") else -1
    with pytest.raises(InvalidOrder, match=f"got {floor}$"):
        identity_residual(QContext(0.5), kind, floor, 1.0, 0.25)


def test_recurrence_steps_match_direct_series():
    ctx = QContext(0.5)
    x, z = mp.mpf(1), mp.mpf("0.25")
    j_prev = eval_J(ctx, 0.0, x, z, tol=1e-14).value
    j_curr = eval_J(ctx, 1.0, x, z, tol=1e-14).value
    up = recurrence_alpha_step(ctx, 1.0, x, z, j_prev, j_curr)
    want_up = eval_J(ctx, 2.0, x, z, tol=1e-14).value
    assert abs(up - want_up) <= 1e-11 * max(1, abs(want_up))

    shifted = recurrence_shifted(ctx, 1.0, x, z, j_prev, j_curr)
    want_sh = eval_J(ctx, 2.0, x / mp.mpf("0.5"), z, tol=1e-14).value
    assert abs(shifted - want_sh) <= 1e-11 * max(1, abs(want_sh))


def test_recurrence_rejects_bad_inputs():
    ctx = QContext(0.5)
    with pytest.raises(InvalidOrder):
        recurrence_alpha_step(ctx, 0.0, 1.0, 0.25, 1.0, 1.0)
    with pytest.raises(ZeroSpectralParameter):
        recurrence_alpha_step(ctx, 1.0, 1.0, 0.0, 1.0, 1.0)


def test_big_trig_dual_formulas_agree():
    ctx = QContext(0.5)
    for x, z in ((1.0, 0.25), (0.7, 0.04)):
        c1 = eval_big_cos(ctx, x, z, tol=1e-14).value
        c2 = oracles.brute_big_trig("cos", x, z, ctx.q)
        assert abs(c1 - c2) <= 1e-12 * max(1, abs(c1))
        s1 = eval_big_sin(ctx, x, z, tol=1e-14).value
        s2 = oracles.brute_big_trig("sin", x, z, ctx.q)
        assert abs(s1 - s2) <= 1e-12 * max(1, abs(s1))


def test_big_sin_order_relation():
    # (1-q) * big_sin equals the order-1/2 evaluation
    ctx = QContext(0.5)
    x, z = 1.0, 0.25
    s = eval_big_sin(ctx, x, z, tol=1e-14).value
    j_half = eval_J(ctx, 0.5, x, z, tol=1e-14).value
    assert abs((1 - mp.mpf("0.5")) * s - j_half) <= 1e-12 * max(
        1, abs(j_half)
    )


def test_big_sin_at_z_zero():
    ctx = QContext(0.5)
    got = eval_big_sin(ctx, 1.0, 0.0).value
    assert abs(got - 2) <= 1e-13  # 1/(1-q) at q = 1/2


@pytest.mark.parametrize(
    "q,x,z", [(0.8, 1.0, 4.0), (0.95, 1.5, 2.0), (0.3, 1.7, 24.0)]
)
def test_big_sin_abs_error_bounds_scaled_value(q, x, z):
    # done in double precision, the 1/(1-q) scaling leaves an error near
    # 1e-16 here, far beyond an abs_error near 1e-34; at q = 0.3, 1 - q
    # itself needs 54 bits
    sv = eval_big_sin(QContext(q), x, z, tol=1e-30)
    with mp.workdps(120):
        qm = mp.mpf(q)
        want = oracles.brute_J(0.5, x, z, qm * qm, dps=120) / (1 - qm)
        assert abs(sv.value - want) <= sv.abs_error
