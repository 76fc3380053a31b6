"""Kramer-type sampling: transform of lattice signals, interpolation
kernel (delta property, near-pole branch, printed-variant failure),
reconstruction convergence and linearity, and the closed-sum identity.
"""

import warnings

import mpmath as mp
import pytest

from bigqbessel import (
    QContext,
    QLatticeSignal,
    ZeroTable,
    closed_sum_check,
    eval_J,
    find_zeros,
    fourier_coefficients,
    fourier_partial_sum,
    gram_matrix,
    q_hankel_transform,
    reconstruct,
    sampling_kernel,
)
from bigqbessel.errors import AtPole, InvalidArgument, InvalidOrder

from bigqbessel import sampling

import oracles


def test_delta_signal_transform_closed_form(ctx05, ctx08):
    # delta at x = 1 with value 1/(1-q): the transform has the closed
    # form [(-q^2; q^2)_inf / (-q^(2a+4); q^2)_inf] * J_{alpha+1}(1, lam)
    for ctx, alpha in ((ctx05, 0.0), (ctx08, 0.5)):
        q = mp.mpf(ctx.q)
        q2 = q * q
        f = QLatticeSignal(values=[1.0 / (1.0 - ctx.q)])
        pref = mp.qp(-q2, q2) / mp.qp(-(q ** (2 * mp.mpf(alpha) + 4)), q2)
        for lam in (0.3, 0.7, 1.1, 1.5):
            got = q_hankel_transform(ctx, alpha, f, lam, tol=1e-14).value
            want = pref * eval_J(
                ctx, alpha + 1, 1, mp.mpf(lam) ** 2, 1e-14
            ).value
            assert abs(got - want) <= 1e-12 * max(1, abs(want))


def test_transform_squares_lambda_at_working_precision(ctx05, table05):
    # lambda^2 rounded to 53 bits would cost the 1e-30 transform its
    # digits beyond 1e-17; the transform is reconstruct's direct value
    f = QLatticeSignal(values=[1.0, -0.5, 0.25, 0.125, 2.0, -1.0])
    lams = [0.7, 3.3]
    rep = reconstruct(ctx05, 0.0, f, table05, lams, tol=1e-30)
    for lam, direct in zip(lams, rep.direct):
        got = q_hankel_transform(ctx05, 0.0, f, lam, tol=1e-30).value
        want = q_hankel_transform(ctx05, 0.0, f, lam, tol=1e-65).value
        assert abs(got - want) <= 1e-28
        assert got._mpf_ == direct._mpf_


TABLE_USERS = {
    "gram_matrix": lambda ctx, a, f, t: gram_matrix(ctx, a, t),
    "fourier_coefficients":
        lambda ctx, a, f, t: fourier_coefficients(ctx, a, f, t),
    "fourier_partial_sum":
        lambda ctx, a, f, t: fourier_partial_sum(ctx, a, [1] * len(t), t, 0.5),
    "sampling_kernel": lambda ctx, a, f, t: sampling_kernel(ctx, a, t, 0, 0.7),
    "reconstruct": lambda ctx, a, f, t: reconstruct(ctx, a, f, t, [0.7]),
    "closed_sum_check": lambda ctx, a, f, t: closed_sum_check(ctx, a, t, 0.7),
}


@pytest.mark.parametrize("q,alpha", [(0.55, 0.0), (0.5, 0.2)])
@pytest.mark.parametrize("name", list(TABLE_USERS))
def test_zero_table_must_match_the_call(table05, name, q, alpha):
    f = QLatticeSignal(values=[1.0, -0.5])
    with pytest.raises(InvalidArgument) as exc:
        TABLE_USERS[name](QContext(q), alpha, f, table05)
    assert "(0.5, 0.0)" in str(exc.value)
    assert f"({q}, {alpha})" in str(exc.value)


def test_transform_is_linear(ctx05):
    f1 = QLatticeSignal(values=[1.0, 0.0, 2.0])
    f2 = QLatticeSignal(values=[0.5, -1.0])
    comb = QLatticeSignal(values=[1.0 * 3 + 0.5 * -2, 0.0 * 3 - 1.0 * -2,
                                  2.0 * 3])
    lam = 0.9
    got = q_hankel_transform(ctx05, 0.0, comb, lam, 1e-14).value
    want = (
        3 * q_hankel_transform(ctx05, 0.0, f1, lam, 1e-14).value
        - 2 * q_hankel_transform(ctx05, 0.0, f2, lam, 1e-14).value
    )
    assert abs(got - want) <= 1e-12 * max(1, abs(want))


def test_transform_scale_and_order_checks(ctx05):
    with pytest.raises(InvalidArgument, match=r"\ba=0.5"):
        q_hankel_transform(
            ctx05,
            0.0,
            QLatticeSignal.from_dict({"a": 0.5, "values": [1.0]}),
            1.0,
        )
    with pytest.raises(InvalidOrder):
        q_hankel_transform(
            ctx05, -1.5, QLatticeSignal(values=[1.0]), 1.0
        )
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        q_hankel_transform(
            ctx05, -0.75, QLatticeSignal(values=[1.0]), 1.0
        )
    assert any("alpha" in str(w.message) for w in rec)


@pytest.mark.parametrize("alpha", [-1.0, -1.2])
@pytest.mark.parametrize("name", ["sampling_kernel", "reconstruct"])
def test_kernel_refuses_an_alpha_without_j_alpha_at_once(
    ctx05, monkeypatch, name, alpha
):
    # the kernel evaluates J_alpha, which needs alpha > -1: InvalidOrder
    # comes before the warning for alpha <= -1/2 and before any sum
    table = ZeroTable(0.5, alpha, [1.0, 2.0], [-1.0, 1.0], [0.0, 0.0])
    f = QLatticeSignal(values=[1.0, -0.5])

    def no_sums(*args):
        raise AssertionError("a lattice sum was started")

    monkeypatch.setattr(sampling, "_lattice", no_sums)
    monkeypatch.setattr(sampling, "eval_J", no_sums)
    calls = {
        "sampling_kernel": lambda: sampling_kernel(ctx05, alpha, table, 0, 0.7),
        "reconstruct": lambda: reconstruct(ctx05, alpha, f, table, [0.7]),
    }
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        with pytest.raises(InvalidOrder):
            calls[name]()
    assert rec == []


def test_kernel_delta_property(ctx05, table05, ctx08, table08):
    for ctx, table, alpha in ((ctx05, table05, 0.0), (ctx08, table08, 0.5)):
        worst = mp.mpf(0)
        for k in range(5):
            for m in range(5):
                s = sampling_kernel(
                    ctx, alpha, table, k, table.zeros[m], tol=1e-13
                )
                worst = max(worst, abs(s - (1 if k == m else 0)))
        assert worst <= 1e-8


def test_kernel_near_pole_branch_is_continuous(ctx05, table05):
    j1 = table05.zeros[0]
    inside = sampling_kernel(
        ctx05, 0.0, table05, 0, j1 * (1 + mp.mpf("1e-8")), tol=1e-13
    )
    outside = sampling_kernel(
        ctx05, 0.0, table05, 0, j1 * (1 + mp.mpf("1e-5")), tol=1e-13
    )
    assert abs(inside - 1) < 1e-6
    assert abs(outside - 1) < 1e-3
    assert abs(inside - outside) < 1e-4


def test_kernel_printed_variant_violates_delta(ctx05, table05):
    # with the kernel built from the alpha+1 evaluation (as printed), the
    # off-diagonal values are O(1): the family does not interpolate
    s = oracles.sampling_kernel_printed(
        ctx05, 0.0, table05, 0, table05.zeros[1], tol=1e-13
    )
    assert abs(s) > 0.1


def test_kernel_index_bounds(ctx05, table05):
    with pytest.raises(InvalidArgument, match=r"\bk\b"):
        sampling_kernel(ctx05, 0.0, table05, 5, 1.0)


def test_reconstruction_error_decreases(ctx05):
    table = find_zeros(ctx05, 0.0, 12, tol=1e-30)
    f = QLatticeSignal(values=[1.0, -0.5, 0.25])
    lams = [0.3, 0.7, 1.1, 1.5]
    errs = [
        reconstruct(ctx05, 0.0, f, table.head(n), lams, tol=1e-25).max_rel_err
        for n in (3, 6, 12)
    ]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-12


def test_reconstruction_is_linear(ctx05, table05):
    f1 = QLatticeSignal(values=[1.0, 0.5])
    f2 = QLatticeSignal(values=[0.0, -1.0, 2.0])
    comb = QLatticeSignal(values=[2.0, 2.0, -2.0])  # 2*f1 - f2
    lams = [0.4, 1.3]
    r1 = reconstruct(ctx05, 0.0, f1, table05, lams, tol=1e-14)
    r2 = reconstruct(ctx05, 0.0, f2, table05, lams, tol=1e-14)
    rc = reconstruct(ctx05, 0.0, comb, table05, lams, tol=1e-14)
    for i in range(len(lams)):
        want = 2 * r1.reconstructed[i] - r2.reconstructed[i]
        assert abs(rc.reconstructed[i] - want) <= 1e-11 * max(1, abs(want))


def test_reconstruction_report_contents(ctx05, table05):
    f = QLatticeSignal(values=[1.0])
    rep = reconstruct(ctx05, 0.0, f, table05, [0.5], tol=1e-13)
    assert rep.terms == 5
    d = rep.to_dict()
    assert set(d) >= {"lambdas", "direct", "reconstructed", "max_rel_err"}


def test_closed_sum_gap_decreases(ctx05):
    table = find_zeros(ctx05, 0.0, 10, tol=1e-40)
    gaps = [
        closed_sum_check(ctx05, 0.0, table.head(n), 0.4, tol=1e-30).gap
        for n in range(1, 11)
    ]
    for g0, g1 in zip(gaps, gaps[1:]):
        assert g1 < g0
    assert gaps[-1] < 1e-20


def test_closed_sum_check_at_pole(ctx05, table05):
    with pytest.raises(AtPole):
        closed_sum_check(ctx05, 0.0, table05, table05.zeros[1], tol=1e-13)
