"""Property-based checks (hypothesis) of the structural invariants:
q-integral linearity, q-integration by parts, classical-limit rate of the
q-derivative, series positivity, the non-increasing term ratio of the
J series on which its tail bound rests, and the "certified or typed"
contract of the L1 functions.
"""

import importlib.util
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from bigqbessel import (
    QContext,
    eval_big_cos,
    eval_big_sin,
    eval_dJ_dz,
    eval_J,
    q_derivative,
    q_derivative_inv,
    q_integral,
)
from bigqbessel.bqbessel import _j_ratio
from bigqbessel.errors import BigQBesselError

# The benchmark's reference series, which sums J from its product form
# with nothing of the library, loaded from its file (it is not a package).
_spec = importlib.util.spec_from_file_location(
    "reference", Path(__file__).parents[1] / "perfbench" / "reference.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

COMMON = dict(deadline=None, max_examples=25)


@settings(**COMMON)
@given(
    c1=st.floats(min_value=-3, max_value=3),
    c2=st.floats(min_value=-3, max_value=3),
    q=st.floats(min_value=0.2, max_value=0.9),
)
def test_q_integral_linearity(c1, c2, q):
    f1 = lambda x: x * x
    f2 = lambda x: 1 / (1 + x)
    comb = lambda x: c1 * f1(x) + c2 * f2(x)
    lhs = q_integral(comb, 1, q, tol=1e-13)
    i1 = q_integral(f1, 1, q, tol=1e-13)
    i2 = q_integral(f2, 1, q, tol=1e-13)
    rhs = c1 * i1.value + c2 * i2.value
    budget = lhs.abs_error + abs(c1) * i1.abs_error + abs(c2) * i2.abs_error
    assert abs(lhs.value - rhs) <= budget + 1e-12


@pytest.mark.parametrize("a", [1.0, 0.5])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
@settings(**COMMON)
@given(
    c=st.lists(
        st.integers(min_value=-3, max_value=3), min_size=2, max_size=4
    )
)
def test_q_integration_by_parts(a, q, c):
    # int_0^a D_{q^{-1}}[g] f d_q x
    #   = q [f g(x/q)]_0^a - q int_0^a D_q[f] g d_q x
    f = lambda x: x * x + 1
    g = lambda x: sum(ck * x ** (k + 1) for k, ck in enumerate(c))
    qm = mp.mpf(q)
    am = mp.mpf(a)
    lhs = q_integral(
        lambda x: q_derivative_inv(g, x, qm) * f(x), am, qm, tol=1e-14
    )
    boundary = qm * (f(am) * g(am / qm) - f(0) * g(0))
    tail = q_integral(
        lambda x: q_derivative(f, x, qm) * g(x), am, qm, tol=1e-14
    )
    rhs = boundary - qm * tail.value
    budget = lhs.abs_error + qm * tail.abs_error + mp.mpf("1e-11")
    assert abs(lhs.value - rhs) <= budget


def test_q_derivative_classical_rate():
    # |D_q f - f'| = O(1-q) for smooth f; for x^3 the constant is (2+q)x^2
    x = mp.mpf("0.7")
    errs = []
    for k in range(3, 11):
        q = 1 - mp.mpf(2) ** -k
        got = q_derivative(lambda t: t ** 3, x, q)
        errs.append(abs(got - 3 * x * x))
    for e0, e1 in zip(errs, errs[1:]):
        assert e1 < e0
    rates = [
        e / mp.mpf(2) ** -k for e, k in zip(errs, range(3, 11))
    ]
    for r in rates:
        assert mp.mpf("1.5") <= r / (x * x) <= mp.mpf("3.5")


@settings(**COMMON)
@given(
    q=st.floats(min_value=0.05, max_value=0.95),
    alpha=st.floats(min_value=-0.9, max_value=3.0),
    x=st.floats(min_value=0.0, max_value=2.0),
    z=st.floats(min_value=-5.0, max_value=-0.01),
)
def test_eval_J_positive_on_negative_z(q, alpha, x, z):
    ctx = QContext(q)
    assert eval_J(ctx, alpha, x, z, tol=1e-12).value >= 1


@settings(**COMMON)
@given(
    q=st.floats(min_value=0.1, max_value=0.9),
    x=st.floats(min_value=0.1, max_value=2.0),
    z=st.floats(min_value=0.01, max_value=2.0),
)
def test_eval_J_error_bound_is_honest(q, x, z):
    ctx = QContext(q)
    coarse = eval_J(ctx, 0, x, z, tol=1e-8)
    fine = eval_J(ctx, 0, x, z, tol=1e-20)
    assert abs(coarse.value - fine.value) <= coarse.abs_error + mp.mpf(
        "1e-18"
    )


def _signed_power(lo, hi):
    """+-10^e for e uniform in [lo, hi]."""
    return st.builds(
        lambda s, e: s * 10.0**e,
        st.sampled_from([1.0, -1.0]),
        st.floats(min_value=lo, max_value=hi),
    )


@settings(**COMMON)
@given(
    q=st.floats(min_value=0.05, max_value=0.999, exclude_min=True),
    alpha=st.floats(min_value=-1, max_value=3, exclude_min=True),
    x=st.one_of(st.just(0.0), _signed_power(-5, 5)),
    z=_signed_power(-6, 6),
    dps=st.sampled_from([30, 60, 200]),
)
def test_j_ratio_does_not_increase(q, alpha, x, z, dps):
    # the premise of the tail |t_(n+1)|/(1 - |r(n)|) that sum_series
    # reports: |r(k+1)| <= |r(k)|, alone and with the lead (k+1)/k of
    # eval_dJ_dz
    # _j_ratio takes alpha, x and z as the public entries pass them: mpf
    _, ratio = _j_ratio(mp.mpf(alpha), mp.mpf(x), mp.mpf(z), q)
    with mp.workdps(dps):
        plain = [abs(mp.make_mpf(ratio(k))) for k in range(61)]
        led = [abs(mp.make_mpf(ratio(k, True))) for k in range(1, 61)]
    for r in (plain, led):
        assert all(b <= a for a, b in zip(r, r[1:]))


# name: (the call, the order of the J it sums (None: the drawn alpha),
# whether it is dJ/dz, and whether its value is that J over 1 - q)
L1 = {
    "eval_J": (eval_J, None, False, False),
    "eval_dJ_dz": (eval_dJ_dz, None, True, False),
    "eval_big_cos": (lambda ctx, alpha, *a: eval_big_cos(ctx, *a), -0.5,
                     False, False),
    "eval_big_sin": (lambda ctx, alpha, *a: eval_big_sin(ctx, *a), 0.5,
                     False, True),
}


@settings(deadline=None, max_examples=300, derandomize=True)
@given(
    name=st.sampled_from(sorted(L1)),
    q=st.floats(min_value=0.3, max_value=0.95),
    alpha=st.floats(min_value=-1, max_value=2, exclude_min=True),
    x=st.floats(min_value=0, max_value=2),
    z=_signed_power(-3, 3),
    tol=st.floats(min_value=-40, max_value=-6).map(lambda e: 10.0**e),
    prec=st.integers(min_value=30, max_value=200),
    rounding=st.sampled_from("nfcdu"),
)
# alpha next to -1, where q^(2alpha+2) rounds to 1 in doubles
@example("eval_J", 0.9, -1 + 2**-53, 1.0, 2.0, 1e-13, 53, "n")
@example("eval_J", 0.99, -1 + 1e-15, 1.0, 2.0, 1e-13, 53, "n")
@example("eval_dJ_dz", 0.9, -1 + 2**-53, 1.0, 2.0, 1e-13, 53, "n")
@example("eval_dJ_dz", 0.99, -1 + 1e-15, 1.0, 2.0, 1e-13, 53, "n")
def test_l1_is_certified_or_typed(name, q, alpha, x, z, tol, prec, rounding):
    # at any caller precision and rounding an L1 call raises the
    # library's own error or returns a value within abs_error of the
    # reference series
    call, order, derivative, over_1mq = L1[name]
    saved = list(mp.mp._prec_rounding)
    mp.mp.prec, mp.mp._prec_rounding[1] = prec, rounding
    try:
        sv = call(QContext(q), alpha, x, z, tol)
    except BigQBesselError:
        return
    finally:
        mp.mp.prec, mp.mp._prec_rounding[1] = saved
    # |value - J/(1-q)| <= abs_error as |value (1-q) - J| <= abs_error (1-q),
    # in exact arithmetic
    c = mp.fsub(1, q, exact=True) if over_1mq else mp.mpf(1)
    bound = mp.fmul(sv.abs_error, c, exact=True)
    want, _ = reference.series(
        alpha if order is None else order, x, z, q, bound, derivative
    )
    diff = mp.fsub(mp.fmul(sv.value, c, exact=True), want, exact=True)
    assert -bound <= diff <= bound
