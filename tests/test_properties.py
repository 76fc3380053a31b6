"""Property-based checks (hypothesis) of the structural invariants:
Pochhammer splitting, q-integral linearity, q-integration by parts,
classical-limit rate of the q-derivative, and series positivity.
"""

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from bigqbessel import (
    QContext,
    eval_J,
    q_derivative,
    q_derivative_inv,
    q_integral,
    qpoch,
)

COMMON = dict(deadline=None, max_examples=25)


@settings(**COMMON)
@given(
    a=st.floats(min_value=-2, max_value=2),
    q=st.floats(min_value=0.1, max_value=0.9),
    n=st.integers(min_value=0, max_value=8),
    m=st.integers(min_value=0, max_value=8),
)
def test_qpoch_splitting(a, q, n, m):
    # (a; q)_{n+m} = (a; q)_n (a q^n; q)_m
    lhs = qpoch(a, q, n + m)
    rhs = qpoch(a, q, n) * qpoch(mp.mpf(a) * mp.mpf(q) ** n, q, m)
    assert abs(lhs - rhs) <= 1e-12 * max(1, abs(rhs))


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
