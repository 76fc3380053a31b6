"""The L3 memo of lattices and of the zero family's columns, norms and
Gram integrals: a result read from a warm memo equals the one computed
from a cold memo bit for bit, keys compare by value, the memo stays
within its slots, and calls on one zero table stop evaluating the table's
columns and norms again.
"""

import mpmath as mp
import pytest

from bigqbessel import (
    QContext,
    QLatticeSignal,
    closed_sum_check,
    eval_J,
    find_zeros,
    fourier_coefficients,
    gram_matrix,
    inner_product,
    lommel_integral_direct,
    norm_sq_closed,
    orthogonality,
    q_hankel_transform,
    reconstruct,
    sampling,
)
from bigqbessel.errors import DivergentSeries, NotAZero
from bigqbessel.qcalc import _workdigits

F = QLatticeSignal(values=[1.0, -0.5, 0.25, 0.125])
G = QLatticeSignal(values=[0.5, 2.0, -1.0])
PARAMS = [(0.5, 0.0), (0.3, 1.0)]
# 1e-13 and 1e-15 share a working precision: only tol tells their keys apart
TOLS = [1e-13, 1e-15]


@pytest.fixture(scope="module")
def tables():
    return {p: find_zeros(QContext(p[0]), p[1], 5, tol=1e-12) for p in PARAMS}


def _bits(v):
    """v with every mpf replaced by its _mpf_ tuple."""
    if isinstance(v, mp.mpf):
        return v._mpf_
    if isinstance(v, (list, tuple)):
        return [_bits(e) for e in v]
    if hasattr(v, "__dataclass_fields__"):
        return {k: _bits(getattr(v, k)) for k in v.__dataclass_fields__}
    return v


def _requests(tables):
    """(f, *args) of every memo caller at both tols, the two tables
    interleaved so that each request follows one on another memo key."""
    requests = []
    for tol in TOLS:
        rows = [
            [
                (gram_matrix, ctx, alpha, t.head(3), tol),
                (norm_sq_closed, ctx, alpha, t.zeros[1], t.derivs[1], tol),
                (fourier_coefficients, ctx, alpha, F, t, tol),
                (reconstruct, ctx, alpha, F, t, [0.7, 2.9], tol),
                (closed_sum_check, ctx, alpha, t, 0.7, tol),
                (q_hankel_transform, ctx, alpha, F, 1.3, tol),
                (inner_product, ctx, alpha, F, G, tol),
            ]
            for ctx, alpha, t in (
                (QContext(q), alpha, tables[q, alpha]) for q, alpha in PARAMS
            )
        ]
        for pair in zip(*rows):
            requests += pair
    return requests


def _cold(request):
    orthogonality._memo.cache_clear()
    return _bits(request[0](*request[1:]))


@pytest.mark.parametrize("dps", [None, 60])
def test_warm_memo_gives_the_cold_bits(tables, dps):
    requests = _requests(tables)
    cold = [_cold(r) for r in requests]
    orthogonality._memo.cache_clear()
    with mp.workdps(dps or mp.mp.dps):
        # every request reads what the others left, in both orders
        for order in (1, -1):
            for r, want in list(zip(requests, cold))[::order]:
                assert _bits(r[0](*r[1:])) == want, r


def _entries():
    return orthogonality._memo.cache_info().currsize


def _lattice(q, alpha, tol):
    """The memo entry that the unit-lattice calls at (q, alpha, tol) read."""
    with mp.workdps(_workdigits(tol)):
        return orthogonality._lattice(QContext(q), alpha, tol)


def test_alpha_by_value_shares_one_entry(tables):
    t = tables[0.5, 0.0]
    orthogonality._memo.cache_clear()
    got = [_bits(fourier_coefficients(QContext(0.5), a, F, t))
           for a in (0, 0.0, mp.mpf(0))]
    assert got[0] == got[1] == got[2]
    assert _entries() == 1
    assert len(_lattice(mp.mpf(0.5), 0, 1e-13)._basis) == len(t)
    assert _entries() == 1


def test_memo_stays_within_its_slots_and_rebuilds_the_same_bits(
    tables, monkeypatch
):
    # more lattice keys than slots, and more zeros than column slots
    monkeypatch.setattr(orthogonality, "_BASIS_SLOTS", 3)
    keys = [(p, tol) for tol in (1e-13, 1e-16, 1e-20) for p in PARAMS]
    assert len(keys) > orthogonality._LATTICE_SLOTS
    orthogonality._memo.cache_clear()
    first = {}
    for _ in range(2):
        for (q, alpha), tol in keys:
            got = _bits(
                fourier_coefficients(QContext(q), alpha, F, tables[q, alpha], tol)
            )
            assert first.setdefault((q, alpha, tol), got) == got
            assert _entries() <= orthogonality._LATTICE_SLOTS
            assert len(_lattice(q, alpha, tol)._basis) == 3


def test_column_slots_bound_the_norms_and_gram_integrals(tables, monkeypatch):
    # a norm and the Gram integrals go with their zero's column; a Gram of
    # more zeros than slots keeps no integral against an evicted column
    monkeypatch.setattr(orthogonality, "_BASIS_SLOTS", 3)
    ctx, t = QContext(0.5), tables[0.5, 0.0]
    orthogonality._memo.cache_clear()
    first = _bits(gram_matrix(ctx, 0.0, t))
    for n in (2, 3, 5, 4, 5):
        report = _bits(gram_matrix(ctx, 0.0, t.head(n)))
        assert report["norm_closed"] == first["norm_closed"][:n]
        assert report["matrix"] == [row[:n] for row in first["matrix"][:n]]
        basis = _lattice(0.5, 0.0, 1e-13)._basis
        assert len(basis) == 3
        # the norms live on the 3 kept columns, their integrals against them
        kept = {col._z for col in basis.values()}
        for col in basis.values():
            assert set(col.grams) <= kept


def _count_eval_J(monkeypatch, kernel_calls=None):
    """The (order, x, z) of every eval_J call of the L3 modules, of every
    eval_dJ_dz call of the closed-form norms, and of every entry that the
    lattice columns' kernel evaluates; kernel_calls, if given, gets the
    number of entries of each kernel call."""
    calls = []

    def count(mod, name):
        def counted(ctx, order, x, z, tol, _f=getattr(mod, name)):
            calls.append((mp.mpf(order), mp.mpf(x), mp.mpf(z)))
            return _f(ctx, order, x, z, tol)

        monkeypatch.setattr(mod, name, counted)

    def column(order, xs, z, q, tol, _f=orthogonality._j_column):
        calls.extend((mp.mpf(order), mp.mpf(x), mp.mpf(z)) for x in xs)
        if kernel_calls is not None:
            kernel_calls.append(len(xs))
        return _f(order, xs, z, q, tol)

    for mod in (orthogonality, sampling):
        count(mod, "eval_J")
    count(orthogonality, "eval_dJ_dz")
    monkeypatch.setattr(orthogonality, "_j_column", column)
    return calls


def test_second_gram_evaluates_no_column(tables, monkeypatch):
    calls = _count_eval_J(monkeypatch)
    ctx, t = QContext(0.3), tables[0.3, 1.0]
    orthogonality._memo.cache_clear()

    def column_calls():
        # column entries are J_{alpha+1}(q^m, j_k^2), 0 < q^m <= 1; the
        # closed-form norms evaluate J_{alpha+1} at x = 0 and 1/q only
        return [c for c in calls if c[0] == 2 and 0 < c[1] <= 1]

    first = _bits(gram_matrix(ctx, 1.0, t))
    assert len(column_calls()) >= 64 * len(t)
    del calls[:]
    assert _bits(gram_matrix(ctx, 1.0, t)) == first
    assert calls == []


def test_fourier_after_gram_evaluates_no_norm(tables, monkeypatch):
    calls = _count_eval_J(monkeypatch)
    ctx, t = QContext(0.5), tables[0.5, 0.0]
    orthogonality._memo.cache_clear()
    gram_matrix(ctx, 0.0, t.head(4))
    del calls[:]
    # F's 4 lattice points lie within the columns' 64 Gram entries
    fourier_coefficients(ctx, 0.0, F, t.head(4))
    assert calls == []


def test_a_non_zero_raises_each_time_and_keeps_no_norm(monkeypatch):
    calls = _count_eval_J(monkeypatch)
    ctx = QContext(0.5)
    orthogonality._memo.cache_clear()
    for _ in range(2):
        del calls[:]
        with pytest.raises(NotAZero):
            norm_sq_closed(ctx, 0.0, 0.9, 1.0)
        assert calls  # the residual is evaluated again
    assert len(_lattice(0.5, 0.0, 1e-13)._basis) == 0


def test_closed_sum_after_reconstruct_evaluates_its_lambda_only(
    tables, monkeypatch
):
    calls = _count_eval_J(monkeypatch)
    ctx, t = QContext(0.5), tables[0.5, 0.0]
    orthogonality._memo.cache_clear()
    reconstruct(ctx, 0.0, F, t, [0.7, 2.9])
    del calls[:]
    closed_sum_check(ctx, 0.0, t, 0.7)
    # J_alpha(1, lambda) and J_{alpha+1}(1, lambda), both at z = 0.7^2
    assert sorted(c[:2] for c in calls) == [(0, 1), (1, 1)]
    assert calls[0][2] == calls[1][2]
    assert abs(calls[0][2] - 0.49) < 1e-15


def test_a_transform_column_costs_one_kernel_call(tables, monkeypatch):
    # the entries a signal reads, f[m] != 0, in one kernel call per column
    kernel_calls = []
    calls = _count_eval_J(monkeypatch, kernel_calls)
    ctx = QContext(0.5)
    orthogonality._memo.cache_clear()
    q_hankel_transform(ctx, 0.0, F, 1.3)
    assert kernel_calls == [len(F)]
    assert [c[1] for c in calls] == [mp.mpf(0.5) ** m for m in range(len(F))]
    del kernel_calls[:]
    q_hankel_transform(ctx, 0.0, QLatticeSignal([0.0, 2.0, 0.0, 1.0]), 1.3)
    assert kernel_calls == [2]
    # reconstruct: one call per zero's column and one per lambda
    del kernel_calls[:]
    reconstruct(ctx, 0.0, F, tables[0.5, 0.0], [0.7, 2.9])
    assert kernel_calls == [len(F)] * (len(tables[0.5, 0.0]) + 2)
    # a two-column Jackson sum: both 64-entry heads, then one entry a call
    del kernel_calls[:]
    lommel_integral_direct(ctx, 0.0, 0.7, 2.9)
    assert kernel_calls[:2] == [64, 64]
    assert set(kernel_calls[2:]) <= {1}


def test_a_failed_column_leaves_the_caller_and_the_memo_as_they_were():
    # at q = 0.999 the entry x = 1 at lambda = 1000 exceeds eval_J's
    # default term budget; the transform raises eval_J's error, restores
    # mpmath's precision, and leaves a lattice that serves the next call
    # as a cold one would
    ctx = QContext(0.999)
    orthogonality._memo.cache_clear()
    with pytest.raises(DivergentSeries) as want:
        eval_J(ctx, 1, 1, mp.mpf(1000.0) ** 2)
    with mp.workprec(80):
        with pytest.raises(DivergentSeries) as got:
            q_hankel_transform(ctx, 0, F, 1000.0)
        assert mp.mp.prec == 80
    assert str(got.value) == str(want.value)
    warm = _bits(q_hankel_transform(ctx, 0, F, 0.7))
    assert warm == _cold((q_hankel_transform, ctx, 0, F, 0.7))
