"""The J series' memo of (q, alpha)-only ratio factors: every value equals
the one-expression ratio of tests/oracles.py bit for bit, and the memo
stays small while it saves the zero finder most of its q-powers.
"""

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from bigqbessel import QContext, bqbessel, eval_dJ_dz, eval_J, find_zeros

import oracles


def _bits(sv):
    return sv.value._mpf_, sv.abs_error._mpf_, sv.terms_used


def _assert_as_expression(q, alpha, x, z, tol):
    ctx = QContext(q)
    assert _bits(eval_J(ctx, alpha, x, z, tol)) == _bits(
        oracles.expression_J(q, alpha, x, z, tol)
    )
    assert _bits(eval_dJ_dz(ctx, alpha, x, z, tol)) == _bits(
        oracles.expression_dJ_dz(q, alpha, x, z, tol)
    )


def _wide(v):
    """v moved off the double grid: an mpf of 120 bits."""
    with mp.workprec(120):
        return mp.mpf(v) * (1 + mp.mpf(2) ** -90)


@settings(deadline=None, max_examples=60)
@given(
    q=st.one_of(
        st.sampled_from([0.3, 0.5, 0.8, 0.9]),
        st.floats(min_value=0.05, max_value=0.95),
    ),
    # the exponent 2 alpha + 2 + 2k of q is an integer (mpmath's integer
    # power), a half-integer (its square-root branch) or general
    # (exp(t log q))
    alpha=st.one_of(
        st.integers(min_value=0, max_value=3),
        st.sampled_from([-0.5, 0.5, 1.5, -0.75, 0.25]),
        st.floats(min_value=-0.99, max_value=3.0),
    ),
    x=st.sampled_from([0.0, 0.5, 1.0, 1.7, 30.0]),
    z=st.one_of(
        st.floats(min_value=-40.0, max_value=40.0),
        st.floats(min_value=1.0, max_value=3e3),
    ),
    tol=st.sampled_from([1e-8, 1e-15, 1e-30]),
    wide=st.booleans(),
)
def test_ratio_is_bit_identical_to_the_expression(q, alpha, x, z, tol, wide):
    if wide:
        q, alpha, x, z = _wide(q), _wide(alpha), _wide(x), _wide(z)
    _assert_as_expression(q, alpha, x, z, tol)


# more (q, alpha, tol) keys than the memo holds, visited in turn, so that
# entries are evicted and built again
KEYS = [
    (0.5, 0, 1e-12),
    (0.5, 0.5, 1e-12),
    (0.8, 1, 1e-15),
    (0.3, -0.5, 1e-12),
    (0.9, 1.33, 1e-12),
    (0.5, 0, 1e-30),
    (0.8, mp.mpf(1) / 3, 1e-20),
]


def test_evicted_entries_rebuild_the_same_bits(monkeypatch):
    built = []

    class Counted(bqbessel._Factors):
        def __init__(self, q, alpha):
            super().__init__(q, alpha)
            built.append((q, alpha, mp.mp.prec))

    monkeypatch.setattr(bqbessel, "_Factors", Counted)
    bqbessel._factors.cache_clear()
    for _ in range(3):
        for q, alpha, tol in KEYS:
            for x, z in ((1, 2.5), (0.5, 40.0), (1, -3.0)):
                _assert_as_expression(q, alpha, x, z, tol)
    assert len(built) > len(set(built))  # some entry was built twice


def _entries():
    return bqbessel._factors.cache_info().currsize


def _count_work(monkeypatch):
    """Counters of the factor rows built and the terms summed."""
    counts = {"rows": 0, "terms": 0}
    row = bqbessel._Factors._row
    sum_series = bqbessel.sum_series

    def counted_row(self):
        counts["rows"] += 1
        row(self)

    def counted_sum(*args, **kwargs):
        sv = sum_series(*args, **kwargs)
        counts["terms"] += sv.terms_used
        return sv

    monkeypatch.setattr(bqbessel._Factors, "_row", counted_row)
    monkeypatch.setattr(bqbessel, "sum_series", counted_sum)
    bqbessel._factors.cache_clear()
    return counts


@pytest.mark.parametrize("q,alpha,count", [(0.5, 0.0, 20), (0.9, 0.5, 19)])
def test_zero_finder_reuses_factor_rows(monkeypatch, q, alpha, count):
    counts = _count_work(monkeypatch)
    assert len(find_zeros(QContext(q), alpha, count, tol=1e-12)) == count
    assert counts["terms"] > 0
    assert counts["rows"] <= counts["terms"] / 4
    assert _entries() <= bqbessel._FACTOR_SLOTS


def test_memo_stays_bounded():
    ctx = QContext(0.5)
    for n in range(50):
        eval_J(ctx, n / 10, 1, 2.0, 1e-12)
        assert _entries() <= bqbessel._FACTOR_SLOTS
    assert bqbessel._FACTOR_SLOTS == 4
