"""The J series' memo of (q, alpha)-only ratio factors and x rows, and
the raw-tuple exact pass of sum_series with its exponent pre-test: every
value and stop decision equals the one-expression ratio of
tests/oracles.py summed on mpf objects (oracles.sum_series_mpf) bit for
bit, and the memo stays small while it saves the zero finder most of its
q-powers and libmp calls.  The lattice's column kernel, which sums
through the same engine without eval_J's gates, gives eval_J's values
bit for bit, and a pass that raises leaves the caller's precision.
"""

import functools
import math
import types

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import fone, from_float, fzero

from bigqbessel import QContext, bqbessel, eval_dJ_dz, eval_J, find_zeros
from bigqbessel.errors import DivergentSeries
from bigqbessel.qcalc import sum_series

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


def _wide_tol(v):
    """v/3 as an mpf of 120 bits, more than a 30-digit working precision
    (103 bits) holds."""
    with mp.workprec(120):
        return mp.mpf(v) / 3


# q and alpha are exact in 30 bits; x and z are not
EDGE_POINTS = [
    (0.5, 0, 1, 2.5),
    (0.75, 1.5, 0.3, 40.0),
    (0.25, -0.5, 1.7, -3e3),
    (0.5, 0.5, 30.0, 0.7),
]


@pytest.mark.parametrize("q,alpha,x,z", EDGE_POINTS)
@pytest.mark.parametrize(
    "caller_prec,tol",
    [
        (30, 1e-12),
        (30, 1e-30),
        (None, _wide_tol(3e-4)),
        (None, _wide_tol(3e-15)),
        (None, 1),
        (30, 1),
    ],
)
def test_precision_and_tol_edges(q, alpha, x, z, caller_prec, tol):
    # the working precision and rounding come from the context inside
    # sum_series whatever the caller's precision; an mpf tol and an int tol
    # are converted as mpf arithmetic converts them
    if caller_prec is None:
        _assert_as_expression(q, alpha, x, z, tol)
    else:
        with mp.workprec(caller_prec):
            _assert_as_expression(q, alpha, x, z, tol)


def test_an_mpf_tol_rounds_where_mpf_arithmetic_rounds_it():
    # While |s| <= 1, tol max(1, |s|) is tol * 1, which rounds an mpf tol
    # to the working precision (30 digits here).  This tol rounds up there,
    # to t_0, so the one-term series stops at once; compared with the
    # unrounded tol it would take a second term.
    with mp.workdps(30):
        prec = mp.mp.prec
    with mp.workprec(prec + 20):
        t0 = mp.mpf(2) ** -12 * (1 + mp.mpf(2) ** (1 - prec))
        tol = t0 - mp.mpf(2) ** (-12 - prec - 10)
    assert tol < t0
    args = (-3.6, lambda k: -100.0)
    got = sum_series(*args, lambda: t0._mpf_, lambda k: fzero, tol)
    want = oracles.sum_series_mpf(*args, lambda: t0, lambda k: mp.mpf(0), tol)
    assert _bits(got) == _bits(want)
    assert got.terms_used == 1


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
    """Counters of the factor rows and lead rows built and the terms
    summed."""
    counts = {"rows": 0, "lead_rows": 0, "terms": 0}
    row = bqbessel._Factors._row
    lead_row = bqbessel._Factors._lead_row
    sum_series = bqbessel.sum_series

    def counted_row(self):
        counts["rows"] += 1
        row(self)

    def counted_lead_row(self):
        counts["lead_rows"] += 1
        lead_row(self)

    def counted_sum(*args, **kwargs):
        sv = sum_series(*args, **kwargs)
        counts["terms"] += sv.terms_used
        return sv

    monkeypatch.setattr(bqbessel._Factors, "_row", counted_row)
    monkeypatch.setattr(bqbessel._Factors, "_lead_row", counted_lead_row)
    monkeypatch.setattr(bqbessel, "sum_series", counted_sum)
    bqbessel._factors.cache_clear()
    return counts


@pytest.mark.parametrize("q,alpha,count", [(0.5, 0.0, 20), (0.9, 0.5, 19)])
def test_zero_finder_reuses_factor_rows(monkeypatch, q, alpha, count):
    counts = _count_work(monkeypatch)
    assert len(find_zeros(QContext(q), alpha, count, tol=1e-12)) == count
    assert counts["terms"] > 0
    assert counts["lead_rows"] > 0
    assert counts["rows"] + counts["lead_rows"] <= counts["terms"] / 4
    assert _entries() <= bqbessel._FACTOR_SLOTS


def test_lead_rows_are_built_only_for_dJ_dz(monkeypatch):
    counts = _count_work(monkeypatch)
    ctx = QContext(0.5)
    for alpha in (0, 0.5, 1.33):
        for z in (2.5, 40.0, -3.0, 1e3):
            eval_J(ctx, alpha, 1, z, 1e-15)
    assert counts["rows"] > 0
    assert counts["lead_rows"] == 0
    eval_dJ_dz(ctx, 0.5, 1, 40.0, 1e-15)
    assert counts["lead_rows"] > 0


# (q, alpha): the exponents 2 alpha + 2 + 2k of q are integers (mpmath's
# integer power), half-integers (its square-root branch) or general
# (exp(t log q)); one q is off the double grid
ROW_CASES = [
    (0.3, 2),
    (0.8, 0.5),
    (0.55, 0.25),
    (0.9, -0.75),
    (0.5, 0.37),
    (_wide(0.7), _wide(1.3)),
]


@pytest.mark.parametrize("q,alpha", ROW_CASES)
@pytest.mark.parametrize("prec", [53, 130, 332, 700, 2000])
def test_factor_rows_are_the_expressions_bit_for_bit(q, alpha, prec):
    # the rows are built with mpmath.libmp on raw tuples, with mpf_pow's
    # log q taken once per entry; this pins them to the mpf expressions
    # under every rounding mode, which the memo keys on
    rows = 60
    with mp.workprec(prec):
        saved = mp.mp._prec_rounding[1]
        try:
            for rnd in "nfcdu":
                mp.mp._prec_rounding[1] = rnd
                f = bqbessel._factors(q, alpha, *mp.mp._prec_rounding)
                while len(f.D) < rows:
                    f._row()
                while len(f.L) < rows:
                    f._lead_row()
                got = (f.A, f.T, f.p, f.D, f.L)
                assert got == oracles.factor_rows_expression(q, alpha, rows)
        finally:
            mp.mp._prec_rounding[1] = saved


@pytest.mark.parametrize(
    "alpha,calls", [(0.37, 1), (0, 0), (1, 0), (0.5, 0), (-0.5, 0), (0.25, 0)]
)
def test_log_q_is_taken_once_per_entry(monkeypatch, alpha, calls):
    # mpmath's mpf_pow(q, t) takes log q for every t that is neither an
    # integer nor a half-integer; the entry takes it once for all its rows
    from mpmath.libmp import libelefun

    seen = []
    log = libelefun.mpf_log

    def counted_log(*args):
        seen.append(args)
        return log(*args)

    monkeypatch.setattr(bqbessel, "mpf_log", counted_log)
    monkeypatch.setattr(libelefun, "mpf_log", counted_log)
    with mp.workdps(40):
        f = bqbessel._Factors(0.5, alpha)
        for _ in range(60):
            f._row()
    assert len(seen) == calls


def test_memo_stays_bounded():
    ctx = QContext(0.5)
    for n in range(50):
        eval_J(ctx, n / 10, 1, 2.0, 1e-12)
        assert _entries() <= bqbessel._FACTOR_SLOTS
    assert bqbessel._FACTOR_SLOTS == 4


# Synthetic series for the stop test: t_0 and the ratios are doubles, so
# the raw and the mpf loop read the same exact values.  With |r| in
# [0.8, 0.95], or |r| = 1/2 exactly, the last terms before the stop lie
# within a factor 4 of tol max(1, |s|), where sum_series' exponent
# pre-test hands the decision to the mpf test; the sums end on both sides
# of |s| = 1.
def _ratios(sign, base):
    if base == 0.5:
        return lambda k: sign * 0.5
    return lambda k: sign * (base + 0.15 * ((k * 0.6180339887) % 1))


STOP_CASES = [
    # (t_0, sign of r, |r| base, tol), and the sum
    (1.0, -1, 0.5, 2.0**-20),  # |t_20| = tol exactly; s = 2/3
    (3.0, 1, 0.5, 2.0**-20),  # s = 6, tol |s| 3 times a power of 2
    (1.68, -1, 0.8, 1e-12),  # s = 0.98
    (1.75, -1, 0.8, 1e-12),  # s = 1.02
    (1.9, -1, 0.8, 3e-8),  # s = 1.11
    (2.1, -1, 0.8, 1e-3),  # s = 1.22
    (0.5, -1, 0.8, 1e-12),  # s = 0.29
    (0.134, 1, 0.8, 1e-15),  # terms of one sign: s = 0.99
    (0.2, 1, 0.8, 1e-15),  # s = 1.48
    (40.0, -1, 0.8, 1e-9),  # s = 23
    (1.0, -1, 0.8, _wide_tol(3e-10)),  # an mpf tol off the working grid
]


@pytest.mark.parametrize("t0,sign,base,tol", STOP_CASES)
@pytest.mark.parametrize("rnd", "nfcdu")
def test_stop_test_near_the_bound_is_the_mpf_test(t0, sign, base, tol, rnd):
    ratio = _ratios(sign, base)
    log_ratio = lambda k: math.log10(abs(ratio(k)))  # noqa: E731
    args = (math.log10(t0), log_ratio)
    saved = mp.mp._prec_rounding[1]
    try:
        mp.mp._prec_rounding[1] = rnd
        got = sum_series(
            *args, lambda: from_float(t0), lambda k: from_float(ratio(k)), tol
        )
        want = oracles.sum_series_mpf(
            *args, lambda: mp.mpf(t0), lambda k: mp.mpf(ratio(k)), tol
        )
    finally:
        mp.mp._prec_rounding[1] = saved
    assert _bits(got) == _bits(want)
    # the stopping term and the one before it lie within a factor 4 of the
    # bound tol max(1, |s|)
    n = got.terms_used
    last = abs(t0 * math.prod(ratio(k) for k in range(n - 1)))
    bound = float(tol) * max(1.0, abs(float(got.value)))
    assert bound / 4 <= last <= bound
    assert bound < last / abs(ratio(n - 2)) <= 4 * bound


def test_one_entry_serves_x_in_turn(monkeypatch):
    # at a z this small no term exceeds 1, so eval_J and eval_dJ_dz sum at
    # the same precision, whatever x, and share one memo entry, whose x
    # rows change hands at every call
    built = []

    class Counted(bqbessel._Factors):
        def __init__(self, q, alpha):
            super().__init__(q, alpha)
            built.append(self)

    monkeypatch.setattr(bqbessel, "_Factors", Counted)
    bqbessel._factors.cache_clear()
    q, alpha, z, tol = 0.7, 0.5, 0.5, 1e-20
    for x in (1, 0.5, 1, 0):
        _assert_as_expression(q, alpha, x, z, tol)
    assert len(built) == 1
    assert built[0].x2 == fzero  # the last x served
    # a ratio that holds the rows of its x keeps them while another x
    # takes the entry over
    log1, r1 = bqbessel._j_ratio(mp.mpf(alpha), mp.mpf(1), mp.mpf(z), q)
    _, r5 = bqbessel._j_ratio(mp.mpf(alpha), mp.mpf(0.5), mp.mpf(z), q)
    _, want1 = oracles.ratio_expression(alpha, 1, z, q)
    _, want5 = oracles.ratio_expression(alpha, 0.5, z, q)
    with mp.workdps(40):
        for k in range(12):
            assert r1(k) == want1(k)._mpf_
            assert r5(k) == want5(k)._mpf_
        for k in range(12, 24):
            assert r1(k) == want1(k)._mpf_
        for k in range(1, 24):
            lead = mp.mpf(k + 1) / k
            assert r5(k, True) == want5(k, lead)._mpf_
            assert r1(k, True) == want1(k, lead)._mpf_


# libmp calls of the J series (the exact pass, its ratio and the factor
# and x rows) per summed term in find_zeros(0.9, 1/2, 19, 1e-12), from a
# cold memo: 9.69 when each ratio combined x^2 + q^(2k), T_k, z and D_k and
# each term ran the full mpf stop test, 5.38 since
ENGINE_CALLS_PER_TERM = 6.0


def test_engine_libmp_calls_per_term(monkeypatch):
    from bigqbessel import qcalc

    counts = {"calls": 0, "terms": 0}

    def counted(f):
        def call(*args):
            counts["calls"] += 1
            return f(*args)

        return call

    for module in (qcalc, bqbessel):
        for name in ("mpf_mul", "mpf_add", "mpf_div", "mpf_abs"):
            if hasattr(module, name):
                monkeypatch.setattr(
                    module, name, counted(getattr(module, name))
                )
    summed = bqbessel.sum_series

    def counted_sum(*args, **kwargs):
        sv = summed(*args, **kwargs)
        counts["terms"] += sv.terms_used
        return sv

    monkeypatch.setattr(bqbessel, "sum_series", counted_sum)
    bqbessel._factors.cache_clear()
    assert len(find_zeros(QContext(0.9), 0.5, 19, tol=1e-12)) == 19
    assert counts["terms"] > 0
    assert counts["calls"] <= ENGINE_CALLS_PER_TERM * counts["terms"]


@pytest.mark.parametrize("q,alpha", [(0.9, -1 + 2**-53), (0.99, -1 + 1e-15)])
def test_an_order_next_to_minus_one_evaluates_alike_twice(q, alpha):
    # q^(2alpha+2) rounds to 1 in doubles, so the float pass takes
    # log10(1 - q^(2alpha+2)) from expm1, and a second call reads the rows
    # the first one left
    for f in (eval_J, eval_dJ_dz):
        bqbessel._float_rows.cache_clear()
        bqbessel._factors.cache_clear()
        first = _bits(f(QContext(q), alpha, 1.0, 2.0))
        assert _bits(f(QContext(q), alpha, 1.0, 2.0)) == first


class _Interrupted(Exception):
    """Raised from inside a row build by the test below."""


def _raising_at(n, f):
    """f, except that its n-th call raises _Interrupted."""
    calls = [0]

    def call(*args):
        calls[0] += 1
        if calls[0] == n:
            raise _Interrupted
        return f(*args)

    return call


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 14])
def test_a_row_build_that_raises_leaves_the_entry_as_it_was(monkeypatch, n):
    # a build interrupted at any point leaves rows that later calls read
    # as a fresh entry's, bit for bit
    calls = [(f, QContext(0.37), 0.41, 0.7, 25.0) for f in (eval_J, eval_dJ_dz)]

    def run():
        return [_bits(f(*args)) for f, *args in calls]

    def clear():
        bqbessel._factors.cache_clear()
        bqbessel._float_rows.cache_clear()

    clear()
    want = run()
    flaky_math = types.ModuleType("math")
    flaky_math.__dict__.update(vars(math))
    flaky_math.log10 = _raising_at(n, math.log10)
    for target, name, flaky in (
        (bqbessel._Factors, "_pow", _raising_at(n, bqbessel._Factors._pow)),
        (bqbessel, "math", flaky_math),
    ):
        clear()
        with monkeypatch.context() as m:
            m.setattr(target, name, flaky)
            for f, *args in calls:
                try:
                    f(*args)
                except _Interrupted:
                    pass
        assert run() == want


@pytest.fixture(scope="module")
def zeros05():
    """j_10 and j_20 of (q, alpha) = (0.5, 0)."""
    t = find_zeros(QContext(0.5), 0, 20, tol=1e-12)
    return t.zeros[9], t.zeros[19]


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 0.9])
@pytest.mark.parametrize("alpha", [-0.4, 0, 1])
@pytest.mark.parametrize("tol", [1e-13, 1e-30, mp.mpf("1e-400")])
@pytest.mark.parametrize("prec", [53, 200])
def test_column_kernel_gives_the_bits_of_eval_J(
    monkeypatch, zeros05, q, alpha, tol, prec
):
    # the lattice's column of J_{alpha+1}(q^m, z), m < 70, from one kernel
    # call per z; along a column the working precision of the entries
    # changes, and at z = 0 every entry is 1.  The factor rows depend on
    # neither caller, so a memo that keeps every precision of the column
    # lets eval_J read the rows the kernel built instead of building them
    # again (both sides built every row with the memo's 4 slots).
    factors = functools.lru_cache(maxsize=None)(bqbessel._factors.__wrapped__)
    monkeypatch.setattr(bqbessel, "_factors", factors)
    ctx = QContext(q)
    with mp.workprec(prec):
        order = mp.mpf(alpha) + 1
        xs = [mp.mpf(q) ** m for m in range(70)]
        for z in [mp.mpf(0), mp.mpf(0.01), mp.mpf(1), mp.mpf(9)] + [
            j * j for j in zeros05
        ]:
            factors.cache_clear()
            got = bqbessel._j_column(order, xs, z, q, tol)
            assert mp.mp.prec == prec
            want = [eval_J(ctx, order, x, z, tol).value._mpf_ for x in xs]
            assert got == want, (z, [m for m in range(70) if got[m] != want[m]])


@pytest.mark.parametrize("stuck", ["float pass", "exact pass"])
@pytest.mark.parametrize("caller", ["eval_J", "column"])
def test_a_pass_that_raises_leaves_the_callers_precision(
    monkeypatch, stuck, caller
):
    # at x = 1/2 the series is synthetic: with log10|r| = 0 the float pass
    # never decays; with log10|r| = -1 it decays while the exact ratio
    # stays 1, so the exact pass never meets the truncation rule.  The
    # column fails at its second entry, after its first has set mpmath's
    # precision.
    j_ratio = bqbessel._j_ratio
    log_r = 0.0 if stuck == "float pass" else -1.0

    def synthetic(alpha, x, z, q):
        if x != 0.5:
            return j_ratio(alpha, x, z, q)
        return (lambda k, lead=1.0: log_r), (lambda k, led=False: fone)

    monkeypatch.setattr(bqbessel, "_j_ratio", synthetic)
    calls = {
        "eval_J": lambda: eval_J(QContext(0.5), 0, 0.5, 2.0, terms_max=60),
        "column": lambda: bqbessel._j_column(
            mp.mpf(1), [mp.mpf(1), mp.mpf(0.5)], mp.mpf(2), 0.5, 1e-13
        ),
    }
    message = {"float pass": "failed to decay", "exact pass": "not certified"}
    with mp.workprec(80):
        with pytest.raises(DivergentSeries, match=message[stuck]):
            calls[caller]()
        assert mp.mp.prec == 80
