"""Zero location: frozen-oracle values, ordering/simplicity invariants,
stability under grid refinement, serialization round-trip, and failure
modes of the scanner and refiner.
"""

import hashlib
import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from bigqbessel import QContext, ZeroTable, eval_J, find_zeros, refine_zero
from bigqbessel import zerofinder
from bigqbessel.bqbessel import _j_sign
from bigqbessel.defaults import RESIDUAL_TOL, SUBDIVISIONS
from bigqbessel.errors import (
    BracketingFailure,
    InvalidArgument,
    InvalidOrder,
    NoSignChange,
)

import oracles


def test_zeros_match_frozen_oracle_q05(table05):
    assert len(table05) == 5
    for got, want in zip(table05.zeros, oracles.ZEROS_Q05_A0):
        assert abs(got - want) <= 1e-12 * want


def test_zeros_match_frozen_oracle_q08(table08):
    for got, want in zip(table08.zeros, oracles.ZEROS_Q08_A05):
        assert abs(got - want) <= 1e-12 * want


def test_zeros_strictly_increasing_and_simple(table05, table08):
    for table in (table05, table08):
        for a, b in zip(table.zeros, table.zeros[1:]):
            assert a < b
        for d in table.derivs:
            assert abs(d) > 1e-12
        for r in table.residuals:
            assert r <= 1e-12


def test_residuals_verify_independently(ctx05, table05):
    # re-evaluate |J_0(1, j_k)| on the brute-force series
    for lam in table05.zeros:
        with mp.workdps(40):
            z = lam * lam
        g = oracles.brute_J(0.0, 1.0, z, 0.25)
        assert abs(g) <= 1e-11


def test_derivative_sign_alternates(table05):
    # simple zeros of a real entire function: slopes alternate in sign
    signs = [mp.sign(d) for d in table05.derivs]
    for s0, s1 in zip(signs, signs[1:]):
        assert s0 == -s1


def test_stability_under_grid_halving(monkeypatch, ctx05, table05):
    # halving the geometric scan step must reproduce the same zeros
    monkeypatch.setattr(zerofinder, "RHO_EXPONENT", -0.25)
    alt = find_zeros(ctx05, 0.0, 5, tol=1e-12)
    for a, b in zip(table05.zeros, alt.zeros):
        assert abs(a - b) <= 1e-10 * b


def test_matches_dense_grid_oracle(table05, table08):
    for table, lam_hi in ((table05, 33.0), (table08, 4.0)):
        oracle = oracles.dense_grid_zeros(
            table.q, table.alpha, 5, 0.05, lam_hi
        )
        assert len(oracle) == 5
        for got, want in zip(table.zeros, oracle):
            assert abs(got - want) <= 1e-8 * want


def test_zero_table_roundtrip(table05):
    d = table05.to_dict()
    back = ZeroTable.from_dict(d)
    assert back.q == table05.q
    assert back.alpha == table05.alpha
    for a, b in zip(back.zeros, table05.zeros):
        assert abs(a - b) <= 1e-15 * b


def test_zero_table_head(table05):
    h = table05.head(3)
    assert len(h) == 3
    assert h.zeros == table05.zeros[:3]


def test_zero_table_validation():
    with pytest.raises(ValueError):
        ZeroTable(0.5, 0.0, [mp.mpf(2), mp.mpf(1)], [mp.mpf(1)] * 2,
                  [mp.mpf(0)] * 2)
    with pytest.raises(ValueError):
        ZeroTable(0.5, 0.0, [mp.mpf(-1)], [mp.mpf(1)], [mp.mpf(0)])


def test_refine_zero_requires_sign_change(ctx05):
    with pytest.raises(NoSignChange):
        refine_zero(ctx05, 0.0, 0.01, 0.02, tol=1e-9)


def test_refine_zero_on_oracle_bracket(ctx05):
    lam1 = oracles.ZEROS_Q05_A0[0]
    z, deriv, _ = refine_zero(
        ctx05, 0.0, float(lam1) ** 2 * 0.9, float(lam1) ** 2 * 1.1,
        tol=1e-12,
    )
    assert abs(mp.sqrt(z) - lam1) <= 1e-12 * lam1
    assert abs(deriv) > 1e-3


def test_find_zeros_rejects_bad_inputs(ctx05):
    with pytest.raises(InvalidOrder):
        find_zeros(ctx05, -0.5, 3)
    with pytest.raises(ValueError):
        find_zeros(ctx05, 0.0, 0)


INVALID_TOL_OR_COUNT = [
    (find_zeros, (0.0, 3, math.inf), "tol must be a finite number > 0; got inf"),
    (find_zeros, (0.0, 3, -1.0), "tol must be a finite number > 0; got -1.0"),
    (find_zeros, (0.0, 3, 0.0), "tol must be a finite number > 0; got 0.0"),
    (find_zeros, (0.0, 0), "count must be an integer >= 1; got 0"),
    (find_zeros, (0.0, -2), "count must be an integer >= 1; got -2"),
    (find_zeros, (0.0, 2.5), "count must be an integer >= 1; got 2.5"),
    (refine_zero, (0.0, 1.0, 2.0, math.inf),
     "tol must be a finite number > 0; got inf"),
    (refine_zero, (0.0, 1.0, 2.0, -1.0),
     "tol must be a finite number > 0; got -1.0"),
    (refine_zero, (0.0, 1.0, 2.0, math.nan),
     "tol must be a finite number > 0; got nan"),
]


@pytest.mark.parametrize(
    "fn,args,message",
    INVALID_TOL_OR_COUNT,
    ids=[f"{fn.__name__}{args}" for fn, args, _ in INVALID_TOL_OR_COUNT],
)
def test_invalid_tol_and_count_name_the_callers_value(ctx05, fn, args, message):
    with pytest.raises(InvalidArgument) as info:
        fn(ctx05, *args)
    assert str(info.value) == message


def test_scan_ceiling_raises(monkeypatch, ctx05):
    monkeypatch.setattr(zerofinder, "SCAN_MAX_STEPS", 1)
    with pytest.raises(BracketingFailure, match="scan ceiling of 1 steps"):
        find_zeros(ctx05, 0.0, 3)


def test_no_zeros_for_negative_z(ctx05):
    # realness: J_0(1, z) >= 1 for z < 0, so the lambda-zeros are real
    for z in (-0.5, -4.0, -100.0):
        assert eval_J(ctx05, 0.0, 1.0, z, tol=1e-13).value >= 1


# sha256 of the _mpf_ tuples of zeros, derivs and residuals, as the scan
# that evaluated J at every point produced them.
PINNED_TABLES = {
    (0.9, 0.5, 19, 1e-12):
        "4eff3d272c0dbac3ff300d16ddf116855bda2849953c0c8d460c32e5e26c0ba1",
    (0.3, 1.0, 13, 1e-30):
        "3c77ccc8f3ee98c8cde599a828ca966ca459e18b379c3938fe15dc7bd294b9d5",
    (0.8, 1.0, 19, 1e-30):
        "43477ccd2b14120765c46d6de560e025c747cda8c31282e2a2ed1b309bf5266c",
}


def _digest(table):
    cols = [
        [tuple(map(int, v._mpf_)) for v in col]
        for col in (table.zeros, table.derivs, table.residuals)
    ]
    return hashlib.sha256(repr(cols).encode()).hexdigest()


@pytest.mark.parametrize("params", PINNED_TABLES)
def test_tables_pinned_bit_for_bit(params):
    q, alpha, count, tol = params
    table = find_zeros(QContext(q), alpha, count, tol=tol)
    assert _digest(table) == PINNED_TABLES[params]


@pytest.mark.parametrize("q,alpha,count", [(0.5, 0.0, 20), (0.9, 0.5, 19)])
def test_scan_needs_few_J_evaluations_per_zero(monkeypatch, q, alpha, count):
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return eval_J(*args, **kwargs)

    monkeypatch.setattr(zerofinder, "eval_J", counted)
    table = find_zeros(QContext(q), alpha, count, tol=1e-12)
    assert len(table) == count
    assert calls <= 15 * count


def test_find_zeros_repeats_no_J_evaluation(monkeypatch):
    # the residual of a zero is J from the last Newton step, not a new
    # evaluation at the same point
    calls = []

    def recorded(ctx, alpha, x, z, tol):
        calls.append((ctx.q, alpha, x, getattr(z, "_mpf_", z), tol))
        return eval_J(ctx, alpha, x, z, tol)

    monkeypatch.setattr(zerofinder, "eval_J", recorded)
    table = find_zeros(QContext(0.5), 0.0, 20, tol=1e-12)
    assert len(table) == 20
    assert [a for a, b in zip(calls, calls[1:]) if a == b] == []


# eval_J calls of find_zeros at tol 1e-12 when refine_zero evaluated both
# bracket ends with eval_J: 159 for (0.5, 0, 20), 123 for (0.9, 0.5, 19);
# and the calls per zero that the double sum must save.  At q = 0.9 its
# terms cancel more, so its bound certifies fewer ends (now 2.0 and 1.32
# per zero saved).
PARENT_EVAL_J_CALLS = {(0.5, 0.0, 20): (159, 1.5), (0.9, 0.5, 19): (123, 1.25)}


@pytest.mark.parametrize("params", PARENT_EVAL_J_CALLS)
def test_refine_takes_bracket_ends_from_the_double_sum(monkeypatch, params):
    q, alpha, count = params
    parent_calls, saved_per_zero = PARENT_EVAL_J_CALLS[params]
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return eval_J(*args, **kwargs)

    monkeypatch.setattr(zerofinder, "eval_J", counted)
    table = find_zeros(QContext(q), alpha, count, tol=1e-12)
    assert len(table) == count
    assert calls <= parent_calls - saved_per_zero * count


@pytest.mark.parametrize("q,alpha,count", [(0.5, 0.0, 20), (0.9, 0.5, 19)])
def test_scan_takes_its_step_multipliers_once(monkeypatch, q, alpha, count):
    # the first _geometric call gives the multipliers of every step; each
    # later one cuts a sub-bracket with a sign change, a sub-step long
    calls = []
    geometric = zerofinder._geometric

    def recorded(z, ratio):
        calls.append((z, ratio))
        return geometric(z, ratio)

    monkeypatch.setattr(zerofinder, "_geometric", recorded)
    find_zeros(QContext(q), alpha, count, tol=1e-12)
    with mp.workprec(53):
        rho = mp.mpf(q) ** -0.5
        sub_step = rho ** (mp.mpf(1) / SUBDIVISIONS)
    assert calls[0] == (1, rho)
    cuts = calls[1:]
    assert len(cuts) <= count + SUBDIVISIONS
    assert len({z for z, _ in cuts}) == len(cuts)
    for z, ratio in cuts:
        assert abs(ratio / sub_step - 1) < 1e-12
        ends = [eval_J(QContext(q), alpha, 1, v, tol=1e-30).value
                for v in (z, z * ratio)]
        assert ends[0] * ends[1] < 0


def _decade(v):
    # the decade refine_zero reads of a bracket end's value
    with mp.workprec(53):
        return int(mp.log(max(abs(v), 1), 10))


def _assert_end_certified(q, alpha, z, tol):
    g = zerofinder._certified_end(alpha, z, q)
    if g is not None:
        ref = eval_J(QContext(q), alpha, 1, z, tol=zerofinder._eval_tol(tol))
        assert mp.sign(g) == mp.sign(ref.value) != 0, (q, alpha, z)
        assert _decade(g) == _decade(ref.value), (q, alpha, z, g, ref.value)
    return g


@settings(deadline=None, max_examples=60)
@given(
    q=st.one_of(
        st.sampled_from([0.3, 0.5, 0.8, 0.9, 0.99]),
        st.floats(min_value=0.05, max_value=0.99),
    ),
    alpha=st.floats(min_value=-0.99, max_value=3.0),
    log_z=st.floats(min_value=-3.0, max_value=4.0),
    tol=st.sampled_from([1e-9, 1e-12, 1e-30]),
)
def test_certified_end_has_the_sign_and_decade_of_J(q, alpha, log_z, tol):
    _assert_end_certified(q, alpha, 10.0**log_z, tol)


def _next_to_a_decade(q, alpha, d):
    """The first double z > 0.1 where |J_alpha(1, sqrt(z); q^2)| reaches
    10^d, found on a grid and bisected to adjacent doubles at tol 1e-30."""
    def excess(z):
        return abs(eval_J(QContext(q), alpha, 1, z, tol=1e-30).value) - 10**d

    zs = [10 ** (-1 + i / 50) for i in range(200)]
    lo, hi = next((a, b) for a, b in zip(zs, zs[1:])
                  if excess(a) < 0 < excess(b))
    while math.nextafter(lo, math.inf) < hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
    return min((lo, hi), key=lambda z: abs(excess(z)))


@pytest.mark.parametrize("d", [0, 1, 3])
@pytest.mark.parametrize("q,alpha", [(0.5, 0.0), (0.9, 0.5)])
def test_certified_end_falls_back_next_to_a_decade(q, alpha, d):
    z = _next_to_a_decade(q, alpha, d)
    ref = eval_J(QContext(q), alpha, 1, z, tol=1e-30).value
    assert abs(abs(ref) / 10**d - 1) <= 1e-12
    assert _j_sign(alpha, z, q) != 0  # the sign alone is certified
    assert _assert_end_certified(q, alpha, z, 1e-12) is None
    # a tenth of a decade away the double sum serves
    for f in (0.8, 1.25):
        z_in = _next_to_a_decade(q, alpha, d + math.log10(f))
        assert _assert_end_certified(q, alpha, z_in, 1e-12) is not None


def _assert_sign_certified(q, alpha, z):
    s = _j_sign(alpha, z, q)
    if s:
        ref = eval_J(QContext(q), alpha, 1, z, tol=1e-40)
        if abs(ref.value) > ref.abs_error:
            assert s == mp.sign(ref.value), (q, alpha, z)
    return s


@settings(deadline=None, max_examples=60)
@given(
    q=st.one_of(
        st.sampled_from([0.3, 0.5, 0.8, 0.9, 0.99]),
        st.floats(min_value=0.05, max_value=0.99),
    ),
    alpha=st.floats(min_value=-0.99, max_value=3.0),
    log_z=st.floats(min_value=-3.0, max_value=4.0),
)
def test_j_sign_agrees_with_J(q, alpha, log_z):
    _assert_sign_certified(q, alpha, 10.0 ** log_z)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 0.9, 0.99])
def test_j_sign_near_zeros(q):
    # z_k (1 +- 10^-e) straddles each zero ever more closely; the sign
    # must stay right, and far enough out it must be certified
    table = find_zeros(QContext(q), 0.5, 3, tol=1e-12)
    certified = 0
    for lam in table.zeros:
        z_k = float(lam * lam)
        for e in range(2, 17):
            for side in (1, -1):
                z = z_k * (1 + side * 10.0 ** -e)
                certified += bool(_assert_sign_certified(q, 0.5, z))
    assert certified >= 3 * 2 * 3


def test_j_sign_declines_values_that_are_not_doubles():
    assert _j_sign(0.5, 0.3, 0.5) == 1
    with mp.workprec(80):
        z = mp.mpf(0.3) + mp.mpf(2) ** -70
        alpha = mp.mpf(1) / 3
    assert _j_sign(0.5, z, 0.5) == 0
    assert _j_sign(alpha, 0.3, 0.5) == 0
    assert _j_sign(0.5, mp.mpf(0.3), 0.5) == 1
    # an mpf computed at 200 bits that equals a double is certified like
    # the double
    def at200(v):
        with mp.workprec(200):
            return (mp.mpf(v) + mp.mpf(2) ** -150) - mp.mpf(2) ** -150

    assert _j_sign(at200(0.5), at200(0.3), at200(0.5)) == 1
    assert _j_sign(at200(0.5), at200(5.0), at200(0.5)) == -1
    assert _j_sign(0.5, 5.0, 0.5) == -1
    with mp.workdps(60):
        third = mp.mpf(1) / 3
    assert _j_sign(third, 0.3, 0.5) == 0
    assert _j_sign(0.5, third, 0.5) == 0
    assert _j_sign(0.5, 0.3, third) == 0
    # an int alpha is the double it equals
    for a in (0, 1):
        assert _j_sign(a, 0.3, 0.5) == _j_sign(float(a), 0.3, 0.5) != 0
    # a subnormal z is a double, but its sum would underflow
    for tiny in (5e-324, 1e-310):
        assert _j_sign(0.5, tiny, 0.5) == 0
    # a double stays a double at any mpmath precision of the caller
    with mp.workprec(30):
        assert _j_sign(0.5, 0.3, 0.5) == 1


def test_a_tiny_q_declines_the_double_sum_and_stays_typed():
    # q^(2 alpha) overflows a double, so _j_sum declines and the scan and
    # refine fall back to eval_J, on the first call and on the next
    from bigqbessel import bqbessel

    bqbessel._float_rows.cache_clear()
    for _ in range(2):
        assert bqbessel._j_sum(-0.9, 2.0, 1e-200) is None
    _assert_one_simple_zero(1e-320, -0.49)
    for _ in range(2):
        with pytest.raises(NoSignChange):
            refine_zero(QContext(1e-200), -0.9, 1.0, 2.0)


def _assert_one_simple_zero(q, alpha):
    """find_zeros(QContext(q), alpha, 1) gives the same bits on two calls,
    J changes sign across j^2 (1 -+ 1e-8), and the residual meets
    RESIDUAL_TOL."""
    tables = [find_zeros(QContext(q), alpha, 1) for _ in range(2)]
    bits = [
        [v._mpf_ for v in t.zeros + t.derivs + t.residuals] for t in tables
    ]
    assert len(tables[0]) == 1 and bits[0] == bits[1]
    j = tables[0].zeros[0]
    ends = [
        eval_J(QContext(q), alpha, 1, j * j * (1 + s * mp.mpf("1e-8")), 1e-30)
        for s in (-1, 1)
    ]
    assert all(abs(sv.value) > sv.abs_error for sv in ends)
    assert ends[0].value * ends[1].value < 0
    assert tables[0].residuals[0] <= RESIDUAL_TOL


@pytest.mark.parametrize("q,alpha", [(0.5, 50), (0.5, 100), (0.5, 300)])
def test_a_far_first_zero_is_accepted_as_simple(q, alpha):
    # j_1 is 1.5e15 at alpha = 50: dJ/dlambda there is about -2 / j_1,
    # below the simplicity floor, while lambda dJ/dlambda is not
    _assert_one_simple_zero(q, alpha)


def _off_grid(v):
    """v times 1 + 2^-70, an mpf that is not a double."""
    with mp.workprec(120):
        return mp.mpf(v) * (1 + mp.mpf(2) ** -70)


def _as_200_bits(v):
    """The double v as an mpf computed at 200 bits."""
    with mp.workprec(200):
        return (mp.mpf(v) + mp.mpf(2) ** -150) - mp.mpf(2) ** -150


@settings(deadline=None, max_examples=300)
@given(
    q=st.one_of(
        st.sampled_from([0.3, 0.5, 0.9, 0.99]),
        st.floats(min_value=0.01, max_value=0.999),
    ),
    alpha=st.one_of(
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=-0.999, max_value=4.0),
    ),
    # scan-sized z, z where the products p_k c leave the normal range
    # (tiny z) or the terms overflow (huge z), and subnormal z
    log_z=st.one_of(
        st.floats(min_value=-3.0, max_value=6.0),
        st.floats(min_value=-320.0, max_value=-290.0),
        st.floats(min_value=250.0, max_value=308.0),
    ),
    form=st.sampled_from(["float", "mpf", "off_grid", "200_bits"]),
)
def test_j_sum_is_the_loop_it_replaced(q, alpha, log_z, form):
    z = 10.0**log_z
    zv = {
        "float": z,
        "mpf": mp.mpf(z),
        "off_grid": _off_grid(z),
        "200_bits": _as_200_bits(z),
    }[form]
    for args in ((alpha, zv, q), (mp.mpf(alpha), z, mp.mpf(q))):
        got = zerofinder._j_sum(*args)
        want = oracles.j_sum_loop(*args)
        assert got == want, args
        if got is not None:
            assert all(isinstance(v, float) for v in got)


@pytest.mark.parametrize(
    "q,alpha,z,summed",
    [
        (0.5, 0.5, 3.0, True),
        (0.9, 0.5, 1e4, True),
        (0.05, 0.0, 1e-300, True),  # p_k c leaves the normal range
        (0.5, 0.0, 5e-324, False),  # a subnormal z
        (0.05, 0.0, 1e300, False),  # the terms overflow
        (0.999, 0.0, 1e6, False),  # too many terms for the bound
    ],
)
def test_j_sum_edges_are_the_loop_it_replaced(q, alpha, z, summed):
    got = zerofinder._j_sum(alpha, z, q)
    assert got == oracles.j_sum_loop(alpha, z, q)
    assert (got is not None) == summed
