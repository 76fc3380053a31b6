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


@pytest.fixture(scope="module")
def table12():
    """The 20 zeros of (0.5, 0) at tol 1e-12, whose residuals J(1, j_k)
    (3.6e-14 at j_1) far exceed those of table05's tol-1e-30 refine."""
    return find_zeros(QContext(0.5), 0.0, 20, tol=1e-12)


@pytest.mark.parametrize("side", [1, -1])
def test_reconstruction_next_to_a_zero_uses_the_table_zero(
    ctx05, table12, side
):
    # lambda 1e-3 to 2e-6 relative from j_1, outside the kernel's 1e-6
    # switch: each kernel's numerator is J(lambda) - J(j_k), so the table
    # zero's residual, divided by lambda^2 - j_1^2, does not enter
    j1 = table12.zeros[0]
    lams = [j1 * (1 + side * mp.mpf(d)) for d in ("1e-3", "1e-5", "2e-6")]
    f = QLatticeSignal(values=[(-1) ** m / (m + 1) for m in range(25)])
    rep = reconstruct(ctx05, 0.0, f, table12, lams)
    assert rep.max_rel_err <= 1e-13
    for k in range(3):
        assert sampling_kernel(ctx05, 0.0, table12, k, table12.zeros[k]) == 1


def test_far_zeros_take_their_residual_at_the_table_zero():
    # at (q, alpha) = (0.3, 1) the 20th zero is 9.6e10, where dJ/dlambda
    # is 1.9e188: J at j_k^2 rounded to the working precision is up to
    # 1e166, while J at the table's j_k is its residual, below the tol
    ctx = QContext(0.3)
    table = find_zeros(ctx, 1.0, 20, tol=1e-12)
    f = QLatticeSignal(values=[(-1) ** m / (m + 1) for m in range(25)])
    rep = reconstruct(ctx, 1.0, f, table, [0.3, 1.1, 2.9])
    assert rep.max_rel_err <= 1e-13
    res = closed_sum_check(ctx, 1.0, table, 1.7)
    assert res.gap <= 1e-13 * max(1, abs(res.lhs))


# Lattice requests on table12 that failed the benchmark's 1e-10 relative
# check while the kernel divided J(lambda) itself by lambda^2 - j_k^2 and
# closed_sum_check put its poles at the table zeros: the `lattice` workload's
# draws at (seed, operation) 62/2490, 211/4, 2001/970, 5005/67, 5005/570
# and 7102/1718, each with a lambda 1.7e-6 to 1.7e-4 relative from j_1.
NEAR_J1_REQUESTS = [
    ("reconstruct", 19, (
        -0.3127431900477273, 0.16572135754224937, -0.8452221741489778,
        0.7405881893809789, -0.5739584419601709, 0.2815923248842067,
        0.5243625918382033, 0.666159451738801, 0.8919144487115669,
        0.9139619985958902, 0.9586506598049975, -0.7451665630060234,
        -0.5212786107289025, -0.4097879261992736, -0.7018435588557794,
        -0.9554317357694533, -0.6331220791151184, 0.3443979275163671,
        0.48449397556317964, -0.7022423709881642, 0.8561057818088134,
        0.22295975880603658, 0.7814471536457919, 0.5437513032025734,
        -0.9906617553821782, -0.1976512476125789,
    ), (0.5247880841080869, 0.604101956944807, 0.7777526188802026,
        1.1242409729816667, 1.185747973491574)),
    ("closed_sum", 12, (), (1.124262937458317,)),
    ("reconstruct", 13, (
        0.7415713566313542, 0.1836119656811821, -0.11955072076322515,
        -0.7633291269578069, 0.9315490608462385, 0.7420145065195438,
        0.14279992629716287, -0.7982631156582416, -0.042120413791441935,
        -0.13288303507127242, -0.5592916066892837, -0.24886227641884595,
        -0.9362390757251098, -0.28075928168691244, 0.29603662773843786,
        -0.23104296223014753, 0.28744648463207967, 0.7313421262721467,
        0.9965648683992565, 0.9122517870344982, -0.8147117871734899,
        0.349858551612664, -0.528804644810599, -0.1947741884061882,
        0.08020944737387237, -0.39132650365193267, -0.9280203213676259,
        0.6161883743772425, 0.9539723823049411, 0.42578534927897915,
        -0.2552231959000488, -0.5750408179268678, 0.8714021933590634,
        0.9396287066834683,
    ), (0.47899922495232183, 1.0650101541783648, 1.1242113921329706,
        1.3319394933791253, 1.5560048678487155, 2.6367996475942115,
        2.970152957212138)),
    ("reconstruct", 14, (
        -0.3135209481876775, 0.6580300770472325, -0.6413411150392576,
        0.17769418467550158, 0.06281230563331719, 0.9989457414366492,
        0.04709820426778655, -0.7136594544699322, 0.6269957308006098,
        0.22908801696756953, -0.6451830374091105, 0.3095901361725648,
        -0.5274701491250975, -0.8865899899329046, -0.952045821622296,
        -0.758783902877306, 0.15610715880338755, 0.012506802201994738,
        0.3592818504522286, -0.6969335312087761, -0.036716004015225456,
        -0.2384762124178934, 0.9310579695587713, -0.8938087621917354,
        -0.4557755663086369, 0.9967101822249975, -0.18370917199556946,
        0.40844349539827873,
    ), (0.7376747717246183, 1.1242552773874084, 1.2563197930627603,
        1.2609871235964758, 1.6080444910040128, 2.5583754694837064,
        2.8349604747267816)),
    ("closed_sum", 19, (), (1.1240664816328976,)),
    ("reconstruct", 19, (
        0.6440133377946862, -0.6457499819297445, 0.6095507564534042,
        0.5545887360492014, 0.03133162348173246, 0.17728623828816836,
        -0.3769984306238907, 0.8581101832875149, -0.3274773440176715,
        -0.21228440720069308,
    ), (0.312902063845631, 1.0927288254814687, 1.1242800817166334,
        1.2682418896837002, 1.2725299389940208, 1.7800468677079615,
        1.8710270646204739, 2.1791382699960535)),
]


@pytest.mark.parametrize(
    "kind, n, signal, lambdas",
    NEAR_J1_REQUESTS,
    ids=["62-2490", "211-4", "2001-970", "5005-67", "5005-570", "7102-1718"],
)
def test_requests_next_to_j1_meet_the_benchmark_check(
    ctx05, table12, kind, n, signal, lambdas
):
    table = table12.head(n)
    if kind == "reconstruct":
        rep = reconstruct(ctx05, 0.0, QLatticeSignal(list(signal)), table,
                          list(lambdas))
        assert rep.terms == n and rep.max_rel_err <= 1e-13
    else:
        res = closed_sum_check(ctx05, 0.0, table, lambdas[0])
        assert res.gap <= 1e-13 * max(1, abs(res.lhs))
