"""Acceptance criteria, one test per criterion, each printing a single
PASS/FAIL line with its pinned tolerance.

Three criteria are implemented verbatim but are expected failures,
because the underlying claims are numerically false (full analysis in
the project decision ledger, summarized in README "Known deviations"):

* Criterion 3: the classical-limit error is NOT strictly decreasing over
  k = 2..8 — it rises at the first step (1.38e-3 -> 1.56e-3) because a
  second-order term in (1 - q^2) cancels part of the leading error at
  k = 2; confirmed against an independent brute-force series.  The
  error IS strictly decreasing for k >= 3 and the final error passes.
* Criterion 5: the claimed orthogonality of the zero family is
  numerically false — the lower boundary term of the product integral
  survives at zero pairs, leaving off-diagonal Gram entries at O(1)
  (0.94 at q = 0.5, 0.94 at q = 0.8).  The diagonal clause passes.
* Criterion 9: Fourier partial sums at lattice points do not converge
  to the signal, as a direct consequence of the failed orthogonality.

These tests are marked xfail(strict=True): they must keep failing; if
one ever passes, the analysis needs to be revisited.
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
    fourier_partial_sum,
    gram_matrix,
    identity_residual,
    lommel_integral_direct,
    lommel_rhs_closed,
    q_hankel_transform,
    reconstruct,
    sampling_kernel,
    zerofinder,
)

import oracles


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# --------------------------------------------------------------------
# 1. identity suite, max relative residual < 1e-9 over the full grid
# --------------------------------------------------------------------

def test_criterion_1_identity_suite():
    TOL = 1e-9
    worst = mp.mpf(0)
    count = 0
    for q in (0.3, 0.5, 0.9):
        for alpha in (-0.25, 0.0, 0.5, 1.3):
            ctx = QContext(q)
            kinds = ["dq-order-raise", "dqinv-order-lower", "eigenfunction"]
            # the three-term recurrences involve order alpha-1, which is
            # only defined for alpha > 0; the remaining grid points lie
            # outside the identity's domain (see decision ledger)
            if alpha > 0:
                kinds += ["recurrence-order", "recurrence-shifted"]
            for kind in kinds:
                for x in (q * q, q, 1.0):
                    for z in (0.04, 0.25, 1.0):
                        r = identity_residual(ctx, kind, alpha, x, z, 1e-13)
                        worst = max(worst, r)
                        count += 1
    ok = worst < TOL
    _report(1, ok, f"max residual {mp.nstr(worst, 3)} over {count} "
                   f"identity evaluations (tolerance 1e-9)")
    assert ok


# --------------------------------------------------------------------
# 2. product-integral identity, direct vs closed form to 1e-10 relative
# --------------------------------------------------------------------

def test_criterion_2_product_integral():
    TOL = 1e-10
    worst = mp.mpf(0)
    for q in (0.3, 0.5, 0.9):
        for alpha in (0.0, 0.5):
            ctx = QContext(q)
            for lam in (0.5, 1.0, 3.0):
                for mu in (0.5, 1.0, 3.0):
                    d = lommel_integral_direct(
                        ctx, alpha, lam, mu, 1e-13
                    ).value
                    c = lommel_rhs_closed(
                        ctx, alpha, lam, mu, 1e-13
                    ).value
                    worst = max(worst, abs(d - c) / max(1, abs(c)))
    ok = worst < TOL
    _report(2, ok, f"max |direct-closed| rel {mp.nstr(worst, 3)} "
                   f"(tolerance 1e-10)")
    assert ok


# --------------------------------------------------------------------
# 3. classical limit: verbatim criterion (expected failure) plus the
#    attainable portion
# --------------------------------------------------------------------

def _classical_limit_errors():
    lam, x = mp.mpf("0.3"), mp.mpf("0.5")
    t = 2 * lam * x
    target = mp.hyp0f1(mp.mpf(1), -t * t / 4)  # j_0(t), the q -> 1 limit
    errs = []
    for k in range(2, 9):
        q2 = 1 - mp.mpf(2) ** -k
        ctx = QContext(float(mp.sqrt(q2)))
        v = eval_J(ctx, 0, x / (1 - q2), ((1 - q2) ** 2 * lam) ** 2, 1e-18)
        errs.append(abs(v.value - target))
    return errs


@pytest.mark.xfail(
    strict=True,
    reason="the error rises at k=2->3 (1.38e-3 -> 1.56e-3): a second-order "
    "term in (1-q^2) partially cancels the leading error at k=2, so the "
    "'strictly decreasing over k=2..8' clause is unattainable as stated; "
    "verified against an independent brute-force series (decision ledger)",
)
def test_criterion_3_classical_limit_verbatim():
    errs = _classical_limit_errors()
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ok = decreasing and errs[-1] < 1e-2
    _report(3, ok, f"errors k=2..8: {[mp.nstr(e, 3) for e in errs]}; "
                   f"strictly decreasing: {decreasing}; "
                   f"final {mp.nstr(errs[-1], 3)} (< 1e-2: {errs[-1] < 1e-2})")
    assert ok


def test_criterion_3_attainable_portion():
    # strictly decreasing from k = 3 on, and the final-error clause
    errs = _classical_limit_errors()
    assert all(b < a for a, b in zip(errs[1:], errs[2:]))
    assert errs[-1] < 1e-2


# --------------------------------------------------------------------
# 4. zeros vs independent dense-grid oracle, stability under halving
# --------------------------------------------------------------------

def test_criterion_4_zeros(monkeypatch, ctx05):
    table = find_zeros(ctx05, 0.0, 5, tol=1e-9)
    residual_ok = all(r <= 1e-9 for r in table.residuals)
    increasing = all(a < b for a, b in zip(table.zeros, table.zeros[1:]))
    simple = all(abs(d) > 1e-12 for d in table.derivs)
    oracle = oracles.dense_grid_zeros(0.5, 0.0, 5, 0.05, 33.0)
    match = max(
        abs(g - w) / w for g, w in zip(table.zeros, oracle)
    )
    # scan-grid stability is checked at a residual tolerance tight
    # enough (1e-12) that refinement noise sits below the stated 1e-10
    fine = find_zeros(ctx05, 0.0, 5, tol=1e-12)
    monkeypatch.setattr(zerofinder, "RHO_EXPONENT", -0.25)
    half = find_zeros(ctx05, 0.0, 5, tol=1e-12)
    stable = max(
        abs(a - b) / b for a, b in zip(fine.zeros, half.zeros)
    )
    ok = (
        residual_ok and increasing and simple
        and match <= 1e-8 and stable <= 1e-10
    )
    _report(4, ok, f"residuals<=1e-9: {residual_ok}; increasing: "
                   f"{increasing}; simple: {simple}; oracle mismatch "
                   f"{mp.nstr(match, 3)} (<=1e-8); halving drift "
                   f"{mp.nstr(stable, 3)} (<=1e-10)")
    assert ok


# --------------------------------------------------------------------
# 5. Gram matrix: verbatim criterion (expected failure) plus the
#    diagonal clause, which passes
# --------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="the claimed orthogonality is numerically false: the lower "
    "boundary term of the product integral survives at zero pairs, so "
    "off-diagonal Gram entries are O(1) (0.94 at both parameter sets); "
    "confirmed by direct high-precision integration under both zero "
    "conventions (decision ledger)",
)
def test_criterion_5_gram_verbatim(ctx05, table05, ctx08, table08):
    results = []
    for ctx, table, alpha in ((ctx05, table05, 0.0), (ctx08, table08, 0.5)):
        rep = gram_matrix(ctx, alpha, table, tol=1e-13)
        diag = max(
            abs(rep.matrix[k][k] - rep.norm_closed[k])
            / abs(rep.norm_closed[k])
            for k in range(5)
        )
        results.append((rep.max_offdiag_rel, diag))
    off_ok = all(off <= 1e-8 for off, _ in results)
    diag_ok = all(d <= 1e-9 for _, d in results)
    ok = off_ok and diag_ok
    _report(5, ok, f"max off-diagonal rel {mp.nstr(max(o for o, _ in results), 3)} "
                   f"(<=1e-8: {off_ok}); max diagonal-vs-closed rel "
                   f"{mp.nstr(max(d for _, d in results), 3)} (<=1e-9: {diag_ok})")
    assert ok


def test_criterion_5_diagonal_clause(ctx05, table05, ctx08, table08):
    for ctx, table, alpha in ((ctx05, table05, 0.0), (ctx08, table08, 0.5)):
        rep = gram_matrix(ctx, alpha, table, tol=1e-13)
        for k in range(5):
            rel = abs(rep.matrix[k][k] - rep.norm_closed[k]) / abs(
                rep.norm_closed[k]
            )
            assert rel <= 1e-9


# --------------------------------------------------------------------
# 6. sampling-kernel delta property; printed variant demonstrably fails
# --------------------------------------------------------------------

def test_criterion_6_kernel_delta(ctx05, table05, ctx08, table08):
    worst = mp.mpf(0)
    for ctx, table, alpha in ((ctx05, table05, 0.0), (ctx08, table08, 0.5)):
        for k in range(5):
            for m in range(5):
                s = sampling_kernel(
                    ctx, alpha, table, k, table.zeros[m], 1e-13
                )
                worst = max(worst, abs(s - (1 if k == m else 0)))
    printed_violation = abs(
        oracles.sampling_kernel_printed(
            ctx05, 0.0, table05, 0, table05.zeros[1], 1e-13
        )
    )
    ok = worst <= 1e-8 and printed_violation > 1e-3
    _report(6, ok, f"max |S_k(j_m) - delta| {mp.nstr(worst, 3)} (<=1e-8); "
                   f"printed-variant off-diagonal {mp.nstr(printed_violation, 3)} "
                   f"(documented expected failure of the printed kernel)")
    assert ok


# --------------------------------------------------------------------
# 7. reconstruction error decreases over N in {5,10,20,40}, <=1e-6 at 40
# --------------------------------------------------------------------

def test_criterion_7_reconstruction(ctx05):
    # the working precision is pushed far below the N=20 truncation
    # error (~1e-108) so the decrease remains visible at every step
    table = find_zeros(ctx05, 0.0, 40, tol=1e-130)
    f = QLatticeSignal(values=[1.0, -0.5, 0.25])
    lams = [0.3, 0.7, 1.1, 1.5]
    errs = [
        reconstruct(ctx05, 0.0, f, table.head(n), lams, tol=1e-120)
        .max_rel_err
        for n in (5, 10, 20, 40)
    ]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ok = decreasing and errs[-1] <= 1e-6
    _report(7, ok, f"errors N=5,10,20,40: {[mp.nstr(e, 3) for e in errs]}; "
                   f"decreasing: {decreasing}; final <=1e-6: "
                   f"{errs[-1] <= 1e-6}")
    assert ok


# --------------------------------------------------------------------
# 8. delta-signal transform closed form; closed-sum gap monotone
# --------------------------------------------------------------------

def test_criterion_8_delta_example(ctx05, ctx08):
    TOL = 1e-12
    worst = mp.mpf(0)
    for ctx, alpha in ((ctx05, 0.0), (ctx08, 0.5)):
        q = mp.mpf(ctx.q)
        q2 = q * q
        f = QLatticeSignal(values=[1.0 / (1.0 - ctx.q)])
        pref = mp.qp(-q2, q2) / mp.qp(-(q ** (2 * mp.mpf(alpha) + 4)), q2)
        for lam in (0.3, 0.7, 1.1, 1.5):
            got = q_hankel_transform(ctx, alpha, f, lam, 1e-14).value
            want = pref * eval_J(
                ctx, alpha + 1, 1, mp.mpf(lam) ** 2, 1e-14
            ).value
            worst = max(worst, abs(got - want) / max(1, abs(want)))
    transform_ok = worst <= TOL

    table = find_zeros(ctx05, 0.0, 14, tol=1e-60)
    gaps = [
        closed_sum_check(ctx05, 0.0, table.head(n), 0.4, tol=1e-50).gap
        for n in range(1, 15)
    ]
    # smallest N0 such that the gap strictly decreases for all N >= N0
    n0 = 1
    for i in range(len(gaps) - 1, 0, -1):
        if gaps[i] >= gaps[i - 1]:
            n0 = i + 1
            break
    ok = transform_ok and n0 <= 10
    _report(8, ok, f"transform max rel {mp.nstr(worst, 3)} (<=1e-12: "
                   f"{transform_ok}); closed-sum gap monotone from N0={n0} "
                   f"(<=10), final gap {mp.nstr(gaps[-1], 3)}")
    assert ok


# --------------------------------------------------------------------
# 9. completeness desk check via Fourier partial sums (expected failure)
# --------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="Fourier partial sums do not converge at lattice points: the "
    "expansion coefficients presuppose the orthogonality relation, which "
    "is numerically false (see criterion 5); the partial-sum error is "
    "O(1) or worse and grows with N (decision ledger)",
)
def test_criterion_9_fourier_lattice_convergence(ctx05):
    table = find_zeros(ctx05, 0.0, 40, tol=1e-12)
    q = mp.mpf("0.5")
    f = QLatticeSignal(values=[1.0, -0.5, 0.25])
    coeffs = fourier_coefficients(ctx05, 0.0, f, table, tol=1e-13)
    worst = mp.mpf(0)
    for m in range(6):
        x = q ** m
        fx = mp.mpf(f.values[m]) if m < 3 else mp.mpf(0)
        s = fourier_partial_sum(ctx05, 0.0, coeffs, table, x, tol=1e-13)
        worst = max(worst, abs(s - fx))
    ok = worst <= 1e-6
    _report(9, ok, f"max |partial sum - f(q^m)|, m<=5, N=40: "
                   f"{mp.nstr(worst, 3)} (tolerance 1e-6)")
    assert ok
