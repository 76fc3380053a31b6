"""Zero location: frozen-oracle values, ordering/simplicity invariants,
stability under grid refinement, serialization round-trip, and failure
modes of the scanner and refiner.
"""

import mpmath as mp
import pytest

from bigqbessel import QContext, ZeroTable, eval_J, find_zeros, refine_zero
from bigqbessel.errors import BracketingFailure, InvalidOrder, NoSignChange

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


def test_stability_under_grid_halving(ctx05, table05):
    # halving the geometric scan step must reproduce the same zeros
    rho_half = float(mp.mpf(0.5) ** -0.25)
    alt = find_zeros(ctx05, 0.0, 5, tol=1e-12, rho=rho_half)
    for a, b in zip(table05.zeros, alt.zeros):
        assert abs(a - b) <= 1e-10 * b


def test_matches_dense_grid_oracle(table05):
    oracle = oracles.dense_grid_zeros(0.5, 0.0, 5, 0.05, 33.0)
    assert len(oracle) == 5
    for got, want in zip(table05.zeros, oracle):
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
    z, deriv = refine_zero(
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


def test_scan_ceiling_raises(ctx05):
    with pytest.raises(BracketingFailure):
        find_zeros(ctx05, 0.0, 3, max_steps=1)


def test_no_zeros_for_negative_z(ctx05):
    # realness: J_0(1, z) >= 1 for z < 0, so the lambda-zeros are real
    for z in (-0.5, -4.0, -100.0):
        assert eval_J(ctx05, 0.0, 1.0, z, tol=1e-13).value >= 1
