"""q-calculus primitives: the fused q-product ratio, q-derivatives and
the Jackson q-integral, checked against hand values, mpmath's
q-Pochhammer and classical closed forms; and the typed errors of bad
arguments across the library.
"""

import inspect
import math
import re
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import bigqbessel
from bigqbessel import (
    QContext,
    QLatticeSignal,
    ReconstructionReport,
    SeriesValue,
    ZeroTable,
    apply_L,
    eval_J,
    find_zeros,
    fourier_coefficients,
    fused_product_ratio,
    identity_residual,
    inner_product,
    q_derivative,
    q_derivative_inv,
    q_integral,
    reconstruct,
    sampling_kernel,
    weight,
)
from bigqbessel import bqbessel
from bigqbessel.errors import BigQBesselError, InvalidArgument, InvalidOrder


def test_qcontext_validates_q():
    with pytest.raises(ValueError):
        QContext(1.0)
    with pytest.raises(ValueError):
        QContext(0.0)


def test_fused_product_ratio_matches_quotient():
    # ratio (-x^2 q^2; q^2)_inf / (-x^2 q^(2a+4); q^2)_inf at x=1, a=0
    q = mp.mpf("0.5")
    got = fused_product_ratio(1, 2, 4, q, 1e-14)
    q2 = q * q
    want = mp.qp(-q2, q2) / mp.qp(-q2 ** 2, q2)
    assert abs(got - want) <= 1e-13 * abs(want)
    # telescoping: only the e_num <= e < e_den factors survive; with
    # e_num=2, e_den=4, q^2-steps leave the single factor (1 + x^2 q^2)
    assert abs(got - (1 + q2)) <= 1e-13


def test_q_derivative_polynomial_exact():
    # D_q x^3 = (1 + q + q^2) x^2 exactly
    q = mp.mpf("0.3")
    x = mp.mpf("0.7")
    got = q_derivative(lambda t: t ** 3, x, q)
    want = (1 + q + q * q) * x * x
    assert abs(got - want) <= 1e-15 * abs(want)


def test_q_derivative_inv_polynomial_exact():
    # D_{q^{-1}} x^2 = (1 + q^{-1}) x
    q = mp.mpf("0.4")
    x = mp.mpf("0.9")
    got = q_derivative_inv(lambda t: t * t, x, q)
    want = (1 + 1 / q) * x
    assert abs(got - want) <= 1e-15 * abs(want)


def test_q_derivative_zero_argument():
    with pytest.raises(InvalidArgument, match=r"\bx\b"):
        q_derivative(lambda t: t, 0.0, 0.5)
    with pytest.raises(InvalidArgument, match=r"\bx\b"):
        q_derivative_inv(lambda t: t, 0.0, 0.5)


def test_q_integral_monomial_closed_form():
    # int_0^1 x^2 d_q x = (1-q) sum q^(3n) = 1 / (1 + q + q^2)
    for qv in ("0.3", "0.5", "0.9"):
        q = mp.mpf(qv)
        sv = q_integral(lambda x: x * x, 1, q, tol=1e-14)
        want = 1 / (1 + q + q * q)
        assert abs(sv.value - want) <= 1e-13 * abs(want)


def test_q_integral_scales_with_upper_limit():
    # int_0^a x d_q x = a^2 / (1 + q)
    q = mp.mpf("0.6")
    a = mp.mpf("0.5")
    sv = q_integral(lambda x: x, a, q, tol=1e-14)
    assert abs(sv.value - a * a / (1 + q)) <= 1e-13


def test_q_integral_rejects_bad_limit():
    with pytest.raises(InvalidArgument, match=r"\ba\b"):
        q_integral(lambda x: x, 0, 0.5)
    with pytest.raises(InvalidArgument, match=r"\ba\b"):
        q_integral(lambda x: x, -1, 0.5)


def test_series_value_float_conversion():
    sv = q_integral(lambda x: x, 1, 0.5, tol=1e-14)
    assert math.isclose(float(sv), 2.0 / 3.0, rel_tol=1e-12)


NAN = math.nan
NO_ZEROS = ZeroTable(0.5, 0.0)
SIGNAL = QLatticeSignal([1.0, 0.5])


def _square(t):
    return t * t


INVALID_AT_THE_EDGE = {
    "fused_product_ratio(nan)": lambda: fused_product_ratio(NAN, 2, 4, 0.5),
    "fused_product_ratio(tol=nan)": (
        lambda: fused_product_ratio(2.0, 2, 4, 0.5, tol=NAN)
    ),
    "weight(x=nan)": lambda: weight(QContext(0.5), 0.0, NAN),
    "weight(x=-1)": lambda: weight(QContext(0.5), 0.0, -1.0),
    "weight(x=0, tol='abc')": lambda: weight(QContext(0.5), 0.0, 0.0, "abc"),
    "q_integral(tol=nan)": lambda: q_integral(lambda x: x, 1, 0.5, tol=NAN),
    "q_integral(tol=0)": lambda: q_integral(lambda x: x, 1, 0.5, tol=0.0),
    "eval_J(terms_max=0)": (
        lambda: eval_J(QContext(0.5), 0.0, 1.0, 0.5, terms_max=0)
    ),
    "eval_J(tol=inf)": lambda: eval_J(QContext(0.5), 0.0, 1.0, 0.5, math.inf),
    "eval_J(alpha=True)": lambda: eval_J(QContext(0.5), True, 1.0, 0.5),
    "find_zeros(count=True)": lambda: find_zeros(QContext(0.5), 0.0, True),
    "sampling_kernel(k=1.5)": (
        lambda: sampling_kernel(QContext(0.5), 0.0, NO_ZEROS, 1.5, 0.7)
    ),
    "fourier_coefficients(no zeros)": (
        lambda: fourier_coefficients(QContext(0.5), 0.0, SIGNAL, NO_ZEROS)
    ),
    "reconstruct(no zeros)": (
        lambda: reconstruct(QContext(0.5), 0.0, SIGNAL, NO_ZEROS, [1.0])
    ),
    # the raw-q primitives state QContext's 0 < q < 1
    "q_derivative(q=1)": lambda: q_derivative(_square, 0.7, 1.0),
    "q_derivative(q=-1)": lambda: q_derivative(_square, 0.7, -1.0),
    "q_derivative_inv(q=1)": lambda: q_derivative_inv(_square, 0.7, 1.0),
    "q_derivative_inv(q=0)": lambda: q_derivative_inv(_square, 0.7, 0.0),
    "q_integral(q=-0.5)": lambda: q_integral(_square, 1.0, -0.5),
    "fused_product_ratio(q=0)": lambda: fused_product_ratio(2.0, -1, 4, 0.0),
    "fused_product_ratio(q=1)": lambda: fused_product_ratio(2.0, 2, 4, 1.0),
    # points where the call is undefined, refused before any division
    "fused_product_ratio(x2=-4)": (
        lambda: fused_product_ratio(-4.0, 0, 2, 0.5)
    ),
    "apply_L(x=0)": lambda: apply_L(QContext(0.5), 0, _square, 0.0),
    "identity_residual(eigenfunction, x=0)": (
        lambda: identity_residual(QContext(0.5), "eigenfunction", 0, 0.0, 1.0)
    ),
    # the sampling kernel and the closed sum divide by each derivative
    "ZeroTable(derivs=[0])": lambda: ZeroTable(0.5, 0.0, [1.0], [0.0], [0.0]),
    # a report's lists pass the list gate before their lengths are taken
    "ReconstructionReport(lambdas=0.7)": (
        lambda: ReconstructionReport(0.7, [], [], mp.mpf(0), 1)
    ),
}

# the argument that each domain refusal above names
REFUSED_ARGUMENT = {
    "q_derivative(q=1)": "q",
    "q_derivative(q=-1)": "q",
    "q_derivative_inv(q=1)": "q",
    "q_derivative_inv(q=0)": "q",
    "q_integral(q=-0.5)": "q",
    "fused_product_ratio(q=0)": "q",
    "fused_product_ratio(q=1)": "q",
    "fused_product_ratio(x2=-4)": "x2",
    "apply_L(x=0)": "x",
    "identity_residual(eigenfunction, x=0)": "x",
    "ZeroTable(derivs=[0])": "derivs",
    "ReconstructionReport(lambdas=0.7)": "lambdas",
}


@pytest.mark.parametrize("name,call", INVALID_AT_THE_EDGE.items(),
                         ids=INVALID_AT_THE_EDGE.keys())
def test_invalid_argument_is_typed_and_immediate(name, call):
    # a NaN or out-of-range argument is reported as such at once, not as
    # a product or sum that ran out of terms, nor as a bare ValueError
    # or ZeroDivisionError
    with pytest.raises(InvalidArgument) as info:
        call()
    if name in REFUSED_ARGUMENT:
        assert re.search(rf"\b{REFUSED_ARGUMENT[name]}\b", str(info.value))


INVALID_AT_CONSTRUCTION = {
    "QContext(q=1.5)": lambda: QContext(1.5),
    "QContext(q=0)": lambda: QContext(0.0),
    "QContext(q='0.5')": lambda: QContext("0.5"),
    "SeriesValue(abs_error<0)": lambda: SeriesValue(mp.mpf(1), mp.mpf(-1), 1),
    "SeriesValue(terms_used=0)": lambda: SeriesValue(mp.mpf(1), mp.mpf(0), 0),
    "QLatticeSignal(empty)": lambda: QLatticeSignal([]),
    "QLatticeSignal(a=0)": (
        lambda: QLatticeSignal.from_dict({"a": 0.0, "values": [1.0]})
    ),
    "QLatticeSignal(a=nan)": (
        lambda: QLatticeSignal.from_dict({"a": NAN, "values": [1.0]})
    ),
    "QLatticeSignal(value=nan)": lambda: QLatticeSignal([1.0, NAN]),
    "QLatticeSignal(value=-inf)": (
        lambda: QLatticeSignal([mp.mpf("-inf")])
    ),
    "QLatticeSignal(value=1j)": lambda: QLatticeSignal([1j, 0.5]),
    "ZeroTable(lengths)": lambda: ZeroTable(0.5, 0.0, [1.0], [], []),
    "ZeroTable(order)": (
        lambda: ZeroTable(0.5, 0.0, [2.0, 1.0], [1, 1], [0, 0])
    ),
    "ZeroTable(sign)": lambda: ZeroTable(0.5, 0.0, [-1.0], [1.0], [0.0]),
    "ZeroTable(zero=inf)": (
        lambda: ZeroTable(0.5, 0.0, [1.0, math.inf], [1, 1], [0, 0])
    ),
    "ZeroTable(deriv=nan)": lambda: ZeroTable(0.5, 0.0, [1.0], [NAN], [0.0]),
    "ZeroTable(residual=nan)": (
        lambda: ZeroTable(0.5, 0.0, [1.0], [1.0], [mp.mpf("nan")])
    ),
    "ZeroTable(zero=Fraction)": (
        lambda: ZeroTable(0.5, 0.0, [Fraction(1, 3)], [1.0], [0.0])
    ),
    "ReconstructionReport(lengths)": (
        lambda: ReconstructionReport([1.0], [], [], mp.mpf(0), 1)
    ),
    "identity_residual(kind)": (
        lambda: identity_residual(QContext(0.5), "no-such-kind", 0, 1, 1)
    ),
    "identity_residual(kind=3)": (
        lambda: identity_residual(QContext(0.5), 3, 0, 1, 1)
    ),
}


@pytest.mark.parametrize("call", INVALID_AT_CONSTRUCTION.values(),
                         ids=INVALID_AT_CONSTRUCTION.keys())
def test_invalid_value_is_typed_at_construction(call):
    # the dataclass checks and the kind check raise the library's own
    # error, which is still a ValueError
    with pytest.raises(InvalidArgument):
        call()


# One valid call of every public function and of every dataclass that takes
# a caller's numbers, by keyword.  The gate test below replaces one numeric
# argument at a time (with the defaults applied, so tol and terms_max
# count too): a number, an entry of a list of numbers, or the
# value that a callable f returns.
CTX = QContext(0.5)
TABLE = ZeroTable(0.5, 0.0, [1.0], [1.0], [0.0])


def _identity(t):
    return t


VALID_CALLS = {
    "QContext": dict(q=0.5),
    "SeriesValue": dict(value=mp.mpf(1), abs_error=mp.mpf(0), terms_used=1),
    "q_derivative": dict(f=_identity, x=0.7, q=0.5),
    "q_derivative_inv": dict(f=_identity, x=0.7, q=0.5),
    "q_integral": dict(f=_identity, a=1.0, q=0.5),
    "fused_product_ratio": dict(x2=2.0, e_num=2, e_den=4, q=0.5),
    "eval_J": dict(ctx=CTX, alpha=0.0, x=0.7, z=3.3),
    "eval_dJ_dz": dict(ctx=CTX, alpha=0.0, x=0.7, z=3.3),
    "eval_big_cos": dict(ctx=CTX, x=0.7, z=3.3),
    "eval_big_sin": dict(ctx=CTX, x=0.7, z=3.3),
    "recurrence_alpha_step": dict(
        ctx=CTX, alpha=1.0, x=0.7, z=3.3, J_prev=0.5, J_curr=0.25
    ),
    "recurrence_shifted": dict(
        ctx=CTX, alpha=1.0, x=0.7, z=3.3, J_prev=0.5, J_curr=0.25
    ),
    "apply_L": dict(ctx=CTX, alpha=0.0, f=_identity, x=0.7),
    "identity_residual": dict(
        ctx=CTX, kind="dq-order-raise", alpha=0.5, x=0.7, z=3.3
    ),
    "ZeroTable": dict(
        q=0.5, alpha=0.0, zeros=[1.0], derivs=[1.0], residuals=[0.0]
    ),
    "find_zeros": dict(ctx=CTX, alpha=0.0, count=3),
    "refine_zero": dict(ctx=CTX, alpha=0.0, z_lo=1.0, z_hi=2.0),
    "QLatticeSignal": dict(values=[1.0, 0.5]),
    "weight": dict(ctx=CTX, alpha=0.0, x=0.7),
    "inner_product": dict(ctx=CTX, alpha=0.0, f=SIGNAL, g=SIGNAL),
    "lommel_integral_direct": dict(ctx=CTX, alpha=0.0, lam=0.7, mu=3.3),
    "lommel_rhs_closed": dict(ctx=CTX, alpha=0.0, lam=0.7, mu=3.3),
    "norm_sq_closed": dict(ctx=CTX, alpha=0.0, zero=1.0, deriv=1.0),
    "gram_matrix": dict(ctx=CTX, alpha=0.0, table=TABLE),
    "fourier_coefficients": dict(ctx=CTX, alpha=0.0, f=SIGNAL, table=TABLE),
    "fourier_partial_sum": dict(
        ctx=CTX, alpha=0.0, coeffs=[1.0], table=TABLE, x=0.7
    ),
    "q_hankel_transform": dict(ctx=CTX, alpha=0.0, f=SIGNAL, lam=0.7),
    "sampling_kernel": dict(ctx=CTX, alpha=0.0, table=TABLE, k=0, lam=0.7),
    "reconstruct": dict(
        ctx=CTX, alpha=0.0, f=SIGNAL, table=TABLE, lambdas=[0.7]
    ),
    "closed_sum_check": dict(ctx=CTX, alpha=0.0, table=TABLE, lam=0.7),
}

# public records that only the library builds, from checked arguments
RESULTS = {"GramReport", "ReconstructionReport", "ClosedSumResult"}

BAD_VALUES = ["abc", 1j, Fraction(1, 3), math.nan]


def _is_number(v) -> bool:
    return isinstance(v, (int, float, mp.mpf))


def _numeric_arguments():
    """(entry, parameter, replace) for every numeric argument of the valid
    calls, where replace(bad) is the argument with bad put in."""
    cases = []
    for name, kwargs in VALID_CALLS.items():
        bound = inspect.signature(getattr(bigqbessel, name)).bind(**kwargs)
        bound.apply_defaults()
        for param, v in bound.arguments.items():
            if _is_number(v):
                replace = lambda bad: bad
            elif isinstance(v, list) and v and _is_number(v[0]):
                replace = lambda bad, v=v: [bad, *v[1:]]
            elif inspect.isfunction(v):
                replace = lambda bad: lambda t: bad
            else:
                continue
            cases.append((name, param, bound.arguments, replace))
    return cases


NUMERIC_ARGUMENTS = _numeric_arguments()


# Arguments at the edge of their domain: each of these parameters of a
# valid call is set to 0 in turn, a bare q to 0 and to 1, and every
# identity kind is taken at x = 0 and at z = 0.  Each call returns, or
# raises the library's own error, never a bare ZeroDivisionError.
EDGE_PARAMETERS = {
    "x", "z", "x2", "lam", "mu", "zero", "deriv", "k", "z_lo", "z_hi",
    "J_prev", "J_curr", "a",
}


def _edge_calls():
    calls = {}
    for name, kwargs in VALID_CALLS.items():
        for param in kwargs:
            edges = (
                (0, 1) if param == "q"
                else (0,) if param in EDGE_PARAMETERS
                else ()
            )
            for v in edges:
                calls[f"{name}({param}={v})"] = (name, {**kwargs, param: v})
    for kind in bqbessel.IDENTITY_KINDS:
        for param in ("x", "z"):
            kwargs = {**VALID_CALLS["identity_residual"], "kind": kind}
            calls[f"identity_residual[{kind}]({param}=0)"] = (
                "identity_residual", {**kwargs, param: 0}
            )
    return calls


EDGE_CALLS = _edge_calls()


@pytest.mark.parametrize("name,arguments", EDGE_CALLS.values(),
                         ids=EDGE_CALLS.keys())
def test_an_edge_argument_returns_or_raises_a_library_error(name, arguments):
    try:
        getattr(bigqbessel, name)(**arguments)
    except BigQBesselError:
        pass


def test_every_public_entry_has_a_valid_call():
    public = {
        name for name in bigqbessel.__all__
        if callable(getattr(bigqbessel, name))
    }
    assert public == set(VALID_CALLS) | RESULTS


# The parameter names of every public callable, in order.  A parameter
# that comes or goes is a change of the public API, made here on purpose.
PUBLIC_PARAMETERS = {
    "QContext": ("q",),
    "SeriesValue": ("value", "abs_error", "terms_used"),
    "q_derivative": ("f", "x", "q"),
    "q_derivative_inv": ("f", "x", "q"),
    "q_integral": ("f", "a", "q", "tol"),
    "fused_product_ratio": ("x2", "e_num", "e_den", "q", "tol"),
    "eval_J": ("ctx", "alpha", "x", "z", "tol", "terms_max"),
    "eval_dJ_dz": ("ctx", "alpha", "x", "z", "tol"),
    "eval_big_cos": ("ctx", "x", "z", "tol"),
    "eval_big_sin": ("ctx", "x", "z", "tol"),
    "recurrence_alpha_step": ("ctx", "alpha", "x", "z", "J_prev", "J_curr"),
    "recurrence_shifted": ("ctx", "alpha", "x", "z", "J_prev", "J_curr"),
    "apply_L": ("ctx", "alpha", "f", "x"),
    "identity_residual": ("ctx", "kind", "alpha", "x", "z", "tol"),
    "ZeroTable": ("q", "alpha", "zeros", "derivs", "residuals"),
    "find_zeros": ("ctx", "alpha", "count", "tol"),
    "refine_zero": ("ctx", "alpha", "z_lo", "z_hi", "tol"),
    "QLatticeSignal": ("values",),
    "GramReport": ("matrix", "norm_closed", "max_offdiag_rel"),
    "weight": ("ctx", "alpha", "x", "tol"),
    "inner_product": ("ctx", "alpha", "f", "g", "tol"),
    "lommel_integral_direct": ("ctx", "alpha", "lam", "mu", "tol"),
    "lommel_rhs_closed": ("ctx", "alpha", "lam", "mu", "tol"),
    "norm_sq_closed": ("ctx", "alpha", "zero", "deriv", "tol"),
    "gram_matrix": ("ctx", "alpha", "table", "tol"),
    "fourier_coefficients": ("ctx", "alpha", "f", "table", "tol"),
    "fourier_partial_sum": ("ctx", "alpha", "coeffs", "table", "x", "tol"),
    "ReconstructionReport": (
        "lambdas", "direct", "reconstructed", "max_rel_err", "terms"
    ),
    "ClosedSumResult": ("lhs", "rhs_partial", "gap"),
    "q_hankel_transform": ("ctx", "alpha", "f", "lam", "tol"),
    "sampling_kernel": ("ctx", "alpha", "table", "k", "lam", "tol"),
    "reconstruct": ("ctx", "alpha", "f", "table", "lambdas", "tol"),
    "closed_sum_check": ("ctx", "alpha", "table", "lam", "tol"),
}


def test_public_parameters_are_the_snapshot():
    got = {
        name: tuple(inspect.signature(getattr(bigqbessel, name)).parameters)
        for name in bigqbessel.__all__
        if callable(getattr(bigqbessel, name))
    }
    assert got == PUBLIC_PARAMETERS


@pytest.mark.parametrize(
    "name,param,arguments,replace",
    NUMERIC_ARGUMENTS,
    ids=[f"{n}({p})" for n, p, _, _ in NUMERIC_ARGUMENTS],
)
def test_a_bad_number_is_refused_by_name(name, param, arguments, replace):
    # a wrong type or a value that is not finite raises InvalidArgument,
    # which names the argument, before any work is done
    for bad in BAD_VALUES:
        args = {**arguments, param: replace(bad)}
        with pytest.raises(InvalidArgument) as info:
            getattr(bigqbessel, name)(**args)
        assert re.match(rf"{param}\b", str(info.value)), (bad, info.value)


# Every list of numbers of the valid calls, each replaced in turn by a
# number and by None: the call raises InvalidArgument naming the list, not
# a bare TypeError from len() or iteration.
LIST_ARGUMENTS = [
    (name, param, kwargs)
    for name, kwargs in VALID_CALLS.items()
    for param, v in kwargs.items()
    if isinstance(v, list)
]


def test_the_walk_finds_every_list_parameter():
    assert {param for _, param, _ in LIST_ARGUMENTS} == {
        "values", "zeros", "derivs", "residuals", "coeffs", "lambdas"
    }


@pytest.mark.parametrize(
    "name,param,arguments",
    LIST_ARGUMENTS,
    ids=[f"{n}({p})" for n, p, _ in LIST_ARGUMENTS],
)
def test_a_list_argument_that_is_no_list_is_refused_by_name(
    name, param, arguments
):
    for bad in (0.7, None):
        with pytest.raises(InvalidArgument) as info:
            getattr(bigqbessel, name)(**{**arguments, param: bad})
        assert re.match(rf"{param}\b", str(info.value)), (bad, info.value)


# The two document readers, each with a valid document.  A document that
# is not an object, one that lacks a field, and one whose field is null
# raise InvalidArgument saying so or naming the field, not a bare KeyError
# or TypeError.
DOCUMENTS = {
    "ZeroTable": {
        "q": 0.5, "alpha": 0.0, "zeros": [1.0], "derivs": [1.0],
        "residuals": [0.0],
    },
    "QLatticeSignal": {"a": 1.0, "values": [1.0, 0.5]},
}


def _document_cases():
    """(id, reader, document, the pattern the message starts with)"""
    cases = []
    for name, doc in DOCUMENTS.items():
        for bad in ([], None, 5, "x"):
            cases.append((f"{name}({bad!r})", name, bad,
                          "document must be an object"))
        for field in doc:
            lacking = {k: v for k, v in doc.items() if k != field}
            cases.append((f"{name}(no {field})", name, lacking,
                          rf"document lacks the field {field}$"))
            cases.append((f"{name}({field}=null)", name,
                          {**doc, field: None}, rf"{field}\b"))
    return cases


DOCUMENT_CASES = _document_cases()


@pytest.mark.parametrize("name", DOCUMENTS)
def test_a_valid_document_reads_back(name):
    reader = getattr(bigqbessel, name)
    read = reader.from_dict(DOCUMENTS[name])
    assert reader.from_dict(read.to_dict()) == read


@pytest.mark.parametrize(
    "name,doc,message",
    [case[1:] for case in DOCUMENT_CASES],
    ids=[case[0] for case in DOCUMENT_CASES],
)
def test_a_bad_document_is_refused_by_field(name, doc, message):
    with pytest.raises(InvalidArgument) as info:
        getattr(bigqbessel, name).from_dict(doc)
    assert re.match(message, str(info.value)), info.value


@pytest.mark.parametrize("n", [-1, True, None, 1.5, "2"])
def test_head_takes_a_count_of_zeros_only(n):
    with pytest.raises(InvalidArgument) as info:
        TABLE.head(n)
    assert re.match(r"n\b", str(info.value)), info.value


def test_head_takes_zero_and_any_count_beyond_the_table():
    assert len(TABLE.head(0)) == 0
    assert TABLE.head(2) == TABLE


# The order floor of every public function that takes alpha: the orders at
# and below it raise InvalidOrder before any work.  It is at least the
# floor of every J the function evaluates: J_alpha needs alpha > -1, so
# J_{alpha+1} alone alpha > -2 and J_{alpha-1} alpha > 0; the zero family
# needs alpha > -1/2.  None: no J is evaluated, and the weight is defined
# for every real alpha.
FLOORS = {
    "eval_J": -1,
    "eval_dJ_dz": -1,
    "recurrence_alpha_step": 0,
    "recurrence_shifted": 0,
    "apply_L": None,
    "identity_residual": -1,  # 0 for the two recurrence kinds
    "find_zeros": -0.5,
    "refine_zero": -1,
    "weight": None,
    "inner_product": None,
    "lommel_integral_direct": -2,
    "lommel_rhs_closed": -1,
    "norm_sq_closed": -1,
    "gram_matrix": -0.5,
    "fourier_coefficients": -0.5,
    "fourier_partial_sum": -2,
    "q_hankel_transform": -1.5,
    "sampling_kernel": -1,
    "reconstruct": -1,
    "closed_sum_check": -1,
}


def test_floors_list_every_function_that_takes_an_order():
    # a ZeroTable is a record, at any alpha; each function that reads one
    # gates its own alpha
    takes_alpha = {
        name for name in bigqbessel.__all__
        if inspect.isfunction(getattr(bigqbessel, name))
        and "alpha" in inspect.signature(getattr(bigqbessel, name)).parameters
    }
    assert takes_alpha == set(FLOORS)


class _Summed(Exception):
    """A J series was started."""


@pytest.mark.parametrize("name", FLOORS)
def test_an_order_at_the_floor_is_refused_before_any_work(name, monkeypatch):
    floor = FLOORS[name]
    sums = []

    def no_sums(*args):
        sums.append(args)
        raise _Summed

    monkeypatch.setattr(bqbessel, "sum_series", no_sums)
    call = getattr(bigqbessel, name)
    if floor is not None:
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            with pytest.raises(InvalidOrder) as info:
                call(**{**VALID_CALLS[name], "alpha": floor})
        # alpha as passed, not as converted at some working precision
        assert str(info.value).endswith(f"got {floor!r}")
        assert sums == [] and rec == []
    # a quarter above the floor (far below where there is none) the call
    # goes on to its work, or to an error that is not about the order
    above = -10 if floor is None else floor + 0.25
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            call(**{**VALID_CALLS[name], "alpha": above})
        except InvalidOrder:
            pytest.fail(f"{name} refuses alpha = {above}")
        except (_Summed, BigQBesselError):
            pass


FOREIGN = ["0.7", 0.7j, Fraction(7, 10), np.int64(1), np.float32(0.7),
           mp.mpi(0.5, 1), None]


@pytest.mark.parametrize("x", FOREIGN, ids=[type(v).__name__ for v in FOREIGN])
def test_foreign_types_are_refused(x):
    with pytest.raises(InvalidArgument, match=r"^x must be an int, a float"):
        eval_J(CTX, 0.0, x, 3.3)


@pytest.mark.parametrize("x", [1, 1.0, np.float64(1.0), mp.mpf(1)])
def test_ints_floats_and_mpfs_enter_exactly(x):
    # numpy.float64 is a float; every accepted type of x gives the same
    # bits, also below 53 bits, where a conversion at the caller's
    # precision would round the float z = 0.7
    want = eval_J(CTX, 0.0, 1.0, 0.7, 1e-20)
    with mp.workprec(30):
        got = eval_J(CTX, 0.0, x, 0.7, 1e-20)
    assert (got.value._mpf_, got.abs_error._mpf_) == (
        want.value._mpf_, want.abs_error._mpf_
    )


TINY_TOL = mp.mpf("1e-400")  # below the double range: float(tol) is 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: eval_J(CTX, 0.0, 1.0, 2.0, TINY_TOL),
        lambda: inner_product(CTX, 0.0, SIGNAL, SIGNAL, TINY_TOL),
        lambda: find_zeros(CTX, 0.0, 2, TINY_TOL),
        lambda: inner_product(CTX, 0.0, SIGNAL, SIGNAL, mp.mpf("1e400")),
    ],
    ids=["eval_J", "inner_product", "find_zeros", "inner_product(1e400)"],
)
def test_a_tol_beyond_the_double_range_is_taken(call):
    # the working digits and the J series' stop rule take log10 tol of
    # the mpf itself where float(tol) is 0 or inf
    call()


def test_a_tol_below_the_double_range_refines_the_value():
    fine = eval_J(CTX, 0.0, 1.0, 2.0, TINY_TOL)
    coarse = eval_J(CTX, 0.0, 1.0, 2.0, 1e-300)
    assert fine.abs_error < coarse.abs_error
    assert abs(fine.value - coarse.value) <= coarse.abs_error


def test_jackson_sum_takes_each_power_of_q_once():
    # q^n enters the n-th term and the tail after it: one power per point
    powers = []

    class CountedQ(mp.mpf):
        def __pow__(self, n):
            powers.append(n)
            return mp.mpf.__pow__(self, n)

    from bigqbessel.qcalc import jackson_sum

    q = CountedQ(0.5)
    sv = jackson_sum(lambda n: mp.mpf(1) / (n + 1), mp.mpf(1), q, 1e-12)
    assert powers == list(range(sv.terms_used + 1))
    # (1 - q) sum_n q^n / (n + 1) = -(1 - q) log(1 - q) / q = log 2
    assert abs(sv.value - mp.log(2)) <= sv.abs_error + 1e-15
