"""Command-line front end.

Subcommands: eval, zeros, gram, fourier, sample, verify.  Output is JSON
(default) or CSV with floats at 17 significant digits; identical argv and
input files yield byte-identical output.  Exit codes: 0 success, 1
verification failure, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from typing import List

import mpmath as mp

from . import _jsonio
from .bqbessel import eval_J, identity_residual
from .defaults import DEFAULT_TOL, Q_MAX, RESIDUAL_TOL, TERMS_MAX
from .errors import BigQBesselError, MalformedInput
from .orthogonality import (
    QLatticeSignal,
    fourier_coefficients,
    gram_matrix,
    lommel_integral_direct,
    lommel_rhs_closed,
)
from .qcalc import QContext, fused_product_ratio
from .sampling import q_hankel_transform, reconstruct, sampling_kernel
from .zerofinder import ZeroTable, find_zeros

__all__ = ["RunPlan", "VerifyReport", "parse_args", "execute", "main"]

COMMANDS = ("eval", "zeros", "gram", "fourier", "sample", "verify")
SUITES = ("identities", "orthogonality", "sampling", "all")
SUITE_THRESHOLDS = {
    "identities": 1e-9,
    "orthogonality": 1e-8,
    "sampling": 1e-6,
}


@dataclass(frozen=True)
class RunPlan:
    command: str
    params: dict
    output_format: str = "json"


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    entries: List[dict] = field(default_factory=list)
    max_residual: float = 0.0
    passed: bool = True

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "entries": self.entries,
            "max_residual": self.max_residual,
            "pass": self.passed,
        }


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bigqbessel",
        description="Big q-Bessel evaluation, zeros, Gram/Fourier analysis, "
        "sampling reconstruction, and identity verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, alpha_default=0.0):
        sp.add_argument("--q", type=float, required=True)
        sp.add_argument("--alpha", type=float, default=alpha_default)
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
        sp.add_argument(
            "--format", choices=("json", "csv"), default="json"
        )

    sp = sub.add_parser("eval", help="evaluate J_alpha(x, lambda; q^2)")
    common(sp)
    sp.add_argument("--x", type=float, required=True)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--lambda", dest="lam", type=float)
    g.add_argument("--z", type=float)
    sp.add_argument("--terms-max", type=int, default=TERMS_MAX)

    sp = sub.add_parser("zeros", help="table of positive zeros")
    common(sp)
    sp.add_argument("--count", type=int, required=True)

    sp = sub.add_parser("gram", help="Gram matrix of the zero family")
    common(sp)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--zeros", type=str, help="path to a zeros JSON table")
    g.add_argument("--count", type=int, help="compute this many zeros first")

    sp = sub.add_parser("fourier", help="expansion coefficients of a signal")
    common(sp)
    sp.add_argument("--signal", type=str, required=True)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--zeros", type=str)
    g.add_argument("--count", type=int)

    sp = sub.add_parser("sample", help="sampling reconstruction report")
    common(sp)
    sp.add_argument("--signal", type=str, required=True)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--zeros", type=str)
    g.add_argument("--count", type=int)
    sp.add_argument(
        "--lambdas",
        type=str,
        required=True,
        help='JSON array "[0.3,0.7]" or linear range "start:stop:count"',
    )

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp)
    sp.add_argument("--suite", choices=SUITES, default="all")
    return p


def _finite_mpf(v, error) -> mp.mpf:
    try:
        m = mp.mpf(v)
    except (TypeError, ValueError):
        m = mp.nan
    if not mp.isfinite(m):
        error(f"--lambdas: expected finite numbers; got {v!r}")
    return m


def _parse_lambdas(spec: str, error) -> List[mp.mpf]:
    spec = spec.strip()
    if spec.startswith("["):
        try:
            vals = _jsonio.loads(spec)
        except ValueError:
            error(f"--lambdas: invalid JSON array {spec!r}")
        if not isinstance(vals, list) or not vals:
            error("--lambdas: expected a non-empty JSON array")
        return [_finite_mpf(v, error) for v in vals]
    parts = spec.split(":")
    if len(parts) != 3:
        error(f"--lambdas: expected start:stop:count, got {spec!r}")
    start, stop = _finite_mpf(parts[0], error), _finite_mpf(parts[1], error)
    try:
        n = int(parts[2])
    except ValueError:
        error(f"--lambdas: count must be an integer; got {parts[2]!r}")
    if n < 1:
        error("--lambdas: count must be >= 1")
    if n == 1:
        return [start]
    return [start + (stop - start) * k / (n - 1) for k in range(n)]


ALPHA_FLOOR = {
    "eval": -1.0,
    "zeros": -0.5,
    "gram": -0.5,
    "fourier": -0.5,
    "sample": -1.5,
    "verify": -1.0,
}


def parse_args(argv: List[str]) -> RunPlan:
    """Validate argv into a RunPlan; exits with code 2 on usage errors."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    for name, v in vars(ns).items():
        if isinstance(v, float) and not math.isfinite(v):
            opt = "lambda" if name == "lam" else name
            parser.error(f"--{opt} must be finite; got {v}")
    if not 0 < ns.q <= Q_MAX:
        parser.error(f"--q must lie in (0, {Q_MAX}]; got {ns.q}")
    if ns.tol <= 0:
        parser.error(f"--tol must be positive; got {ns.tol}")
    if ns.alpha <= ALPHA_FLOOR[ns.command]:
        parser.error(
            f"--alpha must exceed {ALPHA_FLOOR[ns.command]} for "
            f"{ns.command}; got {ns.alpha}"
        )
    params = {k: v for k, v in vars(ns).items() if k not in ("command", "format")}
    if ns.command == "sample":
        params["lambdas"] = _parse_lambdas(ns.lambdas, parser.error)
    if getattr(ns, "count", None) is not None and ns.count < 1:
        parser.error("--count must be >= 1")
    return RunPlan(ns.command, params, ns.format)


def _load(path: str, from_dict):
    """from_dict of the JSON document in the file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return from_dict(_jsonio.loads(fh.read()))
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedInput(f"{path}: {type(exc).__name__}: {exc}") from exc


def _get_table(ctx: QContext, p: dict) -> ZeroTable:
    if p.get("zeros"):
        return _load(p["zeros"], ZeroTable.from_dict)
    return find_zeros(ctx, p["alpha"], p["count"], tol=RESIDUAL_TOL)


def _verify_identities(ctx: QContext, alpha, tol) -> List[dict]:
    kinds = ["dq-order-raise", "dqinv-order-lower", "eigenfunction", "trig-dq"]
    if alpha > 0:
        kinds += ["recurrence-order", "recurrence-shifted"]
    entries = []
    for kind in kinds:
        for x in (ctx.q, 1.0):
            for z in (0.25, 1.0):
                r = identity_residual(ctx, kind, alpha, x, z, tol)
                entries.append(
                    {
                        "id": kind,
                        "params": {"x": x, "z": z},
                        "residual": float(r),
                    }
                )
    return entries


def _verify_orthogonality(ctx: QContext, alpha, tol) -> List[dict]:
    entries = []
    for lam, mu in ((0.5, 1.0), (1.0, 3.0)):
        d = lommel_integral_direct(ctx, alpha, 1.0, lam, mu, tol).value
        c = lommel_rhs_closed(ctx, alpha, 1.0, lam, mu, tol).value
        rel = abs(d - c) / max(1, abs(c))
        entries.append(
            {
                "id": "product-integral-two-sided",
                "params": {"lambda": lam, "mu": mu},
                "residual": float(rel),
            }
        )
    table = find_zeros(ctx, alpha, 3)
    rep = gram_matrix(ctx, alpha, table, tol)
    for k in range(3):
        direct = rep.matrix[k][k]
        closed = rep.norm_closed[k]
        entries.append(
            {
                "id": "norm-closed-vs-direct",
                "params": {"k": k + 1},
                "residual": float(abs(direct - closed) / abs(closed)),
            }
        )
    entries.append(
        {
            "id": "gram-offdiagonal",
            "params": {"n": 3},
            "residual": float(rep.max_offdiag_rel),
        }
    )
    return entries


def _verify_sampling(ctx: QContext, alpha, tol) -> List[dict]:
    entries = []
    table = find_zeros(ctx, alpha, 3)
    worst = 0.0
    for k in range(3):
        for m in range(3):
            s = sampling_kernel(ctx, alpha, table, k, table.zeros[m], tol)
            worst = max(worst, abs(float(s) - (1.0 if k == m else 0.0)))
    entries.append(
        {"id": "kernel-delta-property", "params": {"n": 3}, "residual": worst}
    )
    q = mp.mpf(ctx.q)
    delta = QLatticeSignal(values=[1 / (1 - float(ctx.q))], a=1.0)
    lam = 0.7
    got = q_hankel_transform(ctx, alpha, delta, lam, tol).value
    want = (
        fused_product_ratio(1, 2, 2 * mp.mpf(alpha) + 4, q, tol)
        * eval_J(ctx, alpha + 1, 1, mp.mpf(lam) ** 2, tol).value
    )
    entries.append(
        {
            "id": "delta-signal-transform-closed-form",
            "params": {"lambda": lam},
            "residual": float(abs(got - want) / max(1, abs(want))),
        }
    )
    # eight zeros push the truncation error of the partial expansion
    # well below the suite threshold
    wide = find_zeros(ctx, alpha, 8)
    sig = QLatticeSignal(values=[1.0, -0.5, 0.25], a=1.0)
    rep = reconstruct(ctx, alpha, sig, wide, [0.3, 0.9], tol)
    entries.append(
        {
            "id": "reconstruction-8-term",
            "params": {"lambdas": [0.3, 0.9]},
            "residual": float(rep.max_rel_err),
        }
    )
    return entries


def _run_verify(ctx: QContext, p: dict) -> VerifyReport:
    suite = p["suite"]
    alpha = p["alpha"]
    tol = p["tol"]
    runners = {
        "identities": _verify_identities,
        "orthogonality": _verify_orthogonality,
        "sampling": _verify_sampling,
    }
    selected = list(runners) if suite == "all" else [suite]
    entries = []
    passed = True
    max_res = 0.0
    for name in selected:
        for e in runners[name](ctx, alpha, tol):
            e = {"suite": name, **e}
            entries.append(e)
            max_res = max(max_res, e["residual"])
            if e["residual"] > SUITE_THRESHOLDS[name]:
                passed = False
    return VerifyReport(suite, entries, max_res, passed)


def execute(plan: RunPlan) -> int:
    """Run the plan, write the document to stdout, and return the exit
    code (0 ok, 1 verification failure, 3 numeric failure)."""
    p = plan.params
    try:
        ctx = QContext(p["q"], p["alpha"])
        if plan.command == "eval":
            z = p["z"] if p.get("z") is not None else p["lam"] ** 2
            sv = eval_J(
                ctx, p["alpha"], p["x"], z, p["tol"], p["terms_max"]
            )
            doc = {
                "value": sv.value,
                "abs_error": sv.abs_error,
                "terms_used": sv.terms_used,
            }
            if plan.output_format == "csv":
                out = _jsonio.rows_to_csv(
                    ["value", "abs_error", "terms_used"],
                    [[sv.value, sv.abs_error, sv.terms_used]],
                )
            else:
                out = _jsonio.dumps(doc) + "\n"
        elif plan.command == "zeros":
            table = find_zeros(ctx, p["alpha"], p["count"], tol=p["tol"])
            if plan.output_format == "csv":
                rows = [
                    [k + 1, table.zeros[k], table.derivs[k], table.residuals[k]]
                    for k in range(len(table))
                ]
                out = _jsonio.rows_to_csv(
                    ["index", "zero", "deriv", "residual"], rows
                )
            else:
                out = _jsonio.dumps(table.to_dict()) + "\n"
        elif plan.command == "gram":
            table = _get_table(ctx, p)
            rep = gram_matrix(ctx, p["alpha"], table, p["tol"])
            if plan.output_format == "csv":
                n = len(table)
                header = [""] + [str(j + 1) for j in range(n)]
                rows = [
                    [str(i + 1)] + list(rep.matrix[i]) for i in range(n)
                ]
                out = _jsonio.rows_to_csv(header, rows)
            else:
                out = _jsonio.dumps(rep.to_dict()) + "\n"
        elif plan.command == "fourier":
            table = _get_table(ctx, p)
            sig = _load(p["signal"], QLatticeSignal.from_dict)
            coeffs = fourier_coefficients(ctx, p["alpha"], sig, table, p["tol"])
            if plan.output_format == "csv":
                rows = [[k + 1, c] for k, c in enumerate(coeffs)]
                out = _jsonio.rows_to_csv(["index", "coefficient"], rows)
            else:
                out = _jsonio.dumps({"coefficients": coeffs}) + "\n"
        elif plan.command == "sample":
            table = _get_table(ctx, p)
            sig = _load(p["signal"], QLatticeSignal.from_dict)
            rep = reconstruct(
                ctx, p["alpha"], sig, table, p["lambdas"], p["tol"]
            )
            if plan.output_format == "csv":
                rows = [
                    [rep.lambdas[i], rep.direct[i], rep.reconstructed[i]]
                    for i in range(len(rep.lambdas))
                ]
                out = _jsonio.rows_to_csv(
                    ["lambda", "direct", "reconstructed"], rows
                )
            else:
                out = _jsonio.dumps(rep.to_dict()) + "\n"
        elif plan.command == "verify":
            rep = _run_verify(ctx, p)
            out = _jsonio.dumps(rep.to_dict()) + "\n"
            sys.stdout.write(out)
            return 0 if rep.passed else 1
        else:  # pragma: no cover - parse_args rejects unknown commands
            raise ValueError(f"unknown command {plan.command}")
    except BigQBesselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return 0


def main(argv: List[str] | None = None) -> int:
    plan = parse_args(sys.argv[1:] if argv is None else argv)
    return execute(plan)


if __name__ == "__main__":
    sys.exit(main())
