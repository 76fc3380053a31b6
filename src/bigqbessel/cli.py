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
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional

import mpmath as mp

from . import _jsonio
from .bqbessel import eval_J, identity_residual
from .defaults import DEFAULT_TOL, Q_MAX, RESIDUAL_TOL, TERMS_MAX
from .errors import BigQBesselError, InvalidOrder, MalformedInput
from .orthogonality import (
    QLatticeSignal,
    fourier_coefficients,
    gram_matrix,
    lommel_integral_direct,
    lommel_rhs_closed,
    weight,
)
from .qcalc import QContext, _arg, _workdigits
from .sampling import q_hankel_transform, reconstruct, sampling_kernel
from .zerofinder import ZeroTable, find_zeros

__all__ = ["main"]


def _finite_mpf(v) -> mp.mpf:
    try:
        m = mp.mpf(v)
    except (TypeError, ValueError):
        m = mp.nan
    if not mp.isfinite(m):
        raise argparse.ArgumentTypeError(f"expected finite numbers; got {v!r}")
    return m


def _lambdas(spec: str) -> List[mp.mpf]:
    """Type of --lambdas: a JSON array or a linear range start:stop:count."""
    spec = spec.strip()
    if spec.startswith("["):
        try:
            vals = _jsonio.loads(spec)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid JSON array {spec!r}") from None
        if not isinstance(vals, list) or not vals:
            raise argparse.ArgumentTypeError("expected a non-empty JSON array")
        return [_finite_mpf(v) for v in vals]
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {spec!r}")
    start, stop = _finite_mpf(parts[0]), _finite_mpf(parts[1])
    try:
        n = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"count must be an integer; got {parts[2]!r}"
        ) from None
    if n < 1:
        raise argparse.ArgumentTypeError("count must be >= 1")
    if n == 1:
        return [start]
    return [start + (stop - start) * k / (n - 1) for k in range(n)]


def _load(path: str, from_dict):
    """from_dict of the JSON document in the file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return from_dict(_jsonio.loads(fh.read()))
        except ValueError as exc:
            raise MalformedInput(f"{path}: {type(exc).__name__}: {exc}") from exc


def _get_table(ctx: QContext, p: dict) -> ZeroTable:
    if p.get("zeros"):
        return _load(p["zeros"], ZeroTable.from_dict)
    return find_zeros(ctx, p["alpha"], p["count"], tol=RESIDUAL_TOL)


def _verify_identities(ctx: QContext, alpha, tol, table) -> List[dict]:
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


def _verify_orthogonality(ctx: QContext, alpha, tol, table) -> List[dict]:
    entries = []
    for lam, mu in ((0.5, 1.0), (1.0, 3.0)):
        d = lommel_integral_direct(ctx, alpha, lam, mu, tol).value
        c = lommel_rhs_closed(ctx, alpha, lam, mu, tol).value
        rel = abs(d - c) / max(1, abs(c))
        entries.append(
            {
                "id": "product-integral-two-sided",
                "params": {"lambda": lam, "mu": mu},
                "residual": float(rel),
            }
        )
    rep = gram_matrix(ctx, alpha, table.head(3), tol)
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


def _verify_sampling(ctx: QContext, alpha, tol, table) -> List[dict]:
    entries = []
    head = table.head(3)
    worst = 0.0
    for k in range(3):
        for m in range(3):
            s = sampling_kernel(ctx, alpha, head, k, head.zeros[m], tol)
            worst = max(worst, abs(float(s) - (1.0 if k == m else 0.0)))
    entries.append(
        {"id": "kernel-delta-property", "params": {"n": 3}, "residual": worst}
    )
    lam = 0.7
    # the signal and both sides at the transform's working precision
    with mp.workdps(_workdigits(tol)):
        q, am, lm = _arg("q", ctx.q), _arg("alpha", alpha), _arg("lam", lam)
        delta = QLatticeSignal(values=[1 / (1 - q)])
        got = q_hankel_transform(ctx, alpha, delta, lam, tol).value
        want = (
            weight(ctx, alpha, 1, tol)
            * eval_J(ctx, am + 1, 1, lm ** 2, tol).value
        )
        residual = float(abs(got - want) / max(1, abs(want)))
    entries.append(
        {
            "id": "delta-signal-transform-closed-form",
            "params": {"lambda": lam},
            "residual": residual,
        }
    )
    sig = QLatticeSignal(values=[1.0, -0.5, 0.25])
    rep = reconstruct(ctx, alpha, sig, table.head(8), [0.3, 0.9], tol)
    entries.append(
        {
            "id": "reconstruction-8-term",
            "params": {"lambdas": [0.3, 0.9]},
            "residual": float(rep.max_rel_err),
        }
    )
    return entries


class _Suite(NamedTuple):
    threshold: float  # an entry whose residual exceeds it fails the suite
    zeros: int  # length of the zero table the run needs
    run: Callable[..., List[dict]]


_SUITES = {
    "identities": _Suite(1e-9, 0, _verify_identities),
    "orthogonality": _Suite(1e-8, 3, _verify_orthogonality),
    # eight zeros push the truncation error of the partial expansion
    # well below the suite threshold
    "sampling": _Suite(1e-6, 8, _verify_sampling),
}


def _verify(ctx: QContext, p: dict) -> dict:
    """The report of the selected suites, which share one zero table:
    the first n zeros of a longer table are the table of n zeros."""
    alpha = p["alpha"]
    selected = list(_SUITES) if p["suite"] == "all" else [p["suite"]]
    count = max(_SUITES[name].zeros for name in selected)
    table = find_zeros(ctx, alpha, count) if count else None
    entries = [
        {"suite": name, **e}
        for name in selected
        for e in _SUITES[name].run(ctx, alpha, p["tol"], table)
    ]
    return {
        "suite": p["suite"],
        "entries": entries,
        "max_residual": max([0.0] + [e["residual"] for e in entries]),
        "pass": not any(
            e["residual"] > _SUITES[e["suite"]].threshold for e in entries
        ),
    }


def _eval(ctx: QContext, p: dict) -> dict:
    # lambda^2 as an mpf: the square of a float overflows past 1.34e154
    z = p["z"] if p["z"] is not None else _arg("lambda", p["lam"]) ** 2
    sv = eval_J(ctx, p["alpha"], p["x"], z, p["tol"], p["terms_max"])
    return {"value": sv.value, "abs_error": sv.abs_error, "terms_used": sv.terms_used}


def _gram(ctx: QContext, p: dict) -> dict:
    return gram_matrix(ctx, p["alpha"], _get_table(ctx, p), p["tol"]).to_dict()


def _fourier(ctx: QContext, p: dict) -> dict:
    table = _get_table(ctx, p)
    sig = _load(p["signal"], QLatticeSignal.from_dict)
    return {"coefficients": fourier_coefficients(ctx, p["alpha"], sig, table, p["tol"])}


def _sample(ctx: QContext, p: dict) -> dict:
    table = _get_table(ctx, p)
    sig = _load(p["signal"], QLatticeSignal.from_dict)
    return reconstruct(ctx, p["alpha"], sig, table, p["lambdas"], p["tol"]).to_dict()


def _eval_options(sp) -> None:
    sp.add_argument("--x", type=float, required=True)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--lambda", dest="lam", type=float)
    g.add_argument("--z", type=float)
    sp.add_argument("--terms-max", type=int, default=TERMS_MAX)


def _table_options(sp) -> None:
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--zeros", type=str, help="path to a zeros JSON table")
    g.add_argument("--count", type=int, help="compute this many zeros first")


def _signal_options(sp) -> None:
    sp.add_argument("--signal", type=str, required=True)
    _table_options(sp)


def _sample_options(sp) -> None:
    _signal_options(sp)
    sp.add_argument(
        "--lambdas",
        type=_lambdas,
        required=True,
        help='JSON array "[0.3,0.7]" or linear range "start:stop:count"',
    )


def _numbered(rows) -> List[list]:
    return [[k, *row] for k, row in enumerate(rows, 1)]


@dataclass(frozen=True)
class _Command:
    """A subcommand.  `options` adds its options to the shared
    --q/--alpha/--tol/--format; `run(ctx, params)` returns the JSON
    document, and the library functions it calls refuse an --alpha out of
    their range; `csv(document)` returns the CSV (header, rows), and is
    None for a command that writes JSON only; the command exits 1 when
    `failed(document)`."""

    help: str
    options: Callable[[argparse.ArgumentParser], None]
    run: Callable[[QContext, dict], dict]
    csv: Optional[Callable[[dict], tuple]] = None
    failed: Callable[[dict], bool] = lambda doc: False


_COMMANDS = {
    "eval": _Command(
        "evaluate J_alpha(x, lambda; q^2)",
        _eval_options,
        _eval,
        csv=lambda d: (list(d), [list(d.values())]),
    ),
    "zeros": _Command(
        "table of positive zeros",
        lambda sp: sp.add_argument("--count", type=int, required=True),
        lambda ctx, p: find_zeros(ctx, p["alpha"], p["count"], tol=p["tol"]).to_dict(),
        csv=lambda d: (
            ["index", "zero", "deriv", "residual"],
            _numbered(zip(d["zeros"], d["derivs"], d["residuals"])),
        ),
    ),
    "gram": _Command(
        "Gram matrix of the zero family",
        _table_options,
        _gram,
        csv=lambda d: (["", *range(1, len(d["matrix"]) + 1)], _numbered(d["matrix"])),
    ),
    "fourier": _Command(
        "expansion coefficients of a signal",
        _signal_options,
        _fourier,
        csv=lambda d: (["index", "coefficient"], _numbered(zip(d["coefficients"]))),
    ),
    "sample": _Command(
        "sampling reconstruction report",
        _sample_options,
        _sample,
        csv=lambda d: (
            ["lambda", "direct", "reconstructed"],
            list(zip(d["lambdas"], d["direct"], d["reconstructed"])),
        ),
    ),
    "verify": _Command(
        "run a verification suite",
        lambda sp: sp.add_argument("--suite", choices=(*_SUITES, "all"), default="all"),
        _verify,
        failed=lambda d: not d["pass"],
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bigqbessel",
        description="Big q-Bessel evaluation, zeros, Gram/Fourier analysis, "
        "sampling reconstruction, and identity verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        sp.add_argument("--q", type=float, required=True)
        sp.add_argument("--alpha", type=float, default=0.0)
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
        formats = ("json", "csv") if cmd.csv else ("json",)
        sp.add_argument("--format", choices=formats, default="json")
        cmd.options(sp)
    return p


def main(argv: List[str] | None = None) -> int:
    """Run the command in argv (default sys.argv[1:]), write its document
    to stdout and return the exit code: 0 ok, 1 verification failure, 3
    numeric or IO failure.  A usage error exits with code 2, and so does an
    --alpha that the command's library functions refuse (InvalidOrder): a
    zero table file must match --alpha, so only --alpha can cause one."""
    parser = _build_parser()
    ns = parser.parse_args(sys.argv[1:] if argv is None else argv)
    for name, v in vars(ns).items():
        if isinstance(v, float) and not math.isfinite(v):
            opt = "lambda" if name == "lam" else name
            parser.error(f"--{opt} must be finite; got {v}")
    if not 0 < ns.q <= Q_MAX:
        parser.error(f"--q must lie in (0, {Q_MAX}]; got {ns.q}")
    if ns.tol <= 0:
        parser.error(f"--tol must be positive; got {ns.tol}")
    cmd = _COMMANDS[ns.command]
    if getattr(ns, "count", None) is not None and ns.count < 1:
        parser.error("--count must be >= 1")
    if getattr(ns, "terms_max", 1) < 1:
        parser.error(f"--terms-max must be >= 1; got {ns.terms_max}")
    try:
        doc = cmd.run(QContext(ns.q), vars(ns))
        if ns.format == "csv":
            out = _jsonio.rows_to_csv(*cmd.csv(doc))
        else:
            out = _jsonio.dumps(doc) + "\n"
    except InvalidOrder as exc:
        parser.error(f"--alpha: {exc}")
    except (BigQBesselError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return 1 if cmd.failed(doc) else 0


if __name__ == "__main__":
    sys.exit(main())
