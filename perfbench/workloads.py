"""The four benchmark workloads.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Operations come in rounds.  A round
has a fixed make-up of the parameters that set an operation's cost (q,
request type, size, tolerance), or pairs them so that a pair's cost is
about fixed; the seed draws the remaining values and the order of the
round.  The timed loop runs whole rounds until `--seconds` have passed, so
a run's cost mix hardly depends on the seed.  Every random value comes
from a `random.Random` seeded with the workload name and `--seed`; the
library only ever sees the generated inputs.

A workload provides:
  prepare(seed, workdir) -> state   set-up: inputs, zero tables, files
  state.rounds                      iterator of operation lists
  run(state, op)                    one operation, returns its output
  check(state, op, out)             None if the output is right, else why
  probe_ops(state)                  operations that reproduce a known defect

No operation of a timed stream is expected to fail.  The known defects of
the library (NOTES.md) are reproduced by a workload's probe operations,
which run once after the timed loop and are reported on their own.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import mpmath as mp

import bigqbessel as B
from bigqbessel import _jsonio, cli

import reference

SRC = Path(B.__file__).resolve().parent.parent


def seeded(workload: str, seed: int) -> random.Random:
    return random.Random(f"bigqbessel-bench/{workload}/{seed}")


class KnownDefect(str):
    """A failed check that matches a defect named in NOTES.md.  In a probe
    it shows the defect is still there; in a timed stream it counts as a
    failure like any other, but does not make the run incorrect."""


@dataclass
class State:
    rounds: Iterator[list]
    data: dict = field(default_factory=dict)


class Workload:
    trace_rounds = 1  # rounds replayed under tracing
    round_block = 2  # rounds come in antithetic pairs; a run ends on a whole pair
    in_child = False  # whether `run` does its work in a child process

    def known_error(self, op, err) -> bool:
        """Whether a raised error is one of the known defects (NOTES.md)."""
        return False

    def checked(self, op) -> bool:
        """Whether `check` looks at this operation's output."""
        return True

    def probe_ops(self, state: "State") -> list:
        """Operations that fail at the seed commit through a known defect."""
        return []


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointOp:
    kind: str  # J, dJ, cos, sin
    q: float
    alpha: float
    x: float
    z: float
    tol: float
    checked: bool


class Pointwise(Workload):
    """Seeded stream of L1 calls: mostly eval_J, some eval_dJ_dz and some
    eval_big_cos / eval_big_sin.

    Why: nearly all the time is in qcalc.sum_series and the term-ratio
    callables in bqbessel, and no two calls share arguments.  A series
    engine change shows its full effect here; a cache shows only its cost.
    q from 0.3 to 0.95 spans call costs from about 0.5 ms to 90 ms, so the
    tail is real work.  eval_big_sin's abs_error is not a bound (known
    defect 2, NOTES.md), so its calls in the stream are timed but not in
    the checked subsample; the probe checks six of them at tol 1e-30.

    Loop: closed, one caller.  Round: 32 calls, one per (q, z-band) with
    q in {0.3, 0.5, 0.8, 0.95} and log10|z| cut into 8 bands over [-3, 4];
    24 eval_J, 4 eval_dJ_dz, 2 cos and 2 sin; 4 of the 32 at tol 1e-30,
    the rest at 1e-13.  Seed: the sign of z and its place in the band,
    alpha in (-1, 2), x in [0, 2], which slots get which kind and tol, the
    call order, and which 4 of the 30 calls other than eval_big_sin are
    checked.  Rounds come in
    antithetic pairs: the second keeps the first's kinds and tols and
    mirrors each slot's place in its z-band, alpha and x (u -> 1 - u), so
    the cost of a pair, and of a run, hardly depends on the seed.
    """

    trace_rounds = 16

    Q = (0.3, 0.5, 0.8, 0.95)
    Z_BANDS = 8
    LOG_Z = (-3.0, 4.0)
    KINDS = ("J",) * 24 + ("dJ",) * 4 + ("cos",) * 2 + ("sin",) * 2
    TOLS = (1e-30,) * 4 + (1e-13,) * 28
    CHECKED_PER_ROUND = 4
    PROBE_Q = (0.3, 0.8, 0.95)

    def prepare(self, seed: int, workdir: Path) -> State:
        return State(self._rounds(seeded("pointwise", seed)),
                     {"ctx": {q: B.QContext(q) for q in self.Q}, "seed": seed})

    def _rounds(self, rng: random.Random):
        lo, hi = self.LOG_Z
        width = (hi - lo) / self.Z_BANDS
        slots = [(q, b) for q in self.Q for b in range(self.Z_BANDS)]
        while True:
            kinds = list(self.KINDS)
            tols = list(self.TOLS)
            rng.shuffle(kinds)
            rng.shuffle(tols)
            draws = [[rng.uniform(1e-9, 1 - 1e-9) for _ in range(3)] for _ in slots]
            for mirrored in (False, True):
                plain = [i for i, kind in enumerate(kinds) if kind != "sin"]
                checked = set(rng.sample(plain, self.CHECKED_PER_ROUND))
                ops = []
                for i, ((q, b), u) in enumerate(zip(slots, draws)):
                    uz, ua, ux = (1 - v for v in u) if mirrored else u
                    z = rng.choice((-1.0, 1.0)) * 10 ** (lo + width * (b + uz))
                    ops.append(PointOp(kinds[i], q, -1.0 + 3.0 * ua, 2.0 * ux, z, tols[i],
                                       i in checked))
                rng.shuffle(ops)
                yield ops

    def run(self, state: State, op: PointOp):
        ctx = state.data["ctx"][op.q]
        if op.kind == "J":
            return B.eval_J(ctx, op.alpha, op.x, op.z, op.tol)
        if op.kind == "dJ":
            return B.eval_dJ_dz(ctx, op.alpha, op.x, op.z, op.tol)
        if op.kind == "cos":
            return B.eval_big_cos(ctx, op.x, op.z, op.tol)
        return B.eval_big_sin(ctx, op.x, op.z, op.tol)

    def checked(self, op: PointOp) -> bool:
        return op.checked

    def probe_ops(self, state: State) -> list:
        """eval_big_sin at tol 1e-30, two calls per q in PROBE_Q, with x in
        [0, 2] and log10 z in [0, 2] drawn from the seed."""
        rng = seeded("pointwise-probe", state.data["seed"])
        return [PointOp("sin", q, 0.5, rng.uniform(0.0, 2.0), 10 ** rng.uniform(0.0, 2.0),
                        1e-30, True) for q in self.PROBE_Q for _ in range(2)]

    def check(self, state: State, op: PointOp, out) -> Optional[str]:
        """|value - reference| <= abs_error on the checked subsample."""
        if not op.checked:
            return None
        alpha = {"cos": -0.5, "sin": 0.5}.get(op.kind, op.alpha)
        scale = 1 - mp.mpf(op.q) if op.kind == "sin" else mp.mpf(1)
        ref, settle = reference.series(alpha, op.x, op.z, op.q, out.abs_error * scale,
                                       derivative=op.kind == "dJ")
        with mp.workdps(mp.mp.dps + 300):
            err = abs(out.value - ref / scale)
        bound = out.abs_error + settle / scale
        if err <= bound:
            return None
        why = (f"{op}: |value - reference| = {mp.nstr(err, 5)} exceeds "
               f"abs_error {mp.nstr(out.abs_error, 5)}")
        # eval_big_sin scales by 1/(1-q) in double precision, which its
        # abs_error leaves out: an error within a few ulps of the value.
        if op.kind == "sin" and err <= bound + 2.0**-50 * abs(out.value):
            return KnownDefect(why + " (double-precision scaling, NOTES.md)")
        return why


# ---------------------------------------------------------------------------

# First five lambda-zeros of J_0(1, .; 0.25) and J_{1/2}(1, .; 0.64), frozen
# from an independent brute-force series at 40 digits (the package's test
# oracle values), with the relative accuracy each set carries.  The oracle
# took q^2 as the double nearest 0.8^2, the library squares mpf(0.8)
# exactly; the two differ by about 1e-16, which moves the q=0.8 zeros by
# up to 4e-16 relative.  q^2 = 0.25 is exact in both.
FROZEN_ZEROS = {
    (0.5, 0.0): (1e-24, [
        "1.124253358794089558641119", "3.611837405451427421334845",
        "7.942826252026860059857569", "15.99801718635127601501381",
        "31.99998405512801460400392",
    ]),
    (0.8, 0.5): (1e-14, [
        "0.4911775424836051737926656", "1.042458602695282648589552",
        "1.690099497046688274768611", "2.442892004164352558599584",
        "3.290652996991748371331285",
    ]),
}


@dataclass(frozen=True)
class ZeroOp:
    q: float
    alpha: float
    count: int
    tol: float


class ZeroTables(Workload):
    """Seeded list of find_zeros jobs.

    Why: the scan and refine steps of zerofinder dominate.  The L1/L0
    layers are the same as in `pointwise`, in another regime: many terms,
    high working precision and heavy cancellation near large zeros.  A
    20-zero table at q=0.5 takes about 1100 L1 calls.  A zero finder that
    needs fewer evaluations per zero shows here.

    Loop: closed, one caller.  Round: 8 tables, two per q in
    {0.3, 0.5, 0.8, 0.9}, one at tol 1e-12 and one at 1e-30, with counts
    c and 25 - c for c in 5..12 (so every round finds 100 zeros).  The
    smaller table at q=0.5 has alpha = 0 and at q=0.8 alpha = 1/2, the
    parameter sets with frozen zeros; at q=0.3 and 0.9 its alpha is drawn
    from (-1/2, 2).  The larger table has alpha 1/2 or 1.  Rounds come in
    antithetic pairs: the second takes c -> 17 - c, the drawn alphas' place
    in (-1/2, 2) u -> 1 - u and the other larger-table alpha, so every pair
    makes, per q, tables of c, 25 - c, 17 - c and 8 + c zeros, and the
    cost of a pair hardly depends on the seed.  Seed: c per q, the alphas,
    and the table order of each round.
    """

    Q = (0.3, 0.5, 0.8, 0.9)
    # Tolerance of the larger table of each pair: both pairings occur.
    BIG_TOL = {0.3: 1e-30, 0.5: 1e-12, 0.8: 1e-30, 0.9: 1e-12}
    ANCHOR_ALPHA = {0.5: 0.0, 0.8: 0.5}
    # A table costs up to 1.5x more as alpha nears either end of
    # (-1/2, 2]; the larger table of a pair, which sets most of a round's
    # cost, stays at alpha = 1/2 or 1.
    BIG_ALPHA = (0.5, 1.0)

    def prepare(self, seed: int, workdir: Path) -> State:
        return State(self._rounds(seeded("zero_tables", seed)))

    def _rounds(self, rng: random.Random):
        other = {1e-12: 1e-30, 1e-30: 1e-12}
        while True:
            draws = {q: (rng.randint(5, 12), rng.random(), rng.randrange(2)) for q in self.Q}
            for mirrored in (False, True):
                ops = []
                for q, (small, u, big_alpha) in draws.items():
                    if mirrored:
                        small, u, big_alpha = 17 - small, 1 - u, 1 - big_alpha
                    a_small = self.ANCHOR_ALPHA.get(q, -0.49 + 2.49 * u)
                    ops.append(ZeroOp(q, a_small, small, other[self.BIG_TOL[q]]))
                    ops.append(ZeroOp(q, self.BIG_ALPHA[big_alpha], 25 - small, self.BIG_TOL[q]))
                rng.shuffle(ops)
                yield ops

    def run(self, state: State, op: ZeroOp):
        return B.find_zeros(B.QContext(op.q), op.alpha, op.count, tol=op.tol)

    def check(self, state: State, op: ZeroOp, table) -> Optional[str]:
        """Count, strict increase, residual |J| <= tol re-evaluated with
        the reference series, derivative signs that alternate and agree
        with the reference, and the frozen zeros where (q, alpha) match."""
        zeros, derivs = table.zeros, table.derivs
        if len(zeros) != op.count:
            return f"{op}: {len(zeros)} zeros"
        if any(not a < b for a, b in zip(zeros, zeros[1:])):
            return f"{op}: zeros not strictly increasing"
        if any(d == 0 for d in derivs) or any(
                (a > 0) == (b > 0) for a, b in zip(derivs, derivs[1:])):
            return f"{op}: derivative signs do not alternate"
        for k, (lam, deriv) in enumerate(zip(zeros, derivs)):
            with mp.workprec(2 * lam._mpf_[3] + 16):
                z = lam * lam
            resid, settle = reference.series(op.alpha, 1, z, op.q, op.tol / 100)
            if abs(resid) > op.tol + settle:
                return f"{op}: |J(1, j_{k + 1})| = {mp.nstr(abs(resid), 5)} > tol"
            slope, _ = reference.series(op.alpha, 1, z, op.q, op.tol / 100, derivative=True)
            if (slope > 0) != (deriv > 0):
                return f"{op}: derivative sign at j_{k + 1} disagrees with the reference"
        if (op.q, op.alpha) in FROZEN_ZEROS:
            rel, frozen = FROZEN_ZEROS[op.q, op.alpha]
            with mp.workdps(50):
                for k, want in enumerate(frozen):
                    want = mp.mpf(want)
                    if abs(zeros[k] - want) > 10 * op.tol / abs(derivs[k]) + rel * want:
                        return f"{op}: j_{k + 1} differs from the frozen value"
        return None


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeOp:
    kind: str  # gram, fourier, reconstruct, closed_sum
    params: Tuple[float, float]  # (q, alpha) of the zero table
    n: int  # zeros used
    signal: Tuple[float, ...] = ()
    lambdas: Tuple[float, ...] = ()


class Lattice(Workload):
    """Zero tables built in set-up, then seeded analysis requests.

    Why: the time goes to orthogonality and sampling, and most L1 calls
    repeat an earlier one (a 5-zero Gram makes about 1900 calls, most of
    them repeats).  A shared lattice basis shows its gain here, while
    `pointwise` is where it must show none.  The request sizes are the
    ones the analysis is used at, except fourier_coefficients:
    norm_sq_closed raises NotAZero from the 10th zero at (q, alpha) =
    (0.5, 0) and from the 8th at (0.3, 1) (known defect 1, NOTES.md), so
    the timed requests stay below those zeros and the probe makes one
    request at each of them.

    Loop: closed, one caller.  Set-up: 20-zero tables at tol 1e-12 for
    (q, alpha) = (0.5, 0) and (0.3, 1).  Round: 8 requests, each of the
    four kinds once per table: gram_matrix on 4-6 zeros, fourier_coefficients
    of a 10-40 point signal on 6-9 zeros at (0.5, 0) and 6-7 at (0.3, 1),
    reconstruct of a 10-40 point signal from 10-20 zeros at 4-8 lambdas in
    [0.1, 3], and closed_sum_check on 10-20 zeros at a lambda in [0.1, 3].  Rounds come
    in antithetic pairs: the second mirrors every size of the first in its
    range (v -> lo + hi - v) and every lambda's place in [0.1, 3], so the
    cost of a pair hardly depends on the seed.  Seed: the sizes and
    lambdas of each pair, the signal values in [-1, 1] and the request
    order of each round.
    """

    PARAMS = ((0.5, 0.0), (0.3, 1.0))
    # Per table, the first zero at which norm_sq_closed raises NotAZero.
    DEFECT_ZERO = {(0.5, 0.0): 10, (0.3, 1.0): 8}
    TABLE_ZEROS = 20
    TABLE_TOL = 1e-12
    # Gram diagonal against norm_closed, reconstruction error and the
    # closed-sum gap sit near 1e-14 at the library's default tol 1e-13.
    REL_TOL = 1e-10

    def prepare(self, seed: int, workdir: Path) -> State:
        tables = {p: B.find_zeros(B.QContext(p[0]), p[1], self.TABLE_ZEROS, tol=self.TABLE_TOL)
                  for p in self.PARAMS}
        return State(self._rounds(seeded("lattice", seed)), {"tables": tables, "seed": seed})

    def _rounds(self, rng: random.Random):
        def signal(n):
            return tuple(rng.uniform(-1.0, 1.0) for _ in range(n))

        def lams(us):
            return tuple(sorted(0.1 + 2.9 * u for u in us))

        while True:
            draws = {p: ({"gram": (rng.randint(4, 6), 4, 6),
                          "fourier": (rng.randint(6, last - 1), 6, last - 1),
                          "fourier_size": (rng.randint(10, 40), 10, 40),
                          "recon": (rng.randint(10, 20), 10, 20),
                          "recon_size": (rng.randint(10, 40), 10, 40),
                          "recon_lams": (rng.randint(4, 8), 4, 8),
                          "closed": (rng.randint(10, 20), 10, 20)},
                         [rng.random() for _ in range(9)])
                     for p, last in self.DEFECT_ZERO.items()}
            for mirrored in (False, True):
                ops = []
                for p, (sizes, places) in draws.items():
                    n = {k: lo + hi - v if mirrored else v for k, (v, lo, hi) in sizes.items()}
                    us = [1 - u if mirrored else u for u in places]
                    ops += [LatticeOp("gram", p, n["gram"]),
                            LatticeOp("fourier", p, n["fourier"], signal(n["fourier_size"])),
                            LatticeOp("reconstruct", p, n["recon"], signal(n["recon_size"]),
                                      lams(us[:n["recon_lams"]])),
                            LatticeOp("closed_sum", p, n["closed"], lambdas=lams(us[8:]))]
                rng.shuffle(ops)
                yield ops

    def known_error(self, op, err) -> bool:
        """norm_sq_closed's residual check near large zeros."""
        return (isinstance(err, B.errors.NotAZero) and op.kind == "fourier"
                and op.n >= self.DEFECT_ZERO[op.params])

    def probe_ops(self, state: State) -> list:
        """One fourier_coefficients request per table on DEFECT_ZERO zeros,
        with a 24-point signal drawn from the seed."""
        rng = seeded("lattice-probe", state.data["seed"])
        return [LatticeOp("fourier", p, n, tuple(rng.uniform(-1.0, 1.0) for _ in range(24)))
                for p, n in self.DEFECT_ZERO.items()]

    def run(self, state: State, op: LatticeOp):
        q, alpha = op.params
        ctx = B.QContext(q)
        table = state.data["tables"][op.params].head(op.n)
        if op.kind == "gram":
            return B.gram_matrix(ctx, alpha, table)
        if op.kind == "fourier":
            return B.fourier_coefficients(ctx, alpha, B.QLatticeSignal(list(op.signal)), table)
        if op.kind == "reconstruct":
            return B.reconstruct(ctx, alpha, B.QLatticeSignal(list(op.signal)), table,
                                 list(op.lambdas))
        return B.closed_sum_check(ctx, alpha, table, op.lambdas[0])

    def check(self, state: State, op: LatticeOp, out) -> Optional[str]:
        q, alpha = op.params
        tol = self.REL_TOL
        if op.kind == "gram":
            for k, (row, norm) in enumerate(zip(out.matrix, out.norm_closed)):
                if abs(row[k] - norm) > tol * abs(norm):
                    return f"{op.kind} n={op.n} {op.params}: G[{k}][{k}] != norm_closed"
        elif op.kind == "fourier":
            # The first coefficient again, through inner_product.
            ctx = B.QContext(q)
            table = state.data["tables"][op.params]
            sig = B.QLatticeSignal(list(op.signal))
            z = table.zeros[0] ** 2
            basis = B.QLatticeSignal(
                [B.eval_J(ctx, alpha + 1, mp.mpf(q) ** m, z).value for m in range(len(sig))])
            ip = B.inner_product(ctx, alpha, sig, basis).value
            mu = B.norm_sq_closed(ctx, alpha, table.zeros[0], table.derivs[0])
            if len(out) != op.n or abs(out[0] - ip / mu) > tol * max(1, abs(out[0])):
                return f"{op.kind} n={op.n} {op.params}: a_1 disagrees with inner_product"
        elif op.kind == "reconstruct":
            if out.terms != op.n or not out.max_rel_err <= tol:
                return f"{op.kind} n={op.n} {op.params}: max_rel_err {mp.nstr(out.max_rel_err, 5)}"
        elif not out.gap <= tol * max(1, abs(out.lhs)):
            return f"{op.kind} n={op.n} {op.params}: gap {mp.nstr(out.gap, 5)}"
        return None


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    argv: Tuple[str, ...]
    expect_rc: int


def cli_env() -> Dict[str, str]:
    """The package is not installed: the CLI runs from the source tree."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_cli_subprocess(argv) -> Tuple[int, bytes, bytes]:
    p = subprocess.run([sys.executable, "-m", "bigqbessel.cli", *argv], env=cli_env(),
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=170)
    return p.returncode, p.stdout, p.stderr


def run_cli_in_process(argv) -> Tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue().encode(), err.getvalue().encode()


class Cli(Workload):
    """`python -m bigqbessel.cli` as sequential subprocesses, with
    PYTHONPATH pointing at the source tree.

    Why: the only workload that pays interpreter start and import on every
    command (about 0.15 s), argument parsing, deterministic emission and
    the verify glue.  It covers the L4 commands zeros, sample and
    verify --suite all.

    Loop: closed, one caller, one subprocess at a time.  Set-up writes a
    5-zero table for (q, alpha) = (0.5, 0) and a signal file.  Round: the
    same 8 commands, once each: eval (json) and eval (csv) at q in
    {0.3, 0.5, 0.8}, and at (q, alpha) = (0.5, 0) zeros --count 5,
    gram --zeros <file>,
    fourier --count 6, sample --count 8 --lambdas a:b:n, and verify
    --suite identities / all.  verify --suite all exits
    1 (the documented orthogonality finding), every other command 0.
    The sizes that set a command's cost are fixed: 24 signal points and 6
    lambdas.  Seed: the eval arguments, the signal values in [-1, 1], the
    ends of the lambda range, and the order per round.
    """

    in_child = True
    round_block = 1  # every round is the same commands
    SIGNAL_POINTS = 24
    LAMBDAS = 6

    def prepare(self, seed: int, workdir: Path) -> State:
        rng = seeded("cli", seed)
        workdir.mkdir(parents=True, exist_ok=True)
        zeros_file = workdir / "zeros.json"
        signal_file = workdir / "signal.json"
        table = B.find_zeros(B.QContext(0.5), 0.0, 5)
        zeros_file.write_text(_jsonio.dumps(table.to_dict()) + "\n")
        sig = B.QLatticeSignal([rng.uniform(-1.0, 1.0) for _ in range(self.SIGNAL_POINTS)])
        signal_file.write_text(_jsonio.dumps(sig.to_dict()) + "\n")

        def num(v):
            return repr(float(v))

        lo = rng.uniform(0.1, 1.0)
        analysis = ["--q", "0.5", "--alpha", "0.0"]
        commands = [
            CliOp(("eval", "--q", num(rng.choice((0.3, 0.5, 0.8))), "--alpha",
                   num(rng.uniform(-0.9, 2.0)), "--x", num(rng.uniform(0, 2)), "--lambda",
                   num(rng.uniform(0.1, 10.0))), 0),
            CliOp(("eval", "--q", num(rng.choice((0.3, 0.5, 0.8))), "--alpha",
                   num(rng.uniform(-0.9, 2.0)), "--x", num(rng.uniform(0, 2)), "--z",
                   num(-rng.uniform(0.1, 100.0)), "--format", "csv"), 0),
            CliOp(("zeros", *analysis, "--count", "5"), 0),
            CliOp(("gram", *analysis, "--zeros", str(zeros_file)), 0),
            CliOp(("fourier", *analysis, "--signal", str(signal_file), "--count", "6"), 0),
            CliOp(("sample", *analysis, "--signal", str(signal_file), "--count", "8",
                   "--lambdas", f"{num(lo)}:{num(lo + rng.uniform(0.5, 2.0))}:{self.LAMBDAS}"), 0),
            CliOp(("verify", *analysis, "--suite", "identities"), 0),
            CliOp(("verify", *analysis, "--suite", "all"), 1),
        ]

        def rounds():
            while True:
                ops = list(commands)
                rng.shuffle(ops)
                yield ops

        return State(rounds(), {"expected": {}})

    def run(self, state: State, op: CliOp):
        return run_cli_subprocess(op.argv)

    def run_in_process(self, state: State, op: CliOp):
        return run_cli_in_process(op.argv)

    def check(self, state: State, op: CliOp, out) -> Optional[str]:
        """Expected exit code, empty stderr, and stdout byte-identical to
        every other run of the command and to cli.main run in-process."""
        rc, stdout, stderr = out
        if rc != op.expect_rc or stderr:
            return f"{op.argv[0]}: exit {rc} (want {op.expect_rc}), stderr {stderr[-200:]!r}"
        expected = state.data["expected"]
        if op not in expected:
            expected[op] = run_cli_in_process(op.argv)
        if (rc, stdout) != expected[op][:2]:
            return f"{' '.join(op.argv)}: stdout differs from the in-process result"
        return None


WORKLOADS = {
    "pointwise": Pointwise(),
    "zero_tables": ZeroTables(),
    "lattice": Lattice(),
    "cli": Cli(),
}
