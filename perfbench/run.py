"""bigqbessel benchmark: one workload per invocation.

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
runs the same untraced loop, replays its first rounds with spans around
the library's public functions, checks that both passes give identical
outputs, and reports the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Input files of the cli workload; one directory per process.
WORKDIR = ROOT / "perfbench" / "_work" / str(os.getpid())
# Set-up runs at least SETUP_MIN times and, while it is short, until
# SETUP_BUDGET_S of wall time or SETUP_MAX runs.  Over ten seeds the median
# of 3 short (0.07 s) set-ups spread by 22%, the median of a dozen by 7-8%.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 2.0
STARTUP_REPEATS = 3

# End-to-end metrics in the JSON line, gated by BENCHMARK.json.  The report
# lines also give op_p50_ms, op_tail_ms, zeros_per_s and fail_ratio, which
# are not steady enough across seeds to gate (NOTES.md).
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MiB"}


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("pointwise", "zero_tables", "lattice", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_in_child():
    """A fresh interpreter that only imports bigqbessel.cli.  Returns its
    wall time, start-up included, and the time of the import alone as the
    child measured it."""
    from workloads import cli_env

    code = ("import time; t = time.perf_counter(); import bigqbessel.cli; "
            "print(time.perf_counter() - t)")
    t0 = perf_counter()
    p = subprocess.run([sys.executable, "-c", code], env=cli_env(), check=True,
                       stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
    return perf_counter() - t0, float(p.stdout)


def setup(workload, seed):
    """One set-up: import, inputs, and the tables and files built before
    timing.  Returns (state, reference seconds)."""
    with calibrate.Clock() as clock:
        with clock.held():
            mark = clock.start()
            _, t_import = import_in_child()
            imported = clock.stop(mark)
        mark = clock.start()
        state = workload.prepare(seed, WORKDIR)
        prepared = clock.stop(mark)
    return state, (clock.reference_s(imported._replace(work_s=t_import))
                   + clock.reference_s(prepared))


@dataclasses.dataclass
class Outcome:
    ops: list
    outputs: list
    errors: list
    durations: list  # wall seconds, less the clock's sampling
    ref: list = dataclasses.field(default_factory=list)  # reference seconds
    wall: float = 0.0
    round_ends: list = dataclasses.field(default_factory=list)


def timed(run_op, state, rounds, seconds=0.0, min_rounds=1, keep=None, in_child=False,
          block=1):
    """Closed loop, one caller: whole rounds from the iterator `rounds`
    until `seconds` have passed and at least `min_rounds` have run, and
    then only at the end of a block of `block` rounds (an antithetic pair
    of rounds costs about the same on every seed; one round does not).
    `in_child` says that `run_op` does its work in a child process.

    Operations that `keep` rejects and that did not raise are stored as
    None, with their output, so that the benchmark's own memory does not
    grow with the number of operations a run completes."""
    res = Outcome([], [], [], [])
    intervals = []
    with calibrate.Clock() as clock:
        t_start = perf_counter()
        while True:
            for op in next(rounds):
                out = err = None
                with clock.held() if in_child else contextlib.nullcontext():
                    mark = clock.start()
                    try:
                        out = run_op(state, op)
                    except Exception as exc:  # recorded; check_all judges it
                        err = exc
                    intervals.append(clock.stop(mark))
                kept = keep is None or keep(op) or err is not None
                res.ops.append(op if kept else None)
                res.outputs.append(out if kept else None)
                res.errors.append(err)
            res.round_ends.append(len(res.ops))
            done = len(res.round_ends)
            if done >= min_rounds and done % block == 0 and perf_counter() - t_start >= seconds:
                break
        res.wall = perf_counter() - t_start
    res.durations = [i.work_s for i in intervals]
    res.ref = [clock.reference_s(i) for i in intervals]
    return res


def check_all(workload, state, res):
    """Per operation: None if it passed, else (category, reason, known).
    Returns (verdicts, wrong), where wrong counts the failures that are not
    a known defect named in NOTES.md."""
    from bigqbessel.errors import BigQBesselError

    import reference
    from workloads import KnownDefect

    verdicts = []
    for op, out, err in zip(res.ops, res.outputs, res.errors):
        if err is not None:
            verdicts.append((type(err).__name__, str(err), workload.known_error(op, err)))
            continue
        if op is None:  # not kept, so not checked
            verdicts.append(None)
            continue
        try:
            why = workload.check(state, op, out)
        except (reference.Unsettled, BigQBesselError) as exc:
            why = f"check could not run: {type(exc).__name__}: {exc}"
        verdicts.append(None if why is None else
                        ("check", why, isinstance(why, KnownDefect)))
    return verdicts, sum(v is not None and not v[2] for v in verdicts)


def fingerprint(obj):
    """Exact, comparable form of an operation's output or error."""
    import mpmath as mp

    if isinstance(obj, mp.mpf):
        return obj._mpf_
    if isinstance(obj, BaseException):
        return ("error", type(obj).__name__, str(obj))
    if dataclasses.is_dataclass(obj):
        return tuple(fingerprint(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(v) for v in obj)
    return obj


def report(name, value, unit, note=""):
    print(f"  {name:<36} {value:>14.6g} {unit:<16} {note}".rstrip())


def failure_lines(verdicts):
    groups = {}
    for v in verdicts:
        if v is not None:
            groups.setdefault((v[0], v[2]), []).append(v[1])
    for (category, known), reasons in sorted(groups.items()):
        tag = "known defect" if known else "UNEXPECTED"
        print(f"  failed {category} x{len(reasons)} ({tag}), e.g. {reasons[0][:240]}")


def probe_lines(workload, state):
    """Run the workload's probe operations, which reproduce the known
    defects of NOTES.md, and report each.  Returns how many gave a result
    that is neither right nor the known defect."""
    ops = workload.probe_ops(state)
    if not ops:
        return 0
    res = timed(workload.run, state, iter([ops]), in_child=workload.in_child)
    verdicts, wrong = check_all(workload, state, res)
    for op, v in zip(ops, verdicts):
        status = ("defect fixed: passes its check" if v is None else
                  f"known defect reproduced: {v[0]}" if v[2] else f"UNEXPECTED {v[0]}")
        detail = "" if v is None else f": {v[1][:200]}"
        print(f"  probe {str(op)[:100]} -> {status}{detail}")
    return wrong


def end_to_end(args, workload):
    import summary

    setups = []
    t0 = perf_counter()
    while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX
                                      and perf_counter() - t0 < SETUP_BUDGET_S):
        setups.append(setup(workload, args.seed))
    state = setups[-1][0]
    setup_s = statistics.median(t for _, t in setups)
    res = timed(workload.run, state, state.rounds, args.seconds, keep=workload.checked,
                in_child=workload.in_child, block=workload.round_block)
    verdicts, wrong = check_all(workload, state, res)
    ok = [v is None for v in verdicts]
    n, passed = len(ok), sum(ok)
    ops_per_s = passed / sum(res.ref)
    lat = summary.latencies(res.durations, ok)
    p50 = summary.percentile(lat, 50) * 1e3
    tail = summary.tail(lat)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"(closed loop, one caller; {n} operations in {res.wall:.3f} s)")
    report("setup_s", setup_s, "s", f"median of {len(setups)} set-ups, reference seconds")
    report("ops_per_s", ops_per_s, "1/s",
           f"{passed} passed of {n} attempted, per reference second; "
           f"{passed / res.wall:.6g} per wall second")
    report("op_p50_ms", p50, "ms", f"n={n}, failures ranked +inf")
    if tail is None:
        print(f"  {'op_tail_ms':<36} {'omitted':>14} {'ms':<16} "
              f"n={n}: no percentile has {summary.MIN_BEYOND} samples beyond it")
    else:
        p, v, beyond = tail
        report("op_tail_ms", v * 1e3, "ms", f"p{p:g}, n={n}, {beyond} samples beyond")
    if args.workload == "zero_tables":
        zeros = sum(len(o) for o, good in zip(res.outputs, ok) if good)
        report("zeros_per_s", zeros / res.wall, "1/s", f"{zeros} zeros in passed tables")
    report("fail_ratio", (n - passed) / n, "ratio", f"base: {n} operations attempted")
    report("peak_rss_mb", rss, "MiB", "benchmark process")
    failure_lines(verdicts)
    wrong += probe_lines(workload, state)
    values = {"setup_s": setup_s, "ops_per_s": ops_per_s, "peak_rss_mb": rss}
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {"correct": wrong == 0, "attempted": n, "failed": n - passed, "metrics": metrics}


def per_layer(args, workload):
    """Untraced pass as in end_to_end (in-process for cli), then a traced
    replay of its first `workload.trace_rounds` rounds.  Replaying a fixed
    number of rounds makes every count depend on the seed and the code
    only, not on how fast the machine is."""
    import spans

    state, _ = setup(workload, args.seed)
    run_op = getattr(workload, "run_in_process", workload.run)
    plain = timed(run_op, state, state.rounds, args.seconds, workload.trace_rounds,
                  block=workload.round_block)
    verdicts, wrong = check_all(workload, state, plain)
    n = plain.round_ends[workload.trace_rounds - 1]
    with spans.Tracer() as tracer:
        replay = timed(run_op, state, iter([plain.ops[:n]]))
    same = [fingerprint((a, ea)) == fingerprint((b, eb)) for a, ea, b, eb in
            zip(plain.outputs, plain.errors, replay.outputs, replay.errors)]
    ok = [s and v is None for s, v in zip(same, verdicts)]

    metrics = spans.layer_metrics(tracer)
    startup = statistics.median(import_in_child()[0] for _ in range(STARTUP_REPEATS))
    metrics["cli.startup_s"] = (startup, "s", "")
    untraced = sum(plain.ref[:n])
    metrics["trace_overhead_ratio"] = (untraced / sum(replay.ref), "ratio",
                                       "untraced ops_per_s of the same operations")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} traced: "
          f"{workload.trace_rounds} rounds, {n} operations, {untraced:.3f} s untraced, "
          f"{sum(replay.ref):.3f} s traced (reference seconds), {len(tracer.spans)} spans, "
          f"{sum(same)} of {n} outputs identical")
    for name, (value, unit, base) in metrics.items():
        report(name, value, unit, f"base: {base}" if base else "")
    failure_lines(verdicts[:n])
    return {"correct": wrong == 0 and all(same), "attempted": n, "failed": n - sum(ok),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "bigqbessel" / "__init__.py").is_file():
        print(f"error: no bigqbessel source tree under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts, so that the
    # speed samples (calibrate.py) come from the CPU that does the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    try:
        result = (per_layer if args.trace else end_to_end)(args, workload)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.parent.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
