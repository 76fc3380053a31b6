"""Spans around the library's public functions, recorded from outside.

The library is not modified.  `Tracer.install` replaces each traced
function by a wrapper under every name that binds it in a loaded
`bigqbessel` module (e.g. `eval_J` in `bqbessel`, `zerofinder`,
`orthogonality`, `sampling`, `cli` and the package namespace), so calls
between modules pass through the wrapper too.  `uninstall` puts the
originals back.

A span records name, start, end and the index of its parent span.  Spans
stay in memory until the run ends.  The term-ratio callables handed to
`sum_series` run hundreds of times per evaluation, so they get no span of
their own: their time is summed into the `sum_series` span
(`callback_s`) and credited to the layer of the module that defined them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

# Traced public functions, as module.function.
TRACED = (
    "qcalc.sum_series",
    "qcalc.q_integral",
    "qcalc.fused_product_ratio",
    "bqbessel.eval_J",
    "bqbessel.eval_dJ_dz",
    "bqbessel.eval_big_cos",
    "bqbessel.eval_big_sin",
    "bqbessel.identity_residual",
    "zerofinder.find_zeros",
    "zerofinder.refine_zero",
    "orthogonality.weight",
    "orthogonality.inner_product",
    "orthogonality.lommel_integral_direct",
    "orthogonality.lommel_rhs_closed",
    "orthogonality.norm_sq_closed",
    "orthogonality.gram_matrix",
    "orthogonality.fourier_coefficients",
    "sampling.q_hankel_transform",
    "sampling.sampling_kernel",
    "sampling.reconstruct",
    "sampling.closed_sum_check",
    "cli.main",
    "_jsonio.dumps",
    "_jsonio.rows_to_csv",
    "_jsonio.loads",
)

# One L1 evaluation of a series.  The big q-trig functions delegate to
# eval_J and are counted through it.
EVALS = ("bqbessel.eval_J", "bqbessel.eval_dJ_dz")
EMIT = ("_jsonio.dumps", "_jsonio.rows_to_csv")


def layer_of(name: str) -> str:
    """Layer of a span name or module name; `_jsonio` belongs to `cli`."""
    mod = name.split(".")[1] if name.startswith("bigqbessel.") else name.split(".")[0]
    return "cli" if mod == "_jsonio" else mod


class Span:
    __slots__ = ("name", "start", "end", "parent", "callback_s", "callback_layer")

    def __init__(self, name, start, end, parent, callback_s=0.0, callback_layer=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.callback_s = callback_s
        self.callback_layer = callback_layer


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._seen_evals = set()
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> Span:
        span = Span(name, perf_counter(), None, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "qcalc.sum_series":
            def wrapper(*args, **kwargs):
                span = tracer._enter(name)
                spent = [0.0]

                def timed(cb):
                    def inner(*a):
                        t0 = perf_counter()
                        try:
                            return cb(*a)
                        finally:
                            spent[0] += perf_counter() - t0
                    return inner

                owner = next((a for a in args if callable(a)), None)
                span.callback_layer = layer_of(owner.__module__) if owner else None
                args = [timed(a) if callable(a) else a for a in args]
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span.callback_s = spent[0]
                    tracer._exit(span)
                tracer.counts["qcalc.sum_series.terms"] += out.terms_used
                return out
            return wrapper

        if name == "qcalc.q_integral":
            def wrapper(f, *args, **kwargs):
                cb_name = layer_of(getattr(f, "__module__", "") or "qcalc") + ".callback"

                def counted(x):
                    tracer.counts["qcalc.q_integral.points"] += 1
                    cb = tracer._enter(cb_name)
                    try:
                        return f(x)
                    finally:
                        tracer._exit(cb)

                span = tracer._enter(name)
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    tracer._exit(span)
            return wrapper

        sig = inspect.signature(fn) if name in EVALS else None

        def wrapper(*args, **kwargs):
            if sig is not None:
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                a = b.arguments
                key = (name, float(a["ctx"].q), a["alpha"], a["x"], a["z"], a["tol"])
                if key in tracer._seen_evals:
                    tracer.counts["bqbessel.repeats"] += 1
                else:
                    tracer._seen_evals.add(key)
            elif name == "orthogonality.gram_matrix":
                n = len(args[2] if len(args) > 2 else kwargs["table"])
                tracer.counts["orthogonality.gram_entries"] += n * (n + 1) // 2
            span = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if name == "zerofinder.find_zeros":
                tracer.counts["zerofinder.zeros"] += len(out)
            return out

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "bigqbessel" or k.startswith("bigqbessel."))]
        for qualname in TRACED:
            mod_name, fn_name = qualname.split(".")
            orig = getattr(importlib.import_module("bigqbessel." + mod_name), fn_name)
            wrapper = self._wrap(qualname, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- arithmetic on recorded spans ------------------------------------------

def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its children cover and minus
    the callback time summed into it."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        kids = covered(children.get(i, ()), s.start, s.end)
        out.append(max(0.0, s.end - s.start - kids - s.callback_s))
    return out


def ancestors(spans: Sequence[Span], i: int):
    p = spans[i].parent
    while p >= 0:
        yield spans[p].name
        p = spans[p].parent


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str, str]]:
    """Per-layer metrics as name -> (value, unit, base); base is '' for
    plain counts and times, and names the denominator of every ratio."""
    spans = tracer.spans
    counts = tracer.counts
    selfs = self_times(spans)
    calls: Counter = Counter(s.name for s in spans)
    by_name: Counter = Counter()
    by_layer: Counter = Counter()
    for s, t in zip(spans, selfs):
        by_name[s.name] += t
        by_layer[layer_of(s.name)] += t
        if s.callback_layer:
            by_layer[s.callback_layer] += s.callback_s
    evals = scan = refine = gram = transform = 0
    for i, s in enumerate(spans):
        if s.name not in EVALS:
            continue
        evals += 1
        up = set(ancestors(spans, i))
        if "zerofinder.refine_zero" in up:
            refine += 1
        elif "zerofinder.find_zeros" in up:
            scan += 1
        gram += "orthogonality.gram_matrix" in up
        transform += "sampling.q_hankel_transform" in up
    emit = sum(s.end - s.start for s in spans if s.name in EMIT)
    zeros = counts["zerofinder.zeros"]
    entries = counts["orthogonality.gram_entries"]
    transforms = calls["sampling.q_hankel_transform"]

    def per(num, den):
        return num / den if den else 0.0

    return {
        "qcalc.sum_series.calls": (calls["qcalc.sum_series"], "count", ""),
        "qcalc.sum_series.terms": (counts["qcalc.sum_series.terms"], "count", ""),
        "qcalc.sum_series.self_s": (by_name["qcalc.sum_series"], "s", ""),
        "qcalc.q_integral.calls": (calls["qcalc.q_integral"], "count", ""),
        "qcalc.q_integral.points": (counts["qcalc.q_integral.points"], "count", ""),
        "qcalc.fused_product_ratio.calls": (calls["qcalc.fused_product_ratio"], "count", ""),
        "qcalc.fused_product_ratio.self_s": (by_name["qcalc.fused_product_ratio"], "s", ""),
        "bqbessel.evals": (evals, "count", ""),
        "bqbessel.self_s": (by_layer["bqbessel"], "s", ""),
        "bqbessel.terms_per_eval": (
            per(counts["qcalc.sum_series.terms"], evals), "terms/eval", "bqbessel.evals"),
        "bqbessel.repeat_ratio": (
            per(counts["bqbessel.repeats"], evals), "ratio", "bqbessel.evals"),
        "zerofinder.zeros": (zeros, "count", ""),
        "zerofinder.self_s": (by_layer["zerofinder"], "s", ""),
        "zerofinder.evals_per_zero": (per(scan + refine, zeros), "evals/zero", "zerofinder.zeros"),
        "zerofinder.scan_evals_per_zero": (per(scan, zeros), "evals/zero", "zerofinder.zeros"),
        "zerofinder.refine_evals_per_zero": (per(refine, zeros), "evals/zero", "zerofinder.zeros"),
        "orthogonality.gram_entries": (entries, "count", ""),
        "orthogonality.self_s": (by_layer["orthogonality"], "s", ""),
        "orthogonality.evals_per_gram_entry": (
            per(gram, entries), "evals/entry", "orthogonality.gram_entries"),
        "orthogonality.weight.calls": (calls["orthogonality.weight"], "count", ""),
        "orthogonality.norm_sq_closed.calls": (calls["orthogonality.norm_sq_closed"], "count", ""),
        "sampling.transforms": (transforms, "count", ""),
        "sampling.self_s": (by_layer["sampling"], "s", ""),
        "sampling.evals_per_transform": (
            per(transform, transforms), "evals/transform", "sampling.transforms"),
        "sampling.sampling_kernel.calls": (calls["sampling.sampling_kernel"], "count", ""),
        "cli.self_s": (by_layer["cli"], "s", ""),
        "cli.emit_s": (emit, "s", ""),
    }
