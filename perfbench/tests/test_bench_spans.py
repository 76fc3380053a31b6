"""Self time from spans, and the tracer's patching of the library.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from spans import Span  # noqa: E402


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7)
    assert spans.covered([(2, 3), (2, 3)], 0, 10) == pytest.approx(1)
    assert spans.covered([(-5, -1), (11, 12)], 0, 10) == 0
    assert spans.covered([], 0, 10) == 0


def test_self_time_subtracts_overlapping_children_once():
    recorded = [
        Span("orthogonality.gram_matrix", 0.0, 10.0, -1),
        Span("bqbessel.eval_J", 1.0, 4.0, 0),
        Span("bqbessel.eval_J", 3.0, 6.0, 0),  # overlaps its sibling
        Span("qcalc.sum_series", 3.5, 5.5, 2, callback_s=1.5, callback_layer="bqbessel"),
    ]
    selfs = spans.self_times(recorded)
    assert selfs == pytest.approx([10 - 5, 3, 3 - 2, 2 - 1.5])


def test_layer_metrics_credit_callbacks_and_count_evals():
    tracer = spans.Tracer()
    tracer.spans = [
        Span("zerofinder.find_zeros", 0.0, 10.0, -1),
        Span("bqbessel.eval_J", 0.0, 2.0, 0),
        Span("qcalc.sum_series", 0.5, 1.5, 1, callback_s=0.5, callback_layer="bqbessel"),
        Span("zerofinder.refine_zero", 3.0, 9.0, 0),
        Span("bqbessel.eval_J", 3.0, 5.0, 3),
        Span("bqbessel.eval_dJ_dz", 5.0, 6.0, 3),
    ]
    tracer.counts.update({"zerofinder.zeros": 1, "bqbessel.repeats": 1,
                          "qcalc.sum_series.terms": 30})
    m = {k: v[0] for k, v in spans.layer_metrics(tracer).items()}
    assert m["bqbessel.evals"] == 3
    assert m["zerofinder.scan_evals_per_zero"] == 1
    assert m["zerofinder.refine_evals_per_zero"] == 2
    assert m["bqbessel.repeat_ratio"] == pytest.approx(1 / 3)
    assert m["bqbessel.terms_per_eval"] == pytest.approx(10)
    assert m["qcalc.sum_series.self_s"] == pytest.approx(0.5)
    # eval_J self 1.0 + 2.0, eval_dJ_dz 1.0, sum_series callbacks 0.5
    assert m["bqbessel.self_s"] == pytest.approx(4.5)
    # find_zeros 10 - 2 - 6, refine_zero 6 - 3
    assert m["zerofinder.self_s"] == pytest.approx(5.0)


def test_tracer_patches_every_binding_and_restores_it():
    import bigqbessel
    from bigqbessel import bqbessel, orthogonality, sampling, zerofinder

    originals = [m.eval_J for m in (bigqbessel, bqbessel, zerofinder, orthogonality, sampling)]
    with spans.Tracer() as tracer:
        assert all(m.eval_J is not o for m, o in
                   zip((bigqbessel, bqbessel, zerofinder, orthogonality, sampling), originals))
        bigqbessel.find_zeros(bigqbessel.QContext(0.5), 0.0, 1, tol=1e-9)
    assert [m.eval_J for m in (bigqbessel, bqbessel, zerofinder, orthogonality, sampling)] \
        == originals
    names = [s.name for s in tracer.spans]
    assert names[0] == "zerofinder.find_zeros"
    assert "zerofinder.refine_zero" in names
    evals = [i for i, s in enumerate(tracer.spans) if s.name == "bqbessel.eval_J"]
    assert evals and all(tracer.spans[tracer.spans[i].parent].name.startswith("zerofinder.")
                         for i in evals)
    assert tracer.counts["zerofinder.zeros"] == 1
    assert all(s.end >= s.start for s in tracer.spans)
