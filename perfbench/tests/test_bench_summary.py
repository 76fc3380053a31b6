"""The benchmark's latency and calibration arithmetic on synthetic samples.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import summary  # noqa: E402


def test_nearest_rank_percentile():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert summary.percentile(samples, 50) == 3.0
    assert summary.percentile(samples, 100) == 5.0
    assert summary.percentile(samples, 1) == 1.0


def test_tail_needs_ten_samples_beyond():
    assert summary.tail([1.0] * 19) is None
    p, _, beyond = summary.tail([float(i) for i in range(20)])
    assert (p, beyond) == (50.0, 10)


def test_tail_takes_highest_percentile_with_ten_beyond():
    for n, want_p, want_value in ((100, 90.0, 89.0), (999, 90.0, 899.0), (1000, 99.0, 989.0),
                                  (10_000, 99.9, 9989.0)):
        p, value, beyond = summary.tail([float(i) for i in range(n)])
        assert (p, value) == (want_p, want_value)
        assert beyond >= summary.MIN_BEYOND


def test_failed_operations_rank_as_infinite():
    lat = summary.latencies([1.0, 2.0, 3.0, 4.0], [True, False, True, False])
    assert lat == [1.0, math.inf, 3.0, math.inf]
    assert summary.percentile(lat, 50) == 3.0
    assert summary.percentile(summary.latencies([1.0, 2.0, 3.0], [False, False, True]), 50) == math.inf
    # A failure lands in the tail, above every completed operation.
    lat = summary.latencies([float(i) for i in range(100)], [i != 3 for i in range(100)])
    assert summary.tail(lat) == (90.0, 90.0, 10)
    assert summary.percentile(lat, 100) == math.inf


def test_clock_scales_by_the_samples_in_or_around_each_interval():
    import calibrate
    from calibrate import Interval

    clock = calibrate.Clock()
    clock.samples = [0.002, 0.004, 0.001, 0.003]
    ref = calibrate.REF_S
    # Samples 1 and 2 fell inside the interval: their mean speed applies.
    assert math.isclose(clock.reference_s(Interval(1, 3, 1.0)), ref / 0.0025)
    # No sample inside: the samples just before and after it apply.
    assert math.isclose(clock.reference_s(Interval(3, 3, 1.0)), ref / 0.002)
    assert math.isclose(clock.reference_s(Interval(1, 1, 0.5)), 0.5 * ref / 0.003)


def test_clock_takes_the_sampling_time_out_of_an_interval(monkeypatch):
    import calibrate

    times = iter([10.0, 12.0])
    monkeypatch.setattr(calibrate, "perf_counter", lambda: next(times))
    clock = calibrate.Clock()
    clock.samples, clock.pauses = [0.001], [0.25]
    mark = clock.start()
    clock.samples.append(0.001)  # a sample taken during the interval
    clock.pauses.append(0.25)
    assert clock.stop(mark) == calibrate.Interval(1, 2, 2.0 - 0.25)


def test_clock_samples_only_while_active():
    import signal
    import time

    import calibrate

    with calibrate.Clock() as clock:
        mark = clock.start()
        deadline = time.perf_counter() + 3.5 * calibrate.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
        interval = clock.stop(mark)
    assert interval.end - interval.first >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    n = len(clock.samples)
    time.sleep(2 * calibrate.INTERVAL_S)
    assert len(clock.samples) == n
    assert clock.reference_s(interval) > 0


def test_clock_holds_samples_back_while_a_child_works():
    import time

    import calibrate

    with calibrate.Clock() as clock:
        n = len(clock.samples)
        with clock.held():
            time.sleep(3 * calibrate.INTERVAL_S)
            assert len(clock.samples) == n
        # The expiries that fell due in the block come as one sample.
        assert len(clock.samples) == n + 1
