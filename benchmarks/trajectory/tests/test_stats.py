"""Order statistics: the quartiles are Python's, percentiles are guarded."""

import statistics

import pytest

from benchmarks.trajectory.stats import (
    Canary,
    TooFewSamples,
    percentile,
    quartile_spread,
    summarize,
    trimmed_mean,
)


def test_summarize_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
    q1, median, q3 = statistics.quantiles(values, n=4)
    s = summarize(values)
    assert (s.q1, s.median, s.q3, s.n) == (q1, median, q3, 7)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / median)


def test_single_value_summary():
    s = summarize([2.5])
    assert (s.q1, s.median, s.q3, s.n) == (2.5, 2.5, 2.5, 1)


def test_percentile_refuses_thin_tails():
    samples = list(range(999))
    with pytest.raises(TooFewSamples):
        percentile(samples, 99)  # 10 beyond p99 needs 1000
    assert percentile(samples + [999], 99) == 989
    assert percentile(list(range(20)), 50) == 9
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)


def test_canary_flags_only_real_moves():
    assert not Canary.flagged(1.0, 1.09)
    assert Canary.flagged(1.0, 1.11)
    assert Canary.flagged(1.0, 0.9)
    assert not Canary.flagged(1.0, 0.92)


def test_trimmed_mean_drops_both_tails():
    values = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0]
    assert trimmed_mean(values, 0.1) == pytest.approx(4.5)  # 1..8
    assert trimmed_mean([2.0, 4.0], 0.1) == 3.0  # too few to trim
    with pytest.raises(TooFewSamples):
        trimmed_mean([])


def test_canary_reading_is_the_median_pass_and_is_kept():
    canary = Canary()
    reading = canary.spin(reps=3)
    assert 0.0 < reading < 1.0
    assert canary.readings == [reading]


def test_placeholder_reads_one_whatever_the_machine():
    assert 0.9 < Canary.placeholder(quads=20) < 1.1
