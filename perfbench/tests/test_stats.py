import statistics

import pytest

from stats import describe, quartiles, summarize, tail_percentile


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    q1, median, q3 = quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)


def test_single_sample_is_its_own_quartiles():
    s = summarize([2.5])
    assert (s.q1, s.median, s.q3, s.n) == (2.5, 2.5, 2.5, 1)
    assert s.spread == 0.0 and s.tail is None


def test_spread_is_interquartile_share_of_median():
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    q1, q2, q3 = statistics.quantiles([1.0, 2.0, 3.0, 4.0, 5.0], n=4)
    assert s.spread == pytest.approx((q3 - q1) / q2)


def test_tail_percentile_leaves_ten_samples_above():
    assert tail_percentile(list(range(10))) is None
    values = [float(v) for v in range(20)]
    p, value = tail_percentile(values)
    assert p == 50
    assert sum(v > value for v in values) == 10


def test_describe_names_unit_and_count():
    line = describe("wall_s", "s", summarize([1.0, 2.0, 3.0]))
    assert line.startswith("wall_s")
    assert "median 2 s" in line and "n=3" in line
