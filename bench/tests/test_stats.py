import pytest

from stats import grouped_medians, loglog_slope, tail


def test_tail_has_exactly_ten_samples_beyond():
    samples = list(range(100, 0, -1))        # 1..100, unordered
    value, pct, beyond = tail(samples)
    assert value == 90
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(90.0)
    assert beyond == 10


def test_tail_percentile_follows_the_sample_count():
    value, pct, _ = tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == pytest.approx(75.0)
    value, pct, _ = tail([5.0] * 11 + [1.0])
    assert value == 5.0 and pct == pytest.approx(100 * 2 / 12)


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert tail([float(i) for i in range(10)]) == (9.0, 100.0, 0)
    with pytest.raises(ValueError):
        tail([])


def test_loglog_slope_recovers_a_power_law():
    points = [(n, 0.5 * n ** 3) for n in (8, 10, 12, 14)]
    assert loglog_slope(points) == pytest.approx(3.0)
    assert loglog_slope([(4, 1.0)]) == 0.0
    assert loglog_slope([(4, 1.0), (4, 2.0)]) == 0.0


def test_grouped_medians():
    assert grouped_medians([(1, 3.0), (1, 1.0), (1, 2.0), (2, 5.0)]) == {1: 2.0, 2: 5.0}
