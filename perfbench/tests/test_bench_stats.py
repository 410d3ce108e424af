import pytest

from stats import MIN_BEYOND, TAIL_LADDER, nearest_rank, samples_needed, tail


def test_tail_picks_highest_percentile_with_ten_beyond():
    values = list(range(1, 105))  # 104 samples
    value, label, beyond = tail(values)
    assert (label, beyond) == ("p90", 10)
    assert value == 94


def test_tail_steps_down_when_p90_would_have_nine_beyond():
    value, label, beyond = tail(list(range(99)))
    assert label == "p75"
    assert beyond >= 10


@pytest.mark.parametrize("n", [20, 21, 39, 40, 41, 99, 100, 101, 199, 200, 999, 1000, 12000])
def test_tail_rule_holds_and_is_the_highest(n):
    ordered = sorted(range(n))
    _, label, beyond = tail(ordered)
    assert beyond >= 10
    pct = float(label[1:])
    assert nearest_rank(ordered, pct)[1] == beyond
    higher = [p for p in TAIL_LADDER if p > pct]
    assert all(nearest_rank(ordered, p)[1] < 10 for p in higher)


def test_tail_with_too_few_samples_reports_the_labelled_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, "max", 0)
    assert tail(list(range(19)))[1] == "max"


@pytest.mark.parametrize("pct", TAIL_LADDER)
def test_samples_needed_is_the_fewest_that_reach_the_percentile(pct):
    n = samples_needed(pct)
    assert nearest_rank(list(range(n)), pct)[1] >= MIN_BEYOND
    assert nearest_rank(list(range(n - 1)), pct)[1] < MIN_BEYOND


def test_samples_needed_for_p90_is_one_hundred():
    assert samples_needed(90.0) == 100
    assert tail(list(range(100)))[1] == "p90"
