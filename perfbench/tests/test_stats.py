import pytest

from perfbench.stats import beyond, clip, percentile, self_time, union_length


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 95) == 5.0
    assert percentile(samples, 20) == 1.0
    assert percentile(samples, 21) == 2.0
    assert percentile(list(range(1, 201)), 95) == 190


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_beyond_counts_the_tail_a_percentile_rests_on():
    assert beyond(200, 95) == 10
    assert beyond(199, 95) == 9
    assert beyond(100, 95) == 5
    assert beyond(0, 95) == 0


def test_union_length_merges_overlap_nesting_and_touching():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert union_length([(0.0, 1.0), (1.0, 2.0)]) == 2.0
    assert union_length([(3.0, 3.0), (2.0, 1.0)]) == 0.0


def test_clip_keeps_the_part_inside_the_window():
    assert clip([(0.0, 2.0), (3.0, 9.0), (10.0, 11.0)], (1.0, 5.0)) == [
        (1.0, 2.0), (3.0, 5.0)]


def test_self_time_subtracts_children_once_and_only_inside_the_span():
    assert self_time((0.0, 10.0), []) == 10.0
    assert self_time((0.0, 10.0), [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # Overlapping children (threads) are counted once.
    assert self_time((0.0, 10.0), [(1.0, 4.0), (2.0, 5.0)]) == 6.0
    # A child reaching past the span counts only its inside part.
    assert self_time((0.0, 10.0), [(8.0, 12.0)]) == 8.0
