import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from spidereval.ranking import average_ranks, tie_group_sizes


def test_simple_ranks():
    assert average_ranks(np.array([30.0, 10.0, 20.0])).tolist() == [3.0, 1.0, 2.0]


def test_tied_values_share_average_rank():
    # two 5s occupy ranks 2 and 3 -> both get 2.5
    assert average_ranks(np.array([1.0, 5.0, 5.0, 9.0])).tolist() == [1.0, 2.5, 2.5, 4.0]


def test_all_equal():
    assert average_ranks(np.full(4, 7.0)).tolist() == [2.5, 2.5, 2.5, 2.5]


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=40))
def test_matches_scipy_rankdata(values):
    x = np.array(values, dtype=np.float64)
    assert np.array_equal(average_ranks(x), stats.rankdata(x, method="average"))


@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=30))
def test_rank_sum_invariant(values):
    x = np.array(values)
    n = len(values)
    assert np.isclose(average_ranks(x).sum(), n * (n + 1) / 2)


def test_tie_group_sizes():
    assert tie_group_sizes(np.array([1.0, 2.0, 2.0, 3.0, 3.0, 3.0])).tolist() == [2, 3]
    assert tie_group_sizes(np.array([1.0, 2.0, 3.0])).tolist() == []


def loop_average_ranks(values):
    """Average ranks by walking each run of tied values in sorted order."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


@pytest.mark.parametrize("values", [[], [42.0], [3.0] * 7, [-0.0, 0.0, 1.0], [np.nan, 1.0, np.nan]])
def test_matches_loop_oracle_on_edge_cases(values):
    x = np.array(values, dtype=np.float64)
    got = average_ranks(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert got.tobytes() == loop_average_ranks(x).tobytes()


@given(arrays(np.float64, st.integers(0, 60),
              elements=st.sampled_from([0.0, 1.0, 2.5, 2.5, 7.0, -3.0])
              | st.floats(allow_nan=True, allow_infinity=True)))
def test_matches_loop_oracle_with_heavy_ties(x):
    assert average_ranks(x).tobytes() == loop_average_ranks(x).tobytes()

