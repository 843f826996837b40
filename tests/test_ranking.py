import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from spidereval.ranking import average_ranks, median, quantile, tie_group_sizes


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


# Samples of 1..12 values in 1..3 columns. A few values repeat to give
# ties; adding 0.0 turns -0.0 into 0.0, since sorting and numpy's
# partition may leave the two zeros in different orders.
_samples = st.tuples(st.integers(1, 12), st.integers(1, 3)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.sampled_from([0.0, 0.5, 3.0, 1e2])
                         | st.floats(-1e300, 1e300))
).map(lambda x: x + 0.0)


class TestOrderStatistics:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_samples, st.floats(0, 1) | st.sampled_from([0.0, 0.025, 0.25, 0.5, 0.75, 1.0]))
    def test_quantile_is_numpys_bit_for_bit(self, x, q):
        assert quantile(np.sort(x, axis=0), q).tobytes() == np.quantile(x, q, axis=0).tobytes()
        assert float(quantile(np.sort(x[:, 0]), q)).hex() == float(np.quantile(x[:, 0], q)).hex()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_samples)
    def test_median_is_numpys_bit_for_bit(self, x):
        assert median(np.sort(x, axis=0)).tobytes() == np.median(x, axis=0).tobytes()
        assert float(median(np.sort(x[:, 0]))).hex() == float(np.median(x[:, 0])).hex()

    @pytest.mark.parametrize("column", [[1.0, np.nan, 2.0], [np.nan], [5.0, 1.0, np.nan]])
    def test_quantile_of_a_column_with_nan_is_nan(self, column):
        x = np.array([column, [1.0, 2.0, 3.0][:len(column)]]).T
        for q in (0.0, 0.025, 0.5, 1.0):
            want = np.quantile(x, q, axis=0)
            assert np.isnan(want[0]) and quantile(np.sort(x, axis=0), q).tobytes() == want.tobytes()

    def test_median_is_not_the_type_7_half_quantile(self):
        # on an even count, a + (b - a) / 2 and (a + b) / 2 can round apart
        x = np.array([13.51, 72.149])
        assert float(median(x)) == float(np.median(x)) == 42.8295
        assert float(quantile(x, 0.5)) == float(np.quantile(x, 0.5)) == 42.829499999999996
