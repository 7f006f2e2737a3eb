"""One integer-exact ceil-rank behind every quantile in the repo."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram, ceil_rank
from repro.obs.timeseries import QUANTILE_GRID, FixedGridSketch
from repro.serve.metrics import percentile

#: Fractions with up to four decimals, the way the code writes them.
decimals = st.integers(0, 10_000).map(lambda k: k / 10_000)


def test_p7_of_one_to_hundred_is_seven():
    # The float product 0.07 * 100 = 7.000000000000001 ceils to 8.
    assert ceil_rank(0.07, 100) == 7
    assert percentile(list(range(1, 101)), 0.07) == 7


@settings(max_examples=300, deadline=None)
@given(q=decimals, n=st.integers(1, 10 ** 9))
def test_ceil_rank_is_the_smallest_covering_rank(q, n):
    exact = Fraction(str(q))
    rank = ceil_rank(q, n)
    assert rank >= 1
    assert rank == 1 or Fraction(rank - 1, n) < exact
    assert Fraction(rank, n) >= exact


@settings(max_examples=100, deadline=None)
@given(q=decimals, n=st.integers(1, 60))
def test_all_quantile_structures_share_the_rank(q, n):
    rank = ceil_rank(q, n)
    assert percentile(list(range(1, n + 1)), q) == rank

    histogram = Histogram("h", bounds=tuple(range(1, n + 1)))
    sketch = FixedGridSketch()
    for value in range(1, n + 1):
        histogram.observe(value)
        sketch.observe(QUANTILE_GRID[value])
    assert histogram.quantile(q) == rank
    assert sketch.quantile(q) == QUANTILE_GRID[rank]

