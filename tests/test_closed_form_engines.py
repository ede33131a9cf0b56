"""The integer closed-form engines against their Fraction references.

``compute_ps_family`` (ranked zeta transform in the u = 1 - t basis) and
``dimension_function`` (integer rank of stacked annihilator forms) are
compared with the slow recursions in ``closed_form_reference`` on drawn
arrangements and transversal tables, and the object-array path of the p_S
engine is forced and compared with the int64 path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_form_reference import (
    ps_family_satisfies_congruences,
    reference_dimension_function,
    reference_ps_family,
    span_of,
)
from strategies import arrangements
from subspace_hilbert import hilbert
from subspace_hilbert.arrangement import (
    Arrangement,
    DimensionFunction,
    dimension_function,
    random_arrangement,
)
from subspace_hilbert.hilbert import (
    compute_ps_family,
    is_series_difference_polynomial,
    transversal_series,
)


@st.composite
def transversal_tables(draw):
    n = draw(st.integers(1, 6))
    codims = draw(st.lists(st.integers(1, n), min_size=1, max_size=6))
    return DimensionFunction.transversal(n, codims)


def assert_family_matches_reference(df: DimensionFunction) -> None:
    fast = compute_ps_family(df)
    ref = reference_ps_family(df)
    assert np.array_equal(fast._u, ref._u)
    for mask in range(1 << df.num_subspaces):
        assert fast.p(mask) == ref.p(mask), mask
    assert ps_family_satisfies_congruences(fast, df)


class TestDimensionFunction:
    @settings(max_examples=60, deadline=None)
    @given(arr=arrangements(max_n=5, max_m=5))
    def test_matches_reference(self, arr):
        assert dimension_function(arr) == reference_dimension_function(arr)

    def test_degenerate_pencil_matches_reference(self):
        # every subspace holds the same line, so no mask reaches codim n
        line = [1, 2, 0, -1, 3]
        subspaces = [
            span_of(5, [line, *s.vectors])
            for s in random_arrangement(5, [1, 2, 1, 2, 1, 1], 17).subspaces
        ]
        arr = Arrangement(5, subspaces)
        df = dimension_function(arr)
        assert df == reference_dimension_function(arr)
        assert min(df.dims_by_mask) == 1


class TestPSFamily:
    @settings(max_examples=40, deadline=None)
    @given(arr=arrangements(max_n=5, max_m=5))
    def test_matches_reference_on_arrangements(self, arr):
        assert_family_matches_reference(dimension_function(arr))

    @settings(max_examples=20, deadline=None)
    @given(df=transversal_tables())
    def test_matches_reference_on_transversal_tables(self, df):
        assert_family_matches_reference(df)

    def test_matches_reference_on_eight_subspaces(self):
        assert_family_matches_reference(
            DimensionFunction.transversal(3, [1, 2, 3, 1, 2, 3, 1, 2])
        )

    @pytest.mark.parametrize("safe", [0, 50])
    @settings(max_examples=20, deadline=None)
    @given(arr=arrangements(max_n=5, max_m=5))
    def test_object_path_equals_int64_path(self, safe, arr):
        # safe = 0 runs every layer on Python ints; 50 switches part way
        df = dimension_function(arr)
        fast = compute_ps_family(df)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hilbert, "INT64_SAFE", safe)
            slow = compute_ps_family(df)
        for mask in range(1 << df.num_subspaces):
            assert slow.p(mask) == fast.p(mask), mask

    def test_object_path_on_large_coefficients(self, monkeypatch):
        df = DimensionFunction.transversal(40, [19] * 8)
        fast = compute_ps_family(df)
        monkeypatch.setattr(hilbert, "INT64_SAFE", 0)
        slow = compute_ps_family(df)
        assert slow._u.dtype == object
        assert fast._u.dtype == np.int64
        assert int(np.max(np.abs(fast._u))) > 2**25
        assert all(slow.p(mask) == fast.p(mask) for mask in range(1 << 8))

    def test_transversal_identity_at_the_cap(self):
        codims = [4, 7, 5, 8, 6, 3, 5, 7, 4, 6, 8, 5, 7, 4, 6, 5]
        df = DimensionFunction.transversal(12, codims)
        family = compute_ps_family(df)
        # each of the two int64 bounds holds here on its own; one check for
        # both steps, the prefix-sum binomial times the difference bound,
        # would not
        assert family._u.dtype == np.int64
        hs = (family.top.shift(16), 12)
        assert is_series_difference_polynomial(hs, transversal_series(codims, 12))

