"""Tests for arrangements and their dimension functions."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings

import arrangement_kinds
from closed_form_reference import QMatrix, rank, reference_dimension_function, span_of
from strategies import arrangements
from subspace_hilbert import arrangement
from subspace_hilbert.arrangement import (
    Arrangement,
    DimensionFunction,
    dimension_function,
    is_transversal,
    random_arrangement,
    subset_cap,
)
from subspace_hilbert.linalg import SubspaceBasis


def coordinate_axes() -> Arrangement:
    return Arrangement(
        3,
        [
            SubspaceBasis(3, [[1, 0, 0]]),
            SubspaceBasis(3, [[0, 1, 0]]),
            SubspaceBasis(3, [[0, 0, 1]]),
        ],
    )


def pencil_of_planes() -> Arrangement:
    return Arrangement(
        4,
        [
            SubspaceBasis(4, [[0, 1, 0, 0], [0, 0, 0, 1]]),
            SubspaceBasis(4, [[1, 0, 0, 0], [0, 0, 0, 1]]),
            SubspaceBasis(4, [[1, 1, 0, 0], [0, 0, 0, 1]]),
        ],
    )


def random_invertible(rng: random.Random, n: int) -> QMatrix:
    while True:
        m = QMatrix(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], ncols=n
        )
        if rank(m) == n:
            return m


def spy_certified_rank(monkeypatch) -> list:
    """Record the shape of every matrix ``dimension_function`` hands to
    ``certified_rank``: two calls for the ceiling and the floor, then one
    per fallback mask."""
    calls = []
    real = arrangement.certified_rank

    def spy(matrix):
        calls.append(matrix.shape)
        return real(matrix)

    monkeypatch.setattr(arrangement, "certified_rank", spy)
    return calls


def apply_change(arr: Arrangement, m: QMatrix) -> Arrangement:
    mapped = []
    for s in arr.subspaces:
        vectors = [
            tuple(sum(row[j] * v[j] for j in range(arr.ambient_dim)) for row in m.entries)
            for v in s.vectors
        ]
        mapped.append(SubspaceBasis(arr.ambient_dim, vectors))
    return Arrangement(arr.ambient_dim, mapped)


class TestArrangement:
    def test_rejects_improper_subspace(self):
        with pytest.raises(ValueError):
            Arrangement(2, [span_of(2, [[1, 0], [0, 1]])])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Arrangement(3, [])

    def test_rejects_ambient_mismatch(self):
        with pytest.raises(ValueError):
            Arrangement(3, [SubspaceBasis(2, [[1, 0]])])

    def test_subset_cap(self, monkeypatch):
        monkeypatch.setenv("SUBSPACE_HILBERT_SUBSET_CAP", "3")
        line = SubspaceBasis(3, [[1, 0, 0]])
        with pytest.raises(ValueError):
            Arrangement(3, [line, line, line, line])
        Arrangement(3, [line, line, line])

    @pytest.mark.parametrize("raw", ["abc", "-1", "2.5", "", " 5", "1_000", "\uff15", "7\n", "+3"])
    def test_bad_subset_cap_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("SUBSPACE_HILBERT_SUBSET_CAP", raw)
        with pytest.raises(ValueError) as info:
            subset_cap()
        assert "SUBSPACE_HILBERT_SUBSET_CAP" in str(info.value)
        assert repr(raw) in str(info.value)

    def test_subset_cap_default_and_zero(self, monkeypatch):
        monkeypatch.delenv("SUBSPACE_HILBERT_SUBSET_CAP", raising=False)
        assert subset_cap() == 16
        monkeypatch.setenv("SUBSPACE_HILBERT_SUBSET_CAP", "0")
        assert subset_cap() == 0

    def test_singleton_codims(self):
        assert coordinate_axes().singleton_codims == (2, 2, 2)
        assert pencil_of_planes().singleton_codims == (2, 2, 2)

    def test_duplicates_allowed(self):
        line = SubspaceBasis(3, [[1, 0, 0]])
        arr = Arrangement(3, [line, line])
        df = dimension_function(arr)
        assert df.dim_of(0b11) == 1


class TestDimensionFunction:
    def test_axes_table(self):
        df = dimension_function(coordinate_axes())
        assert df.ambient_dim == 3
        assert df.dims_by_mask[0] == 3
        for single in (0b001, 0b010, 0b100):
            assert df.dim_of(single) == 1
        for pair in (0b011, 0b101, 0b110):
            assert df.dim_of(pair) == 0
        assert df.dim_of(0b111) == 0

    def test_pencil_table(self):
        df = dimension_function(pencil_of_planes())
        for single in (0b001, 0b010, 0b100):
            assert df.dim_of(single) == 2
        for pair in (0b011, 0b101, 0b110):
            assert df.dim_of(pair) == 1
        assert df.dim_of(0b111) == 1

    def test_monotone_under_inclusion(self):
        rng = random.Random(801)
        for _ in range(10):
            n = rng.randint(2, 4)
            dims = [rng.randint(0, n - 1) for _ in range(3)]
            df = dimension_function(random_arrangement(n, dims, rng.randint(0, 10**6)))
            size = 1 << df.num_subspaces
            for mask in range(size):
                for sub in range(size):
                    if sub & mask == sub:
                        assert df.dim_of(mask) <= df.dim_of(sub)

    def test_supermodular(self):
        # dim(U_S ∩ U_T) + dim(U_S + U_T) = n_S + n_T and U_{S∩T} ⊇ U_S + U_T
        rng = random.Random(802)
        for _ in range(10):
            n = rng.randint(2, 4)
            dims = [rng.randint(0, n - 1) for _ in range(3)]
            df = dimension_function(random_arrangement(n, dims, rng.randint(0, 10**6)))
            size = 1 << df.num_subspaces
            for s in range(size):
                for t in range(size):
                    assert df.dim_of(s | t) + df.dim_of(s & t) >= df.dim_of(
                        s
                    ) + df.dim_of(t)

    def test_coordinate_change_invariance(self):
        rng = random.Random(803)
        for _ in range(8):
            n = rng.randint(2, 4)
            dims = [rng.randint(0, n - 1) for _ in range(rng.randint(1, 3))]
            arr = random_arrangement(n, dims, rng.randint(0, 10**6))
            change = random_invertible(rng, n)
            assert dimension_function(arr) == dimension_function(
                apply_change(arr, change)
            )

    def test_permutation_equivariance(self):
        rng = random.Random(804)
        arr = random_arrangement(4, [2, 1, 2], 99)
        df = dimension_function(arr)
        perm = [2, 0, 1]
        permuted = Arrangement(4, [arr.subspaces[i] for i in perm])
        df_perm = dimension_function(permuted)
        for mask in range(1 << 3):
            orig_mask = 0
            for pos in range(3):
                if mask >> pos & 1:
                    orig_mask |= 1 << perm[pos]
            assert df_perm.dim_of(mask) == df.dim_of(orig_mask)

    @pytest.mark.parametrize("p", [2, 3])
    def test_tiny_primes_match_the_reference(self, monkeypatch, p):
        # mod 2 or 3 many forms collapse, so ranks mod p fall below the bound
        # and those masks must take the certified fallback
        monkeypatch.setattr(arrangement, "PRIME", p)
        calls = spy_certified_rank(monkeypatch)
        fallbacks = 0

        @settings(max_examples=80, deadline=None)
        @given(arr=arrangements(max_n=5, max_m=5))
        # forms x + y and x - 5y agree mod 2 and mod 3
        @example(arr=Arrangement(2, [SubspaceBasis(2, [v]) for v in ([1, -1], [5, 1])]))
        def check(arr):
            nonlocal fallbacks
            before = len(calls)
            assert dimension_function(arr) == reference_dimension_function(arr)
            fallbacks += len(calls) - before - 2

        check()
        assert fallbacks > 0

    def test_degenerate_twelve_dimensional_arrangement(self, monkeypatch):
        # one common line inside one common hyperplane: the forms of any two
        # subspaces share the hyperplane's form, which the floor (codim 1 of
        # the sum of all subspaces) accounts for, so no mask falls back
        arr = arrangement_kinds.build("degenerate", 12, 6, 603)
        calls = spy_certified_rank(monkeypatch)
        df = dimension_function(arr)
        assert len(calls) == 2  # the ceiling and the floor
        assert df == reference_dimension_function(arr)

    def test_dependent_forms_below_the_bound_take_the_fallback(self, monkeypatch):
        # a sixth subspace outside the common hyperplane drops the floor to
        # 0, so pairs of the other five fall back even at the real prime
        degenerate = arrangement_kinds.build("degenerate", 12, 5, 603).subspaces
        outside = random_arrangement(12, [6], 604).subspaces
        arr = Arrangement(12, degenerate + outside)
        calls = spy_certified_rank(monkeypatch)
        df = dimension_function(arr)
        assert len(calls) > 2
        assert df == reference_dimension_function(arr)

    def test_table_shape_validated(self):
        with pytest.raises(ValueError):
            DimensionFunction(3, 2, [3, 1, 1])
        with pytest.raises(ValueError):
            DimensionFunction(3, 1, [2, 1])

    @pytest.mark.parametrize(
        "n, m, dims, message",
        [
            (3, 1, [3, -1], "0..3"),
            (3, 2, [3, 1, 1, 4], "0..3"),
            (3, 1, [3, 3], "proper"),
            (3, 2, [3, 2, 3, 2], "proper"),
            (3, 2, [3, 1, 2, 2], "grow"),
            (4, 3, [4, 2, 2, 1, 2, 1, 1, 2], "grow"),
            # two planes in Q^3 always share a line
            (3, 2, [3, 2, 2, 0], "submodular"),
            (4, 3, [4, 3, 3, 2, 3, 2, 2, 0], "submodular"),
            (1, 0, [1], None),
            (0, 0, [0], "ambient"),
            # integers only: 1.5 is not truncated, nor is True read as 1
            (3, 1, [3, 1.5], "integers"),
            (3, 1, [3, True], "integers"),
            (3.0, 1, [3, 1], "integers"),
            (3, 1.0, [3, 1], "integers"),
            (np.int64(3), np.int32(1), [np.int64(3), np.uint8(1)], None),
        ],
    )
    def test_axioms_validated(self, n, m, dims, message):
        if message is None:
            df = DimensionFunction(n, m, dims)
            assert df.dims_by_mask == tuple(dims)
            assert {type(x) for x in (df.ambient_dim, df.num_subspaces, *df.dims_by_mask)} == {int}
            return
        with pytest.raises(ValueError, match=message):
            DimensionFunction(n, m, dims)

    def test_submodularity_checked_on_every_square(self):
        # a transversal table is valid; dropping one five-subset's dim from
        # 2 to 0 keeps it monotone, but 4 + 4 > 0 + 6 on the square from
        # {3,4,5} (dim 6) through {1,3,4,5} and {2,3,4,5} (dim 4 each)
        df = DimensionFunction.transversal(12, [2] * 10)
        dims = list(df.dims_by_mask)
        assert dims[0b111110] == 2
        dims[0b111110] = 0
        with pytest.raises(ValueError, match="submodular"):
            DimensionFunction(12, 10, dims)


class TestTransversal:
    def test_axes_are_transversal(self):
        assert is_transversal(dimension_function(coordinate_axes()))

    def test_coplanar_lines_are_transversal(self):
        # Distinct lines through the origin meet only at 0, which matches
        # min(n, sum of codims) for every subset.
        arr = Arrangement(
            3,
            [
                SubspaceBasis(3, [[1, 0, 0]]),
                SubspaceBasis(3, [[0, 1, 0]]),
                SubspaceBasis(3, [[1, 1, 0]]),
            ],
        )
        assert is_transversal(dimension_function(arr))

    def test_pencil_is_not_transversal(self):
        assert not is_transversal(dimension_function(pencil_of_planes()))

    def test_formal_table_is_transversal(self):
        rng = random.Random(805)
        for _ in range(30):
            n = rng.randint(1, 6)
            codims = [rng.randint(1, n) for _ in range(rng.randint(1, 5))]
            df = DimensionFunction.transversal(n, codims)
            assert is_transversal(df)
            assert df.singleton_codims == tuple(codims)

    @settings(max_examples=100, deadline=None)
    @given(arr=arrangements(max_n=5, max_m=4))
    def test_is_transversal_compares_with_the_transversal_table(self, arr):
        # the definition: the table equals the validated transversal one
        df = dimension_function(arr)
        expected = DimensionFunction.transversal(df.ambient_dim, df.singleton_codims)
        assert is_transversal(df) == (df.dims_by_mask == expected.dims_by_mask)

    def test_transversal_rejects_bad_codims(self):
        with pytest.raises(ValueError):
            DimensionFunction.transversal(3, [0])
        with pytest.raises(ValueError):
            DimensionFunction.transversal(3, [4])


class TestRandomArrangement:
    def test_deterministic(self):
        a = random_arrangement(4, [2, 1, 3], 42)
        b = random_arrangement(4, [2, 1, 3], 42)
        assert a == b

    def test_seed_changes_output(self):
        a = random_arrangement(4, [2, 2], 1)
        b = random_arrangement(4, [2, 2], 2)
        assert a != b

    def test_dims_honored(self):
        rng = random.Random(806)
        for _ in range(20):
            n = rng.randint(1, 5)
            dims = [rng.randint(0, n - 1) for _ in range(rng.randint(1, 4))]
            arr = random_arrangement(n, dims, rng.randint(0, 10**6))
            assert [s.dim for s in arr.subspaces] == dims

    def test_rejects_improper_dims(self):
        with pytest.raises(ValueError):
            random_arrangement(3, [3], 0)
        with pytest.raises(ValueError):
            random_arrangement(3, [-1], 0)

    def test_entries_are_small_integers(self):
        arr = random_arrangement(5, [3, 2], 7)
        for s in arr.subspaces:
            for v in s.vectors:
                for e in v:
                    assert e.denominator == 1 and abs(e) <= 3
                    assert isinstance(e, Fraction)
