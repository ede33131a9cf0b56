"""Tests for the closed-form series, Betti numbers, and Hilbert polynomials."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import arrangements
from subspace_hilbert.arrangement import (
    Arrangement,
    DimensionFunction,
    dimension_function,
    is_transversal,
    random_arrangement,
)
from subspace_hilbert.fixtures import fixture_arrangement, fixture_names
from subspace_hilbert.hilbert import (
    BettiTable,
    HilbertSeriesJ,
    betti_numbers,
    compute_ps_family,
    hilbert_polynomial_from_numerator,
    hilbert_series_J,
    is_series_difference_polynomial,
    transversal_hilbert_function,
    transversal_series,
)
from subspace_hilbert.linalg import SubspaceBasis
from subspace_hilbert.ratpoly import (
    ONE,
    ZERO,
    QPoly,
    T,
    binom,
    expand_rational,
    poly_mod_one_minus_t_pow,
)

from closed_form_reference import (
    QMatrix,
    inverse_of_t_mod,
    matvec,
    ps_family_satisfies_congruences,
    rank,
    reference_hilbert_polynomial,
    reference_transversal_hilbert_function,
    shifted_binomial_polynomial,
)

# (n, codims) with n <= 8, m <= 8 and codimension n allowed
n_and_codims = st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), max_size=8))
)


def coordinate_axes() -> Arrangement:
    return Arrangement(
        3,
        [
            SubspaceBasis(3, [[1, 0, 0]]),
            SubspaceBasis(3, [[0, 1, 0]]),
            SubspaceBasis(3, [[0, 0, 1]]),
        ],
    )


def coplanar_lines() -> Arrangement:
    return Arrangement(
        3,
        [
            SubspaceBasis(3, [[1, 0, 0]]),
            SubspaceBasis(3, [[0, 1, 0]]),
            SubspaceBasis(3, [[1, 1, 0]]),
        ],
    )


def axis_planes() -> Arrangement:
    return Arrangement(
        4,
        [
            SubspaceBasis(4, [[1, 0, 0, 0], [0, 0, 0, 1]]),
            SubspaceBasis(4, [[0, 1, 0, 0], [0, 0, 0, 1]]),
            SubspaceBasis(4, [[0, 0, 1, 0], [0, 0, 0, 1]]),
        ],
    )


def pencil_planes() -> Arrangement:
    return Arrangement(
        4,
        [
            SubspaceBasis(4, [[0, 1, 0, 0], [0, 0, 0, 1]]),
            SubspaceBasis(4, [[1, 0, 0, 0], [0, 0, 0, 1]]),
            SubspaceBasis(4, [[1, 1, 0, 0], [0, 0, 0, 1]]),
        ],
    )


def random_dimension_functions(rng: random.Random, count: int):
    for _ in range(count):
        n = rng.randint(2, 4)
        dims = [rng.randint(0, n - 1) for _ in range(rng.randint(1, 3))]
        yield dimension_function(random_arrangement(n, dims, rng.randint(0, 10**6)))


class TestPSFamily:
    def test_three_lines_family(self):
        fam = compute_ps_family(dimension_function(coordinate_axes()))
        for single in (0b001, 0b010, 0b100):
            assert fam.p(single) == QPoly.of(2, -1)
        for pair in (0b011, 0b101, 0b110):
            assert fam.p(pair) == QPoly.of(4, -4, 1)
        assert fam.top == QPoly.of(7, -9, 3)

    def test_congruences_reverified(self):
        rng = random.Random(901)
        for df in random_dimension_functions(rng, 12):
            fam = compute_ps_family(df)
            assert ps_family_satisfies_congruences(fam, df)

    def test_uniqueness_under_congruent_rhs(self):
        # Adding any multiple of (1-t)^{c_S} to the known part of the
        # congruence must not change the solved polynomial.
        df = dimension_function(coordinate_axes())
        fam = compute_ps_family(df)
        rng = random.Random(902)
        mask = 0b111
        c = df.codim_of(mask)
        q = ZERO
        sub = (mask - 1) & mask
        while True:
            sign = -1 if sub.bit_count() % 2 else 1
            q = q - fam.p(sub) * QPoly((0,) * sub.bit_count() + (sign,))
            if sub == 0:
                break
            sub = (sub - 1) & mask
        noise = QPoly.of(*[rng.randint(-5, 5) for _ in range(3)])
        shifted = q + noise * (ONE - T) ** c
        resolved = poly_mod_one_minus_t_pow(
            -shifted * inverse_of_t_mod(c) ** 3, c
        )
        assert resolved == fam.top

    def test_rejects_bad_family(self):
        from subspace_hilbert.hilbert import PSFamily

        # rows are coefficients in u = 1 - t: p_empty = 2, then three p = 1
        with pytest.raises(ValueError):
            PSFamily(np.array([[2]]))
        with pytest.raises(ValueError):
            PSFamily(np.array([[1], [1], [1]]))


class TestHilbertSeriesJ:
    def test_three_lines_series(self):
        hs = hilbert_series_J(dimension_function(coordinate_axes()))
        assert hs.numerator == QPoly.of(0, 0, 0, 7, -9, 3)
        assert hs.n == 3 and hs.m == 3
        assert str(hs) == "(7t^3 - 9t^4 + 3t^5)/(1 - t)^3"
        assert hs.table(5) == (0, 0, 0, 7, 12, 18)

    def test_pencil_series(self):
        hs = hilbert_series_J(dimension_function(pencil_planes()))
        assert hs.numerator == QPoly.of(0, 0, 0, 7, -9, 3)
        assert hs.n == 4 and hs.m == 3

    def test_single_subspace_closed_form(self):
        # For one subspace of codimension c the numerator is exactly
        # 1 - (1-t)^c, the series of the ideal itself.
        rng = random.Random(903)
        for _ in range(20):
            n = rng.randint(2, 5)
            dim = rng.randint(0, n - 1)
            arr = random_arrangement(n, [dim], rng.randint(0, 10**6))
            hs = hilbert_series_J(dimension_function(arr))
            assert hs.numerator == ONE - (ONE - T) ** (n - dim)

    def test_combinatorial_invariance_of_fixtures(self):
        assert hilbert_series_J(dimension_function(coordinate_axes())) == (
            hilbert_series_J(dimension_function(coplanar_lines()))
        )
        assert hilbert_series_J(dimension_function(axis_planes())) == (
            hilbert_series_J(dimension_function(pencil_planes()))
        )

    def test_invariance_under_coordinate_change(self):
        rng = random.Random(904)
        for _ in range(6):
            n = rng.randint(2, 4)
            dims = [rng.randint(0, n - 1) for _ in range(rng.randint(1, 3))]
            arr = random_arrangement(n, dims, rng.randint(0, 10**6))
            while True:
                change = QMatrix(
                    [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)],
                    ncols=n,
                )
                if rank(change) == n:
                    break
            mapped = Arrangement(
                n,
                [
                    SubspaceBasis(n, [matvec(change, v) for v in s.vectors])
                    for s in arr.subspaces
                ],
            )
            assert hilbert_series_J(dimension_function(arr)) == hilbert_series_J(
                dimension_function(mapped)
            )

    def test_series_coefficient_invariants(self):
        rng = random.Random(905)
        for df in random_dimension_functions(rng, 10):
            hs = hilbert_series_J(df)
            table = hs.table(hs.m + 5)
            assert all(v == 0 for v in table[: hs.m])
            assert all(v >= 0 for v in table)
            assert table[hs.m] == betti_numbers(hs).betti[0]

    def test_validates_numerator_shape(self):
        with pytest.raises(ValueError):
            HilbertSeriesJ(QPoly.of(1, 1), n=3, m=1)
        with pytest.raises(ValueError):
            HilbertSeriesJ(QPoly.of(0, 1, 0, 0, 1), n=3, m=1)


class TestBettiNumbers:
    def test_three_lines(self):
        hs = hilbert_series_J(dimension_function(coordinate_axes()))
        table = betti_numbers(hs)
        assert table.betti == (7, 9, 3)
        assert table.graded() == {(0, 3): 7, (1, 4): 9, (2, 5): 3}
        assert table.projective_dimension == 2

    def test_principal_ideal(self):
        hs = HilbertSeriesJ(QPoly.of(0, 1), n=2, m=1)
        assert betti_numbers(hs).betti == (1,)

    def test_pencil(self):
        hs = hilbert_series_J(dimension_function(pencil_planes()))
        table = betti_numbers(hs)
        assert table.betti == (7, 9, 3) and table.m == 3

    def test_alternation_violation_raises(self):
        hs = HilbertSeriesJ(QPoly.of(0, 1, 1), n=2, m=1)
        with pytest.raises(ValueError):
            betti_numbers(hs)

    def test_sign_pattern_random(self):
        rng = random.Random(906)
        for df in random_dimension_functions(rng, 10):
            hs = hilbert_series_J(df)
            for i, c in enumerate(hs.p.coeffs):
                assert (-1) ** i * c >= 0

    def test_table_validation(self):
        with pytest.raises(ValueError):
            BettiTable([3, -1], m=2)
        with pytest.raises(ValueError):
            BettiTable([3, 0], m=2)


class TestTransversalSeries:
    def test_three_lines_numerator(self):
        numerator, power = transversal_series([2, 2, 2], 3)
        assert numerator == (ONE - (ONE - T) ** 2) ** 3
        assert numerator == QPoly.of(0, 0, 0, 8, -12, 6, -1)
        assert power == 3

    def test_hyperplane(self):
        numerator, power = transversal_series([1], 2)
        assert numerator == QPoly.of(0, 1)
        assert power == 2

    def test_polynomial_part_of_three_lines(self):
        numerator, _ = transversal_series([2, 2, 2], 3)
        assert numerator - QPoly.of(-2, 6, -3) == (
            QPoly.of(2, 0, -3, 1) * (ONE - T) ** 3
        )

    def test_rejects_bad_codims(self):
        with pytest.raises(ValueError):
            transversal_series([0], 3)
        with pytest.raises(ValueError):
            transversal_series([4], 3)

    @settings(max_examples=100, deadline=None)
    @given(n_and_codims)
    def test_matches_product_of_factors(self, case):
        n, codims = case
        expected = ONE
        for c in codims:
            expected = expected * (ONE - (ONE - T) ** c)
        assert transversal_series(codims, n) == (expected, n)


class TestSeriesDifference:
    def test_product_series_vs_transversal_form(self):
        hs = hilbert_series_J(dimension_function(coordinate_axes()))
        assert is_series_difference_polynomial(hs, transversal_series([2, 2, 2], 3))

    def test_intersection_not_invariant(self):
        # The two plane arrangements share a dimension function yet their
        # intersection ideals have different series, differing by a
        # non-polynomial amount.
        h_i_axis = (QPoly.of(0, 0, 3, -2), 4)
        h_i_pencil = (QPoly.of(0, 1, 0, 1, -1), 4)
        assert not is_series_difference_polynomial(h_i_axis, h_i_pencil)

    def test_intersection_vs_product_pencil(self):
        h_i = (QPoly.of(0, 1, 0, 1, -1), 4)
        h_j = hilbert_series_J(dimension_function(pencil_planes()))
        assert not is_series_difference_polynomial(h_i, h_j)
        # the gap is (t+3t^2)/(1-t), a non-polynomial with positive
        # coefficients since the intersection contains the product
        assert h_j.numerator - QPoly.of(0, 1, 0, 1, -1) == (
            -QPoly.of(0, 1, 3) * (ONE - T) ** 3
        )

    def test_equal_series(self):
        pair = (QPoly.of(0, 0, 3, -2), 4)
        assert is_series_difference_polynomial(pair, pair)

    def test_rejects_mixed_denominators(self):
        with pytest.raises(ValueError):
            is_series_difference_polynomial(
                (QPoly.of(1), 3), (QPoly.of(1), 4)
            )


class TestTransversalHilbertFunction:
    def test_three_lines_values(self):
        assert transversal_hilbert_function([2, 2, 2], 3, 3) == 7
        assert transversal_hilbert_function([2, 2, 2], 3, 4) == 12
        assert transversal_hilbert_function([2, 2, 2], 3, 5) == 18

    def test_single_line_in_three_space(self):
        assert transversal_hilbert_function([2], 3, 1) == 2

    def test_single_point_formula(self):
        rng = random.Random(907)
        for _ in range(10):
            n = rng.randint(2, 5)
            d = rng.randint(1, 6)
            assert transversal_hilbert_function([n - 1], n, d) == (
                binom(d + n - 1, n - 1) - binom(d + n - 1 - (n - 1), 0)
            )

    @settings(max_examples=100, deadline=None)
    @given(n_and_codims)
    def test_matches_subset_sum(self, case):
        # codimension n included: its subsets reach c_S >= n and drop out
        n, codims = case
        for d in range(len(codims) + 5):
            assert transversal_hilbert_function(codims, n, d) == (
                reference_transversal_hilbert_function(codims, n, d)
            )

    def test_rejects_bad_codims(self):
        with pytest.raises(ValueError):
            transversal_hilbert_function([0], 3, 2)
        with pytest.raises(ValueError):
            transversal_hilbert_function([4], 3, 2)

    def test_negative_degree_is_zero(self):
        assert transversal_hilbert_function([1, 2], 3, -1) == 0

    def test_matches_product_series_coefficients(self):
        rng = random.Random(908)
        for _ in range(25):
            n = rng.randint(2, 5)
            m = rng.randint(1, 4)
            codims = [rng.randint(1, n) for _ in range(m)]
            df = DimensionFunction.transversal(n, codims)
            assert is_transversal(df)
            hs = hilbert_series_J(df)
            coeffs = hs.coefficients(m + 6)
            for d in range(m, m + 7):
                assert transversal_hilbert_function(codims, n, d) == coeffs[d]


class TestHilbertPolynomial:
    def test_from_intersection_numerator(self):
        hp = hilbert_polynomial_from_numerator(QPoly.of(0, 0, 3, -2), 3)
        assert hp.coeffs == QPoly.of(Fraction(-2), Fraction(3, 2), Fraction(1, 2))
        assert hp(3) == 7 and hp(4) == 12 and hp(5) == 18
        assert hp.to_str() == "-2 + 3/2d + 1/2d^2"

    def test_from_product_numerator(self):
        hp = hilbert_polynomial_from_numerator(QPoly.of(0, 0, 0, 7, -9, 3), 3)
        assert hp.coeffs == QPoly.of(Fraction(-2), Fraction(3, 2), Fraction(1, 2))

    def test_univariate_constant(self):
        hp = hilbert_polynomial_from_numerator(ONE, 1)
        assert hp.coeffs == ONE
        assert hp.degree == 0

    def test_rejects_zero_ambient(self):
        with pytest.raises(ValueError):
            hilbert_polynomial_from_numerator(ONE, 0)

    def test_matches_shifted_binomial_reference(self):
        rng = random.Random(911)
        cases = [(ZERO, 1), (ZERO, 4), (ONE, 1), (QPoly.of(0, 0, 0, 7, -9, 3), 1)]
        for _ in range(300):
            numerator = QPoly(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(rng.randint(0, 12))
            )
            cases.append((numerator, rng.randint(1, 8)))
        for numerator, n in cases:
            assert hilbert_polynomial_from_numerator(numerator, n) == (
                reference_hilbert_polynomial(numerator, n)
            )

    @settings(max_examples=40, deadline=None)
    @given(
        coeffs=st.lists(
            st.one_of(st.integers(-(2**70), 2**70), st.fractions(max_denominator=30)),
            max_size=12,
        ),
        n=st.integers(1, 60),
    )
    def test_matches_shifted_binomial_reference_to_n_60(self, coeffs, n):
        numerator = QPoly(coeffs)
        hp = hilbert_polynomial_from_numerator(numerator, n)
        ref = reference_hilbert_polynomial(numerator, n)
        assert hp == ref
        assert [type(c) for c in hp.coeffs.coeffs] == [type(c) for c in ref.coeffs.coeffs]

    def test_shifted_binomial_values(self):
        rng = random.Random(909)
        for _ in range(40):
            n = rng.randint(1, 6)
            shift = rng.randint(0, 6)
            poly = shifted_binomial_polynomial(n, shift)
            for d in range(shift, shift + 5):
                assert poly.evaluate(d) == binom(d - shift + n - 1, n - 1)

    def test_stabilization_on_fixtures(self):
        for arr in (coordinate_axes(), coplanar_lines(), axis_planes(), pencil_planes()):
            hs = hilbert_series_J(dimension_function(arr))
            hp = hs.hilbert_polynomial()
            coeffs = hs.coefficients(hs.m + 5)
            for d in range(hs.m, hs.m + 6):
                assert hp(d) == coeffs[d]

    def test_stabilization_on_random_arrangements(self):
        rng = random.Random(910)
        for df in random_dimension_functions(rng, 10):
            hs = hilbert_series_J(df)
            hp = hs.hilbert_polynomial()
            coeffs = hs.coefficients(hs.m + 5)
            for d in range(hs.m, hs.m + 6):
                assert hp(d) == coeffs[d]

    def test_integer_values_at_and_above_m(self):
        for arr in (coordinate_axes(), axis_planes()):
            hs = hilbert_series_J(dimension_function(arr))
            hp = hs.hilbert_polynomial()
            for d in range(hs.m, hs.m + 10):
                assert hp(d).denominator == 1


def assert_integral_invariants_are_ints(arr: Arrangement) -> None:
    """Every integer invariant is a Python int, never a Fraction; the Hilbert
    polynomial alone keeps a Fraction where a coefficient is not integral."""
    df = dimension_function(arr)
    family = compute_ps_family(df)
    hs = hilbert_series_J(df)
    for mask in range(1 << df.num_subspaces):
        assert all(type(c) is int for c in family.p(mask).coeffs), mask
    assert all(type(c) is int for c in hs.numerator.coeffs)
    assert all(type(c) is int for c in hs.table(hs.m + 4))
    assert all(type(b) is int for b in betti_numbers(hs).betti)
    for s in arr.subspaces:
        assert all(type(c) is int for f in s.annihilator_forms for c in f)
        assert all(type(c) is int for row in s.integer_rows for c in row)
    hp = hs.hilbert_polynomial()
    for c in hp.coeffs.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
    values = hs.coefficients(hs.m + hs.n + 3)
    for d in range(hs.m + hs.n, hs.m + hs.n + 4):
        assert hp(d) == values[d]


class TestIntegerTypes:
    @pytest.mark.parametrize("name", fixture_names())
    def test_fixtures(self, name):
        assert_integral_invariants_are_ints(fixture_arrangement(name))

    @settings(max_examples=60, deadline=None)
    @given(arr=arrangements(max_n=5, max_m=4))
    def test_arrangements(self, arr):
        assert_integral_invariants_are_ints(arr)

    def test_hilbert_polynomial_keeps_fractions(self):
        hp = hilbert_series_J(dimension_function(coordinate_axes())).hilbert_polynomial()
        assert [type(c) for c in hp.coeffs.coeffs] == [int, Fraction, Fraction]
        assert hp.coeffs.coeffs == (-2, Fraction(3, 2), Fraction(1, 2))
        assert [type(hp(d)) for d in (3, 4, Fraction(1, 3))] == [int, int, Fraction]
