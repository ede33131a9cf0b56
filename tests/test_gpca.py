"""Tests for Hilbert-value estimation from points and codimension recovery."""

import math
import random
import time
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subspace_hilbert import gpca, linalg
from subspace_hilbert.arrangement import (
    Arrangement,
    DimensionFunction,
    dimension_function,
    random_arrangement,
)
from subspace_hilbert.gpca import (
    InconsistentDataError,
    PointCloud,
    RecoveryResult,
    end_to_end_recover,
    estimate_hilbert_value,
    estimate_hilbert_values,
    recover_codimensions,
    sample_points,
)
from subspace_hilbert.hilbert import transversal_hilbert_function
from subspace_hilbert.linalg import SubspaceBasis
from subspace_hilbert.monomials import exponents
from subspace_hilbert.oracle import dim_intersection_ideal
from subspace_hilbert.ratpoly import QPoly, binom

from closed_form_reference import (
    QMatrix,
    binomial_basis_coefficients,
    contains,
    interpolate_polynomial,
    rank,
    reference_recover_codimensions,
    shifted_binomial_polynomial,
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


def reference_hilbert_value(pc: PointCloud, d: int) -> int:
    """C(d+n-1, n-1) minus the rank of the Fraction evaluation matrix."""
    basis = exponents(pc.ambient_dim, d)
    rows = [
        [math.prod(x**e for x, e in zip(p, exps)) for exps in basis]
        for p in pc.points
    ]
    return len(basis) - (rank(QMatrix(rows, ncols=len(basis))) if rows else 0)


_normal_floats = st.floats(-50, 50).filter(lambda x: not 0 < abs(x) < 1e-6)


def evaluation_matrices(points, n: int, d_max: int) -> list[np.ndarray]:
    """``gpca._evaluations`` in degrees 0..d_max."""
    return list(islice(gpca._evaluations(points, n), d_max + 1))


def direct_evaluation(points, n: int, d: int) -> list[list]:
    """Each degree-d monomial at each point, as Python ints or floats."""
    monomials = exponents(n, d)
    return [[math.prod(x**e for x, e in zip(p, exps)) for exps in monomials] for p in points]


@st.composite
def rational_clouds(draw, entries=st.integers(-12, 12)):
    """Points on one or two random subspaces, each scaled by a rational;
    small combinations repeat rays and low-dimensional subspaces make the
    evaluation rows dependent."""
    n = draw(st.integers(1, 4))
    scales = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
    points = []
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, n))
        vector = st.lists(entries, min_size=n, max_size=n)
        basis = draw(st.lists(vector, min_size=k, max_size=k))
        for _ in range(draw(st.integers(0, 6))):
            alpha = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
            point = [sum(a * b[j] for a, b in zip(alpha, basis)) for j in range(n)]
            if any(point):
                scale = draw(scales)
                points.append([scale * x for x in point])
    return PointCloud(n, points)


@st.composite
def chain_clouds(draw):
    """Clouds for runs of consecutive degrees: 1-6 points on each of 1-3
    random subspaces, so the rays often stop short of the monomials and the
    evaluation matrices have full row rank, with some points repeated up to
    a rational scale, and now and then entries near 2^40, so that from
    degree 2 on the matrices hold Python ints."""
    n = draw(st.integers(1, 4))
    big = draw(st.booleans())
    entries = st.integers(-(1 << 40), 1 << 40) if big else st.integers(-6, 6)
    scales = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
    points = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, n))
        vector = st.lists(entries, min_size=n, max_size=n)
        basis = draw(st.lists(vector, min_size=k, max_size=k))
        for _ in range(draw(st.integers(1, 6))):
            alpha = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
            point = [sum(a * b[j] for a, b in zip(alpha, basis)) for j in range(n)]
            if any(point):
                points.append(point)
                if draw(st.booleans()):
                    scale = draw(scales)
                    points.append([scale * x for x in point])
    return PointCloud(n, points)


@st.composite
def recovery_inputs(draw):
    """(values, m, n) for recovery, with n = 1..8 and m = 1..8: Hilbert
    values of transversal arrangements (codimension n included), the same
    with one entry perturbed, arbitrary integers, or a vector holding a
    non-integer Fraction."""
    n = draw(st.integers(1, 8))
    source = draw(st.sampled_from(["transversal", "perturbed", "arbitrary", "fraction"]))
    if source == "arbitrary":
        m = draw(st.integers(1, 8))
        values = draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n))
    else:
        codims = draw(st.lists(st.integers(1, n), min_size=1, max_size=8))
        m = len(codims)
        values = [transversal_hilbert_function(codims, n, d) for d in range(m, m + n)]
    r = draw(st.integers(0, n - 1))
    if source == "perturbed":
        values[r] += draw(st.integers(-3, 3).filter(bool))
    elif source == "fraction":
        values[r] += Fraction(draw(st.integers(1, 4)), 5)
    return values, m, n


def recovery_outcome(recover, values, m, n):
    """The multiplicities, or "inconsistent" when recovery rejects the data."""
    try:
        return recover(values, m, n).multiplicities
    except InconsistentDataError:
        return "inconsistent"


class TestPointCloud:
    def test_exactness_detection(self):
        exact = PointCloud(2, [[1, 2], [Fraction(1, 3), 1]])
        assert exact.exact
        assert all(isinstance(x, Fraction) for p in exact.points for x in p)
        floaty = PointCloud(2, [[1.0, 2.0], [3, 4]])
        assert not floaty.exact
        assert all(isinstance(x, float) for p in floaty.points for x in p)

    def test_fractions_kept_and_the_rest_converted(self):
        third = Fraction(1, 3)
        pc = PointCloud(2, [[third, 2], [True, third]])
        assert pc.points[0][0] is third and pc.points[1][1] is third
        assert [type(x) for p in pc.points for x in p] == [Fraction] * 4
        assert pc.points == ((third, Fraction(2)), (Fraction(1), third))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            PointCloud(3, [[0, 0, 0]])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            PointCloud(3, [[1, 2]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PointCloud(2, [[1.0, 2.0], [bad, 1.0]])

    def test_empty_cloud_allowed(self):
        assert len(PointCloud(3, [])) == 0

    def test_rays_are_distinct_primitive_and_cached(self):
        pc = PointCloud(
            3,
            [[2, 4, -6], [0, -3, 1], [Fraction(-1, 2), -1, Fraction(3, 2)], [0, 6, -2], [1, 1, 1]],
        )
        assert pc.rays == ((1, 2, -3), (0, 3, -1), (1, 1, 1))
        assert pc.rays is pc.rays


class TestRecoveryResult:
    def test_expansion_and_dims(self):
        result = RecoveryResult(4, [1, 0, 2])
        assert result.codims == (1, 3, 3)
        assert result.dims == (1, 1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryResult(3, [1])
        with pytest.raises(ValueError):
            RecoveryResult(3, [1, -1])


class TestEstimateHilbertValue:
    def test_three_coordinate_points(self):
        pc = PointCloud(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert estimate_hilbert_value(pc, 2) == 3

    def test_degree_zero(self):
        pc = PointCloud(3, [[1, 2, 3]])
        assert estimate_hilbert_value(pc, 0) == 0
        # a ray past int64 with no power above 1 still takes Python ints
        pc = PointCloud(2, [[10**30, 1], [1, 2]])
        assert estimate_hilbert_value(pc, 0) == 0

    def test_empty_cloud_gives_full_space(self):
        pc = PointCloud(3, [])
        assert estimate_hilbert_value(pc, 2) == binom(4, 2)

    @settings(max_examples=80, deadline=None)
    @given(rational_clouds(), st.integers(0, 4))
    def test_matches_fraction_rows(self, pc, d):
        assert estimate_hilbert_value(pc, d) == reference_hilbert_value(pc, d)

    @settings(max_examples=60, deadline=None)
    @given(
        rational_clouds(entries=st.integers(-(1 << 40), 1 << 40)),
        st.integers(2, 4),
    )
    def test_matches_fraction_rows_with_large_coordinates(self, pc, d):
        assert estimate_hilbert_value(pc, d) == reference_hilbert_value(pc, d)

    def test_rows_past_int64_use_python_ints(self):
        # Seven rays on a plane; the primitive rays pass 2^40, so from
        # d = 2 on max|x|^d passes 2^62 and the rows are Python ints.  The
        # rows are dependent, so an overflowed row would show in the rank.
        u = [1234567890123, 3, -987654321987]
        v = [5, 2222222222227, 2]
        combos = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (3, -2)]
        pc = PointCloud(
            3, [[a * x + b * y for x, y in zip(u, v)] for a, b in combos]
        )
        for d, expected in enumerate([0, 1, 3, 6, 10]):
            assert estimate_hilbert_value(pc, d) == expected
            assert reference_hilbert_value(pc, d) == expected

    def test_exact_points_that_do_not_fit_a_float(self):
        pc = PointCloud(2, [[Fraction(10**400), 1], [1, 2]])
        with pytest.raises(ValueError, match="degree-1"):
            estimate_hilbert_value(pc, 1, tol=1e-8)

    def test_ten_points_per_line_match_oracle(self):
        arr = coordinate_axes()
        pc = sample_points(arr, 10, seed=501)
        for d in range(1, 6):
            assert estimate_hilbert_value(pc, d) == dim_intersection_ideal(
                arr, 0b111, d
            )

    def test_monotone_in_points(self):
        arr = coordinate_axes()
        pc = sample_points(arr, 8, seed=502)
        for count in range(0, len(pc.points)):
            smaller = PointCloud(3, pc.points[:count])
            larger = PointCloud(3, pc.points[: count + 1])
            assert estimate_hilbert_value(larger, 3) <= estimate_hilbert_value(
                smaller, 3
            )

    def test_sufficiency_heuristic(self):
        # C(d+n-1, n-1) generic samples per subspace reproduce the oracle
        rng = random.Random(503)
        for _ in range(4):
            n = rng.randint(2, 3)
            m = rng.randint(1, 3)
            dims = [rng.randint(1, n - 1) for _ in range(m)]
            arr = random_arrangement(n, dims, rng.randint(0, 10**6))
            d = rng.randint(m, m + 2)
            per = binom(d + n - 1, n - 1)
            pc = sample_points(arr, per, seed=rng.randint(0, 10**6))
            assert estimate_hilbert_value(pc, d) == dim_intersection_ideal(
                arr, (1 << m) - 1, d
            )

    def test_float_mode_matches_exact(self):
        arr = coordinate_axes()
        pc = sample_points(arr, 10, seed=504)
        floaty = PointCloud(3, [[float(x) for x in p] for p in pc.points])
        assert not floaty.exact
        for d in range(1, 5):
            assert estimate_hilbert_value(floaty, d) == estimate_hilbert_value(pc, d)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(_normal_floats, min_size=n, max_size=n), min_size=1, max_size=6
            )
        )
    )
    def test_float_matrix_matches_python_floats(self, points):
        # each entry is a product of d floats, rounded once per factor, and
        # Python's float pow rounds once per power: a few ulp apart while
        # the products stay clear of the subnormal range
        n = len(points[0])
        for d, matrix in enumerate(evaluation_matrices(points, n, 7)):
            assert matrix.dtype == np.float64
            np.testing.assert_allclose(matrix, direct_evaluation(points, n, d), rtol=1e-13, atol=0)

    def test_explicit_tolerance(self):
        pc = PointCloud(2, [[1.0, 0.0], [1.0, 1e-12]])
        # the two near-parallel rays collapse under a loose tolerance
        assert estimate_hilbert_value(pc, 1, tol=1e-6) == 1
        assert estimate_hilbert_value(pc, 1, tol=1e-15) == 0


class TestEvaluations:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.sampled_from([9, 1 << 11, 1 << 40, 1 << 70]).flatmap(
                lambda top: st.lists(
                    st.lists(st.integers(-top, top), min_size=n, max_size=n),
                    min_size=1,
                    max_size=6,
                )
            )
        )
    )
    @example([[1 << 11, 3], [5, -7]])
    @example([[3 << 40, 1]])
    def test_integer_matrices_match_python_ints(self, points):
        # top^d passes 2^62 at degree 6 for a coordinate near 2^11, at
        # degree 2 near 2^40, and at once near 2^70: the matrices change to
        # Python ints there
        n = len(points[0])
        top = max(abs(x) for p in points for x in p)
        for d, matrix in enumerate(evaluation_matrices(points, n, 6)):
            int64 = top ** max(d, 1) < linalg.INT64_SAFE
            assert matrix.dtype == (np.int64 if int64 else object)
            assert matrix.tolist() == direct_evaluation(points, n, d)


class TestEstimateHilbertValues:
    @settings(max_examples=120, deadline=None)
    @given(chain_clouds(), st.integers(0, 3), st.integers(1, 5))
    def test_matches_one_degree_at_a_time(self, pc, start, count):
        degrees = range(start, start + count)
        assert estimate_hilbert_values(pc, degrees) == [
            estimate_hilbert_value(pc, d) for d in degrees
        ]

    def test_an_empty_leading_set_falls_short(self, monkeypatch):
        # degree 1 has full column rank, so no leading monomials; at degree
        # 2 the kernel has dimension 3 and the empty set accounts for none
        # of it, so that degree is ranked in full.  There its three rays
        # have full row rank mod p, which leaves the pivots unproven, so
        # degree 3 is ranked in full too
        certified = []

        def spy(matrix):
            certified.append(matrix.shape[1])
            return certified_pivots(matrix)

        certified_pivots = linalg.certified_pivots
        monkeypatch.setattr(linalg, "certified_pivots", spy)
        pc = PointCloud(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert estimate_hilbert_values(pc, range(1, 4)) == [0, 3, 7]
        assert certified == [3, 6, 10]

    def test_the_degree_after_a_fallback_closes_by_its_pivots(self, monkeypatch):
        # the rays agree mod 2 and their pivots agree mod 3, so no
        # certificate holds at degree 2 and certified_pivots falls back to
        # IntEchelon, whose pivots x^2, xy leave y^2 leading the kernel; at
        # degree 3 the columns off its multiples xy^2, y^3 are independent
        certified = []

        def spy(matrix):
            certified.append(matrix.shape[1])
            return certified_pivots(matrix)

        certified_pivots = linalg.certified_pivots
        monkeypatch.setattr(linalg, "certified_pivots", spy)
        monkeypatch.setattr(linalg, "LIFT_PRIMES", (2, 3))
        pc = PointCloud(2, [[1, 1], [1, 3]])
        assert estimate_hilbert_values(pc, range(2, 4)) == [1, 2]
        assert certified == [3]

    def test_lifts_only_at_the_first_degree(self, monkeypatch):
        lifted = []

        def spy(residues, *args):
            lifted.append(residues.shape[1])
            return lifts(residues, *args)

        lifts = linalg._lifts
        monkeypatch.setattr(linalg, "_lifts", spy)
        arr = random_arrangement(4, [1, 2, 2], seed=520)
        pc = sample_points(arr, 12, seed=521)
        values = estimate_hilbert_values(pc, range(3, 7))
        assert values == [dim_intersection_ideal(arr, 0b111, d) for d in range(3, 7)]
        assert lifted and set(lifted) == {binom(3 + 3, 3)}

    def test_degrees_must_be_ascending_and_consecutive(self):
        pc = PointCloud(2, [[1, 2]])
        assert estimate_hilbert_values(pc, []) == []
        for bad in ([2, 4], [3, 2], [1, 1]):
            with pytest.raises(ValueError, match="consecutive"):
                estimate_hilbert_values(pc, bad)
        with pytest.raises(ValueError, match="nonnegative"):
            estimate_hilbert_values(pc, [-1, 0])

    def test_float_clouds_rank_every_degree(self):
        pc = sample_points(coordinate_axes(), 10, seed=522)
        floaty = PointCloud(3, [[float(x) for x in p] for p in pc.points])
        assert estimate_hilbert_values(floaty, range(3, 6)) == [7, 12, 18]
        assert estimate_hilbert_values(pc, range(3, 6), tol=1e-8) == [7, 12, 18]


class TestInterpolation:
    def test_known_polynomial(self):
        h = interpolate_polynomial([7, 12, 18], start=3)
        assert h == QPoly.of(Fraction(-2), Fraction(3, 2), Fraction(1, 2))

    def test_reproduces_inputs(self):
        rng = random.Random(505)
        for _ in range(25):
            count = rng.randint(1, 6)
            start = rng.randint(0, 5)
            values = [rng.randint(-30, 30) for _ in range(count)]
            h = interpolate_polynomial(values, start)
            assert h.degree < count
            for r, y in enumerate(values):
                assert h.evaluate(start + r) == y


class TestBinomialBasis:
    def test_known_coefficients(self):
        h = QPoly.of(Fraction(-2), Fraction(3, 2), Fraction(1, 2))
        assert binomial_basis_coefficients(h, 3) == QPoly.of(-2, 6, -3)

    def test_round_trip(self):
        rng = random.Random(506)
        for _ in range(25):
            n = rng.randint(1, 6)
            a = [rng.randint(-9, 9) for _ in range(n)]
            h = QPoly.of()
            for j, aj in enumerate(a):
                h = h + shifted_binomial_polynomial(n, j) * aj
            assert binomial_basis_coefficients(h, n) == QPoly(a)

    def test_rejects_high_degree(self):
        with pytest.raises(ValueError):
            binomial_basis_coefficients(QPoly.of(0, 0, 0, 1), 3)


class TestRecoverCodimensions:
    def test_three_lines_values(self):
        result = recover_codimensions([7, 12, 18], m=3, n=3)
        assert result.multiplicities == (0, 3)
        assert result.codims == (2, 2, 2)
        assert result.dims == (1, 1, 1)

    def test_line_in_plane(self):
        result = recover_codimensions([1, 2], m=1, n=2)
        assert result.multiplicities == (1,)
        assert result.codims == (1,)

    def test_inconsistent_values(self):
        with pytest.raises(InconsistentDataError):
            recover_codimensions([1, 1, 1], m=3, n=3)

    def test_wrong_value_count(self):
        with pytest.raises(ValueError):
            recover_codimensions([7, 12], m=3, n=3)

    def test_million_lines_in_the_plane(self):
        # --m reaches recovery straight from the command line
        start = time.perf_counter()
        result = recover_codimensions([1, 2], 10**6, 2)
        assert time.perf_counter() - start < 5.0
        assert result.multiplicities == (10**6,)

    def test_round_trip_random_transversal(self):
        rng = random.Random(507)
        for _ in range(40):
            n = rng.randint(2, 5)
            m = rng.randint(1, 4)
            codims = sorted(rng.randint(1, n - 1) for _ in range(m))
            values = [
                transversal_hilbert_function(codims, n, d)
                for d in range(m, m + n)
            ]
            result = recover_codimensions(values, m, n)
            assert list(result.codims) == codims

    def test_codim_n_component_is_flagged(self):
        # a zero subspace (codimension n) contributes nothing detectable,
        # so the subspace count comes up short
        n, m = 3, 2
        codims = [2, 3]
        values = [
            transversal_hilbert_function(codims, n, d) for d in range(m, m + n)
        ]
        with pytest.raises(InconsistentDataError, match="invisible"):
            recover_codimensions(values, m, n)

    def test_wrong_m_detected(self):
        values = [
            transversal_hilbert_function([2, 2, 2], 3, d) for d in range(3, 6)
        ]
        with pytest.raises(InconsistentDataError):
            recover_codimensions(values, m=2, n=3)

    def test_non_integer_value_rejected(self):
        with pytest.raises(InconsistentDataError, match="not an integer"):
            recover_codimensions([7, Fraction(25, 2), 18], m=3, n=3)
        assert recover_codimensions([7, Fraction(12), 18], m=3, n=3).dims == (1, 1, 1)

    def test_multiplicity_past_m_rejected(self):
        # P(t) = 1 - k t + b t^2 claims k subspaces of codimension 1 out of
        # m = 2: recovery stops there instead of dividing by (1 - t)^k, k
        # prefix sums.  b makes the next multiplicity -1, so a recovery
        # without that bound also ends, at codimension 2.
        k = 10**5
        b = k * (k - 1) // 2 + 1
        a = [1 - k + b, k - 2 * b, b]  # P(1 - t), the shifted binomial basis
        values = [
            sum(aj * binom(d + 2 - j, 2) for j, aj in enumerate(a))
            for d in range(2, 5)
        ]
        with pytest.raises(
            InconsistentDataError, match="codimension 1 came out as 100000"
        ):
            recover_codimensions(values, m=2, n=3)

    @settings(max_examples=300, deadline=None)
    @given(recovery_inputs())
    @example(([1], 1, 1))
    @example(([7, 12, 18], 3, 3))
    def test_matches_fraction_reference(self, case):
        values, m, n = case
        assert recovery_outcome(recover_codimensions, values, m, n) == (
            recovery_outcome(reference_recover_codimensions, values, m, n)
        )


class TestEndToEnd:
    def test_three_lines_pipeline(self):
        pc = sample_points(coordinate_axes(), 10, seed=508)
        values = [estimate_hilbert_value(pc, d) for d in (3, 4, 5)]
        assert values == [7, 12, 18]
        result = end_to_end_recover(pc, m=3)
        assert result.dims == (1, 1, 1)

    def test_single_plane(self):
        arr = Arrangement(3, [SubspaceBasis(3, [[1, 0, 0], [0, 1, 0]])])
        pc = sample_points(arr, 12, seed=509)
        result = end_to_end_recover(pc, m=1)
        assert result.codims == (1,)
        assert result.dims == (2,)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            end_to_end_recover(PointCloud(3, []), m=1)

    def test_float_pipeline(self):
        pc = sample_points(coordinate_axes(), 10, seed=510)
        floaty = PointCloud(3, [[float(x) for x in p] for p in pc.points])
        result = end_to_end_recover(floaty, m=3, tol=1e-8)
        assert result.dims == (1, 1, 1)


class TestSamplePoints:
    def test_points_lie_on_subspaces(self):
        arr = random_arrangement(4, [2, 1, 3], seed=511)
        pc = sample_points(arr, 5, seed=512)
        assert len(pc.points) == 15
        for idx, s in enumerate(arr.subspaces):
            for p in pc.points[idx * 5 : (idx + 1) * 5]:
                assert contains(s, p)

    def test_deterministic(self):
        arr = coordinate_axes()
        assert sample_points(arr, 4, seed=513) == sample_points(arr, 4, seed=513)

    def test_rays_are_distinct_on_planes(self):
        # Seed 1 used to draw one ray of the plane twice among five points,
        # one short of the five that degree 4 needs, and recovery raised
        # InconsistentDataError on this valid arrangement.
        arr = Arrangement(
            3,
            [
                SubspaceBasis(3, [[1, 0, 0], [0, 1, 0]]),
                SubspaceBasis(3, [[0, 0, 1]]),
            ],
        )
        pc = sample_points(arr, 5, seed=1)
        rays = {tuple(x / next(y for y in p if y) for x in p) for p in pc.points[:5]}
        assert len(rays) == 5
        assert end_to_end_recover(pc, m=2).dims == (1, 2)

    def test_more_points_than_rays_terminates(self):
        plane = Arrangement(3, [SubspaceBasis(3, [[1, 0, 0], [0, 1, 0]])])
        assert len(sample_points(plane, 200, seed=516)) == 200

    def test_zero_subspace_rejected(self):
        arr = Arrangement(2, [SubspaceBasis(2)])
        with pytest.raises(ValueError):
            sample_points(arr, 3, seed=514)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            sample_points(coordinate_axes(), 0, seed=515)
