"""Tests for exact matrix algebra and subspace operations."""

import collections
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subspace_hilbert import linalg
from subspace_hilbert.linalg import (
    CHECK_PRIMES,
    LIFT_PRIMES,
    IntEchelon,
    SubspaceBasis,
    approx_rank,
    certified_pivots,
    certified_rank,
    echelon_mod_p,
    primitive_int_vector,
    rref,
)

from closed_form_reference import (
    QMatrix,
    annihilator,
    contains,
    intersect,
    kernel,
    matvec,
    rank,
    rational_rref,
    reference_echelon_mod_p,
    reference_primitive_int_vector,
    span_of,
    spans_equal,
    sum_subspaces,
)


def random_matrix(rng: random.Random, nrows: int, ncols: int) -> list[list[int]]:
    """Integer rows, with zero rows and dependent rows now and then."""
    rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.3:
        k = rng.randint(-2, 2)
        rows[-1] = [x + k * y for x, y in zip(rows[0], rows[1])]
    return rows


def random_subspace(rng: random.Random, ambient: int, max_vectors: int) -> SubspaceBasis:
    vectors = [
        [Fraction(rng.randint(-3, 3)) for _ in range(ambient)]
        for _ in range(rng.randint(0, max_vectors))
    ]
    return span_of(ambient, vectors)


def assert_rref_matches_rational(rows: list[list[int]], ncols: int) -> None:
    """The integer rref is d > 0 times the rational one: pivot entries d,
    pivot columns d times unit vectors, and the same pivots."""
    reduced, pivots, d = rref(rows, ncols)
    expected, expected_pivots = rational_rref(QMatrix(rows, ncols=ncols))
    assert pivots == expected_pivots
    assert d > 0
    assert all(type(x) is int for row in reduced for x in row)
    assert [[Fraction(x, d) for x in row] for row in reduced] == [
        list(row) for row in expected.entries[: len(pivots)]
    ]
    for i, p in enumerate(pivots):
        assert [row[p] for row in reduced] == [d * (k == i) for k in range(len(pivots))]


class TestQMatrix:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            QMatrix([[1, 2], [3]])

    def test_empty_needs_ncols(self):
        with pytest.raises(ValueError):
            QMatrix([])
        m = QMatrix([], ncols=4)
        assert m.nrows == 0 and m.ncols == 4

    def test_matvec(self):
        m = QMatrix([[1, 2], [3, 4]])
        assert matvec(m, [1, 1]) == (Fraction(3), Fraction(7))


class TestRref:
    def test_known_form(self):
        reduced, pivots, d = rref([[2, 4], [1, 3]], 2)
        assert pivots == (0, 1)
        assert d == 2  # the determinant
        assert reduced == [[2, 0], [0, 2]]
        assert_rref_matches_rational([[2, 4], [1, 3]], 2)

    def test_dependent_rows(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        reduced, pivots, d = rref(rows, 3)
        assert pivots == (0, 1)
        assert len(reduced) == 2  # the zero row is dropped
        assert_rref_matches_rational(rows, 3)

    def test_idempotent(self):
        rng = random.Random(701)
        for _ in range(50):
            rows = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            ncols = len(rows[0])
            reduced, pivots, d = rref(rows, ncols)
            again, pivots2, d2 = rref(reduced, ncols)
            assert pivots2 == pivots
            # the same rational form: d2 * reduced == d * again
            assert [[d2 * x for x in row] for row in reduced] == [
                [d * x for x in row] for row in again
            ]
            assert_rref_matches_rational(rows, ncols)

    def test_rank_nullity(self):
        rng = random.Random(702)
        for _ in range(60):
            rows = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
            ncols = len(rows[0])
            reduced, pivots, _ = rref(rows, ncols)
            assert len(pivots) == rank(QMatrix(rows))
            forms = SubspaceBasis(ncols, reduced).annihilator_forms
            assert len(pivots) + len(forms) == ncols
            assert len(forms) == kernel(QMatrix(rows)).dim

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_rational_rref(self, data):
        ncols, rows = data.draw(integer_matrices())
        assert_rref_matches_rational(rows, ncols)

    def test_empty_and_zero_matrices(self):
        assert rref([], 3) == ([], (), 1)
        assert rref([[0, 0], [0, 0]], 2) == ([], (), 1)
        assert rref([[5, 0], [0, -3]], 2) == ([[15, 0], [0, 15]], (0, 1), 15)


class TestKernel:
    """``annihilator_forms``: the integer kernel of a subspace's rows."""

    def test_vectors_annihilated(self):
        rng = random.Random(703)
        for _ in range(40):
            rows = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            ncols = len(rows[0])
            s = SubspaceBasis(ncols, rref(rows, ncols)[0])
            forms = s.annihilator_forms
            for f in forms:
                assert matvec(QMatrix(rows), f) == (Fraction(0),) * len(rows)
            assert spans_equal(
                SubspaceBasis(ncols, forms), kernel(QMatrix(rows, ncols=ncols))
            )

    def test_full_rank_kernel_trivial(self):
        assert SubspaceBasis(4, QMatrix.identity(4).entries).annihilator_forms == ()
        assert kernel(QMatrix.identity(4)).dim == 0

    def test_zero_rows_kernel_full(self):
        assert SubspaceBasis(3).annihilator_forms == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert kernel(QMatrix([], ncols=3)).dim == 3


class TestSubspaceBasis:
    def test_rejects_dependent(self):
        with pytest.raises(ValueError):
            SubspaceBasis(2, [[1, 0], [2, 0]])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SubspaceBasis(3, [[1, 0]])

    def test_span_of_reduces(self):
        s = span_of(3, [[1, 0, 0], [2, 0, 0], [0, 1, 0]])
        assert s.dim == 2

    def test_zero_subspace(self):
        s = SubspaceBasis(5)
        assert s.dim == 0
        assert s.integer_rows == ()
        assert contains(s, [0, 0, 0, 0, 0])
        assert not contains(s, [1, 0, 0, 0, 0])

    def test_contains(self):
        s = SubspaceBasis(3, [[1, 0, 0], [0, 1, 0]])
        assert contains(s, [3, -2, 0])
        assert not contains(s, [0, 0, 1])

    def test_keeps_vectors_and_primitive_rows(self):
        vectors = [[Fraction(1, 2), Fraction(-3, 4), 0], [6, 0, -9]]
        s = SubspaceBasis(3, vectors)
        assert s.vectors == ((Fraction(1, 2), Fraction(-3, 4), 0), (6, 0, -9))
        assert s.integer_rows == ((2, -3, 0), (2, 0, -3))
        assert s == SubspaceBasis(3, s.vectors)


class TestAnnihilatorForms:
    def test_primitive_forms_of_the_annihilator_computed_once(self):
        rng = random.Random(1019)
        for _ in range(20):
            s = random_subspace(rng, rng.randint(1, 5), 3)
            forms = s.annihilator_forms
            assert forms == tuple(
                tuple(reference_primitive_int_vector(f)) for f in annihilator(s)
            )
            assert s.annihilator_forms is forms

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_forms_match_the_rational_kernel(self, data):
        # sign for sign: the primitive multiple of each Fraction kernel vector,
        # from the zero subspace up to the whole space
        n = data.draw(st.integers(1, 7))
        small = st.fractions(-5, 5, max_denominator=4)
        vectors = data.draw(st.lists(st.lists(small, min_size=n, max_size=n), max_size=n))
        s = span_of(n, vectors)
        assert s.annihilator_forms == tuple(
            tuple(reference_primitive_int_vector(f)) for f in annihilator(s)
        )
        assert len(s.annihilator_forms) == n - s.dim
        for f in s.annihilator_forms:
            assert all(type(c) is int for c in f)
            assert all(sum(a * b for a, b in zip(f, v)) == 0 for v in s.vectors)


class TestSubspaceOps:
    def test_annihilator_count(self):
        rng = random.Random(704)
        for _ in range(40):
            s = random_subspace(rng, rng.randint(1, 6), 4)
            forms = annihilator(s)
            assert len(forms) == s.ambient_dim - s.dim
            for f in forms:
                for v in s.vectors:
                    assert sum(a * b for a, b in zip(f, v)) == 0

    def test_double_annihilator(self):
        rng = random.Random(705)
        for _ in range(30):
            s = random_subspace(rng, rng.randint(1, 6), 4)
            again = kernel(
                QMatrix(annihilator(s), ncols=s.ambient_dim)
            )
            assert spans_equal(s, again)

    def test_intersect_known(self):
        a = SubspaceBasis(3, [[1, 0, 0], [0, 1, 0]])
        b = SubspaceBasis(3, [[0, 1, 0], [0, 0, 1]])
        assert spans_equal(intersect(a, b), SubspaceBasis(3, [[0, 1, 0]]))

    def test_grassmann_dimension_formula(self):
        rng = random.Random(706)
        for _ in range(60):
            ambient = rng.randint(1, 6)
            a = random_subspace(rng, ambient, 4)
            b = random_subspace(rng, ambient, 4)
            both = intersect(a, b)
            total = sum_subspaces(a, b)
            assert a.dim + b.dim == both.dim + total.dim

    def test_intersect_commutes_up_to_span(self):
        rng = random.Random(707)
        for _ in range(30):
            ambient = rng.randint(1, 5)
            a = random_subspace(rng, ambient, 3)
            b = random_subspace(rng, ambient, 3)
            assert spans_equal(intersect(a, b), intersect(b, a))

    def test_intersect_with_full_space(self):
        full = span_of(3, QMatrix.identity(3).entries)
        s = SubspaceBasis(3, [[1, 2, 3]])
        assert spans_equal(intersect(full, s), s)

    def test_intersection_contained_in_both(self):
        rng = random.Random(708)
        for _ in range(30):
            ambient = rng.randint(1, 5)
            a = random_subspace(rng, ambient, 3)
            b = random_subspace(rng, ambient, 3)
            for v in intersect(a, b).vectors:
                assert contains(a, v) and contains(b, v)


class TestPrimitiveIntVector:
    def test_clears_denominators(self):
        assert primitive_int_vector([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]

    def test_strips_gcd(self):
        assert primitive_int_vector([4, 6, 8]) == [2, 3, 4]

    def test_zero_vector(self):
        assert primitive_int_vector([0, 0]) == [0, 0]

    @settings(max_examples=200, deadline=None)
    @example([0, 0, 0])
    @example([Fraction(-3, 4), 0, 6])
    @given(st.lists(st.one_of(
        st.integers(-(1 << 70), 1 << 70),
        st.fractions(max_denominator=10**6),
        st.just(0),
    ), max_size=8))
    def test_matches_fraction_formula(self, v):
        got = primitive_int_vector(v)
        assert got == reference_primitive_int_vector(v)
        assert all(type(x) is int for x in got)


class TestApproxRank:
    def test_exact_cases(self):
        assert approx_rank([[1.0, 0.0], [0.0, 1.0]]) == 2
        assert approx_rank([[1.0, 2.0], [2.0, 4.0]]) == 1
        assert approx_rank([[0.0, 0.0], [0.0, 0.0]]) == 0

    def test_tolerance_collapses_near_dependence(self):
        m = [[1.0, 2.0], [2.0, 4.0000001]]
        assert approx_rank(m, rel_tol=1e-4) == 1
        assert approx_rank(m, rel_tol=1e-12) == 2

    def test_matches_exact_rank_on_integer_matrices(self):
        rng = random.Random(709)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            rows = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
            exact = rank(QMatrix(rows, ncols=ncols))
            assert approx_rank(rows) == exact

    def test_rejects_nonpositive_tolerance(self):
        for bad in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                approx_rank([[1.0]], rel_tol=bad)

    @pytest.mark.parametrize("shape", [(0,), (3,), (0, 2, 2), (2, 2, 2)])
    def test_rejects_non_matrices_empty_or_not(self, shape):
        with pytest.raises(ValueError, match="2-d"):
            approx_rank(np.zeros(shape))

    def test_empty_matrices_have_rank_zero(self):
        assert approx_rank(np.zeros((0, 3))) == 0
        assert approx_rank(np.zeros((3, 0))) == 0

    @pytest.mark.parametrize(
        "m", [[[math.nan, 0.0], [0.0, 0.0]], [[math.inf, 1.0], [1.0, 1.0]], [[1.0, -math.inf]]]
    )
    def test_rejects_non_finite_entries(self, m):
        with pytest.raises(ValueError, match="finite"):
            approx_rank(m)


class TestIntEchelon:
    def test_simple_rank(self):
        ech = IntEchelon(3)
        assert ech.add([1, 2, 3])
        assert not ech.add([2, 4, 6])
        assert ech.add([0, 1, 1])
        assert ech.rank == 2

    def test_matches_rational_rank(self):
        rng = random.Random(710)
        for _ in range(60):
            nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
            rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
            assert certified_rank(_matrix(rows, ncols)) == rank(QMatrix(rows, ncols=ncols))

    def test_large_entries_fall_back_exactly(self):
        big = 10**30
        rows = [[big, big + 1, 0], [big + 1, big, 0], [1, 1, 1]]
        assert certified_rank(_matrix(rows, 3)) == 3
        rows = [[big, 2 * big], [3 * big, 6 * big]]
        assert certified_rank(_matrix(rows, 2)) == 1

    def test_accumulated_overflow_is_avoided(self):
        # Repeated cross-multiplications grow entries; the result must still
        # agree with exact rational elimination.
        rng = random.Random(711)
        for _ in range(10):
            ncols = 8
            rows = [
                [rng.randint(-10**9, 10**9) for _ in range(ncols)] for _ in range(8)
            ]
            assert certified_rank(_matrix(rows, ncols)) == rank(QMatrix(rows, ncols=ncols))

    def test_zero_rows_and_columns(self):
        ech = IntEchelon(3)
        assert not ech.add([0, 0, 0])
        assert ech.rank == 0
        assert certified_rank(_matrix([], 5)) == 0

    def test_full_flag(self):
        ech = IntEchelon(2)
        ech.add([1, 0])
        assert not ech.full
        ech.add([0, 1])
        assert ech.full

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            IntEchelon(3).add([1, 2])

    def test_multipliers_recomputed_after_strip(self):
        # [2^61, 0, 2^61] reduced against [2, 1, 0] is kept stripped of its
        # gcd 2^60; [1, 0, 1] then reduces against both kept rows with
        # multipliers taken from its current entries, to zero, so it is not new
        ech = IntEchelon(3)
        assert ech.add([2, 1, 0])
        assert ech.add([1 << 61, 0, 1 << 61])
        assert not ech.add([1, 0, 1])
        assert ech.rank == 2
        assert_echelon_invariant(ech)


def assert_echelon_invariant(ech: IntEchelon) -> None:
    """Kept rows are lists of Python ints, primitive, lead positive, with
    distinct first columns."""
    leads = []
    for row in ech.rows:
        assert type(row) is list and all(type(e) is int for e in row)
        lead = next(i for i, e in enumerate(row) if e)
        assert row[lead] > 0
        assert math.gcd(*row) == 1
        leads.append(lead)
    assert len(set(leads)) == len(leads)


# Entries near 2^62, far past int64, and small ones; rows are scaled by large
# common factors so that the gcd strip has work to do.
_entries = st.one_of(
    st.integers(-9, 9),
    st.integers(-9, 9).map(lambda e: e + (1 << 62) * (1 if e >= 0 else -1)),
    st.integers(-(1 << 70), 1 << 70),
)
_factors = st.sampled_from([1, 1, 3 << 40, 1 << 58, 7**20, 10**25])


@st.composite
def integer_rows(draw):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols), max_size=7))
    # repeat combinations of earlier rows so that some rows are dependent
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(st.integers(-3, 3))
            rows.append([x + k * y for x, y in zip(a, b)])
    factors = draw(st.lists(_factors, min_size=len(rows), max_size=len(rows)))
    return ncols, [[f * e for e in row] for f, row in zip(factors, rows)]


class TestIntEchelonProperties:
    @settings(max_examples=150, deadline=None)
    @given(integer_rows())
    def test_rank_matches_rational_rank(self, case):
        ncols, rows = case
        ech = IntEchelon(ncols)
        for row in rows:
            ech.add(row)
        assert ech.rank == (rank(QMatrix(rows, ncols=ncols)) if rows else 0)
        assert_echelon_invariant(ech)

    @settings(max_examples=60, deadline=None)
    @given(integer_rows())
    def test_reused_int64_buffer_reduces_like_lists(self, case):
        # the echelon must own what it keeps: callers refill one buffer
        ncols, rows = case
        small = [row for row in rows if max(map(abs, row)) < 1 << 62]
        as_lists, from_buffer = IntEchelon(ncols), IntEchelon(ncols)
        buffer = np.empty(ncols, dtype=np.int64)
        for row in small:
            buffer[:] = row
            assert as_lists.add(row) == from_buffer.add(buffer)
        assert as_lists.rows == from_buffer.rows


def _matrix(rows: list[list[int]], ncols: int) -> np.ndarray:
    """int64 when every entry fits, else an object array of Python ints."""
    fits = all(abs(e) < 1 << 63 for row in rows for e in row)
    return np.array(rows, dtype=np.int64 if fits else object).reshape(len(rows), ncols)


@st.composite
def integer_matrices(draw):
    """Tall, wide and square integer matrices with entries from ``_entries``.

    Half are a product A @ B with a small-entry A and an inner dimension k
    at most min(rows, cols), so rank <= k; half are the rows of
    ``integer_rows``.  Some rows are then zeroed.
    """
    if draw(st.booleans()):
        nrows, ncols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        k = draw(st.integers(0, min(nrows, ncols)))
        a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                          min_size=nrows, max_size=nrows))
        b = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols),
                          min_size=k, max_size=k))
        rows = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(ncols)]
                for i in range(nrows)]
    else:
        ncols, rows = draw(integer_rows())
    for i in draw(st.sets(st.integers(0, max(0, len(rows) - 1)), max_size=2)):
        if rows:
            rows[i] = [0] * ncols
    return ncols, rows


def _echelon_rank(rows: list[list[int]], ncols: int) -> int:
    ech = IntEchelon(ncols)
    for row in rows:
        ech.add(row)
    return ech.rank


_TINY_PRIMES = (2, 3, 5, 7)


class TestCertifiedRank:
    @settings(max_examples=150, deadline=None)
    @given(integer_matrices())
    def test_matches_rational_and_echelon_rank(self, case):
        ncols, rows = case
        expected = rank(QMatrix(rows, ncols=ncols)) if rows else 0
        assert certified_rank(_matrix(rows, ncols)) == expected
        assert certified_rank(np.array(rows, dtype=object).reshape(len(rows), ncols)) == expected
        assert _echelon_rank(rows, ncols) == expected

    @settings(max_examples=150, deadline=None)
    @given(integer_matrices())
    def test_tiny_primes_stay_exact(self, case):
        # mod 2..7 pivots disagree, reconstructions fail and checks cannot
        # finish, so most matrices reach the IntEchelon fallback
        ncols, rows = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "LIFT_PRIMES", _TINY_PRIMES)
            mp.setattr(linalg, "CHECK_PRIMES", _TINY_PRIMES)
            got, pivots = certified_pivots(_matrix(rows, ncols))
        _, expected = rational_rref(QMatrix(rows, ncols=ncols))
        assert got == len(expected)
        if pivots is not None:
            assert tuple(pivots.tolist()) == tuple(expected)

    @settings(max_examples=150, deadline=None)
    @given(integer_matrices())
    def test_certified_pivots_are_the_rational_pivots(self, case):
        ncols, rows = case
        got, pivots = certified_pivots(_matrix(rows, ncols))
        _, expected = rational_rref(QMatrix(rows, ncols=ncols))
        assert got == len(expected)
        if pivots is not None:
            assert tuple(pivots.tolist()) == tuple(expected)

    def test_pivots_of_rank_deficient_matrices(self):
        # rank k below rows and columns: neither shortcut applies, so the
        # certificate runs and proves its pivots
        rng = random.Random(1019)
        for _ in range(40):
            nrows, ncols = rng.randint(2, 9), rng.randint(2, 9)
            k = rng.randint(0, min(nrows, ncols) - 1)
            a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nrows)]
            b = [[rng.randint(-9, 9) * rng.choice([1, 1, 0]) for _ in range(ncols)]
                 for _ in range(k)]
            rows = [[sum(x * y[j] for x, y in zip(row, b)) for j in range(ncols)]
                    for row in a]
            got, pivots = certified_pivots(_matrix(rows, ncols))
            _, expected = rational_rref(QMatrix(rows, ncols=ncols))
            assert got == len(expected) and pivots is not None
            assert tuple(pivots.tolist()) == tuple(expected)

    def test_rejects_non_matrices(self):
        with pytest.raises(ValueError):
            certified_rank(np.arange(3))
        with pytest.raises(ValueError):
            certified_rank(np.eye(2))

    def test_empty_shapes(self):
        assert certified_rank(np.zeros((0, 4), dtype=np.int64)) == 0
        assert certified_rank(np.zeros((3, 0), dtype=np.int64)) == 0
        assert certified_rank(np.zeros((3, 4), dtype=np.int64)) == 0

    def test_int64_extremes(self):
        # -2^63 has no int64 absolute value; the bounds must not wrap
        low = -(1 << 63)
        rows = [[low, 1], [low, 1], [1, low]]
        assert certified_rank(np.array(rows, dtype=np.int64)) == 2
        assert certified_rank(np.array([[low, low], [low, low]], dtype=np.int64)) == 1

    def test_moduli_are_distinct_primes_in_range(self):
        def is_prime(p):
            return p > 1 and all(p % f for f in range(2, math.isqrt(p) + 1))

        assert len(set(LIFT_PRIMES)) == len(LIFT_PRIMES)
        assert len(set(CHECK_PRIMES)) == len(CHECK_PRIMES)
        assert all(is_prime(p) and p < 1 << 31 for p in LIFT_PRIMES)
        assert all(is_prime(q) and q < 1 << 25 for q in CHECK_PRIMES)
        assert LIFT_PRIMES[0] == linalg.PRIME


class TestCertifiedRankPaths:
    """Fixed matrices that take each way through certified_rank."""

    @staticmethod
    def run(monkeypatch, rows, lift=None, check=None):
        calls = collections.Counter()

        def counted(name, fn, outcome):
            def wrapper(*args):
                result = fn(*args)
                calls[f"{name}:{outcome(result)}"] += 1
                return result
            monkeypatch.setattr(linalg, name, wrapper)

        counted("_reconstruct", linalg._reconstruct, lambda r: r is not None)
        counted("_certify", linalg._certify, bool)
        counted("_echelon_pivots", linalg._echelon_pivots, lambda r: "ran")
        if lift:
            monkeypatch.setattr(linalg, "LIFT_PRIMES", lift)
        if check:
            monkeypatch.setattr(linalg, "CHECK_PRIMES", check)
        return certified_rank(np.array(rows, dtype=object)), calls

    def test_full_rank_mod_p_needs_no_certificate(self, monkeypatch):
        got, calls = self.run(monkeypatch, [[2, 1, 0], [0, 3, 1]])
        assert got == 2 and not calls

    def test_pivots_on_each_path(self, monkeypatch):
        # full column rank: every column is a pivot
        got, pivots = certified_pivots(np.array([[1, 2], [3, 4], [5, 6]]))
        assert got == 2 and pivots.tolist() == [0, 1]
        # full row rank below the columns: the pivots mod p are not proven
        assert certified_pivots(np.array([[2, 1, 0], [0, 3, 1]]))[1] is None
        # certified
        rows = [[3, 1, 4, 1], [6, 2, 8, 2], [5, 9, 2, 6], [8, 10, 6, 7]]
        got, pivots = certified_pivots(np.array(rows))
        assert got == 2 and pivots.tolist() == [0, 1]
        # the IntEchelon fallback: its kept rows' leading columns
        monkeypatch.setattr(linalg, "LIFT_PRIMES", _TINY_PRIMES)
        got, pivots = certified_pivots(np.array([[2, 3], [4, 6]]))
        assert got == 1 and pivots.tolist() == [0]

    @pytest.mark.parametrize(
        "rows, rank, pivots",
        [
            # full column rank: every column is a pivot
            ([[1, 2], [3, 4], [5, 6]], 2, [0, 1]),
            ([[0, 2], [0, 0], [7, 1], [0, 4]], 2, [0, 1]),
            # full row rank below the columns: no pivots are proven
            ([[2, 1, 0], [0, 3, 1]], 2, None),
            ([[0, 0, 5, 1]], 1, None),
        ],
    )
    def test_first_prime_returns_before_back_substituting(self, monkeypatch, rows, rank, pivots):
        # the rank mod the first prime is min(rows, cols): its echelon alone
        # answers, with no back-substitution and no lifting
        def refuse(*args):
            raise AssertionError("lifted past the first prime")

        monkeypatch.setattr(linalg, "_back_substitute", refuse)
        monkeypatch.setattr(linalg, "_lifts", refuse)
        got, got_pivots = certified_pivots(np.array(rows, dtype=object))
        assert got == rank
        if pivots is None:
            assert got_pivots is None
        else:
            assert got_pivots.tolist() == pivots == list(range(len(rows[0])))

    def test_certified(self, monkeypatch):
        rows = [[3, 1, 4, 1], [6, 2, 8, 2], [5, 9, 2, 6], [8, 10, 6, 7]]
        got, calls = self.run(monkeypatch, rows)
        assert got == 2
        assert calls["_certify:True"] == 1 and not calls["_echelon_pivots:ran"]

    def test_pivots_disagree(self, monkeypatch):
        # pivot column 1 mod 2, column 0 mod 3
        got, calls = self.run(monkeypatch, [[2, 3], [4, 6]], lift=_TINY_PRIMES)
        assert got == 1
        assert calls["_certify:False"] == 1 and calls["_echelon_pivots:ran"] == 1

    def test_reconstruction_fails(self, monkeypatch):
        # 100 has no reconstruction below 2 * 3 * 5 * 7
        got, calls = self.run(monkeypatch, [[1, 100], [2, 200]], lift=_TINY_PRIMES)
        assert got == 1
        assert calls["_reconstruct:False"] and calls["_echelon_pivots:ran"] == 1

    def test_check_cannot_finish(self, monkeypatch):
        # the bound 1*200 + 1*2*100 needs a product of check primes past 800
        got, calls = self.run(monkeypatch, [[1, 100], [2, 200]], check=_TINY_PRIMES)
        assert got == 1
        assert calls["_certify:True"] == 0 and calls["_echelon_pivots:ran"] == 1

    def test_unlucky_first_prime(self, monkeypatch):
        # rank 2 over Q but 1 mod 2: no certificate for rank 1 can hold
        got, calls = self.run(monkeypatch, [[1, 1], [1, 3], [3, 5]], lift=(2, 3))
        assert got == 2
        assert calls["_certify:True"] == 0 and calls["_echelon_pivots:ran"] == 1


class TestCertificate:
    def setup_method(self):
        rng = random.Random(1018)
        basis = [[rng.randint(-50, 50) for _ in range(7)] for _ in range(3)]
        combos = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(6)]
        self.m = np.array(
            [[sum(c * b[j] for c, b in zip(cs, basis)) for j in range(7)] for cs in combos],
            dtype=np.int64,
        )
        reduced, pivots = rational_rref(QMatrix(self.m.tolist()))
        self.pivots = np.array(pivots)
        entries = reduced.entries[: len(pivots)]
        self.d = math.lcm(*(e.denominator for row in entries for e in row))
        self.n = np.array([[int(e * self.d) for e in row] for row in entries], dtype=object)

    def test_exact_rref_passes(self):
        assert len(self.pivots) == 3
        assert linalg._certify(self.m, self.pivots, self.n, self.d)

    @pytest.mark.parametrize("shift", [1, -1, math.prod(CHECK_PRIMES[:4])])
    def test_corrupted_entry_fails(self, shift):
        # a shift by a product of check primes vanishes mod each of them;
        # the larger entry must raise the bound until a further prime sees it
        free = next(j for j in range(self.m.shape[1]) if j not in self.pivots)
        corrupted = self.n.copy()
        corrupted[1, free] += shift
        assert not linalg._certify(self.m, self.pivots, corrupted, self.d)

    def test_wrong_denominator_fails(self):
        assert not linalg._certify(self.m, self.pivots, self.n, self.d + 1)


@st.composite
def residue_matrices(draw):
    """A prime p and an int64 matrix of residues mod p, up to 8 x 8 and
    possibly empty: many zero entries, so pivots often need a swap, small
    and full-range residues, and some columns zeroed outright."""
    p = draw(st.sampled_from([2, 3, 7, linalg.PRIME]))
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = st.one_of(st.just(0), st.integers(1, 3), st.integers(0, p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    m = np.array(rows, dtype=np.int64).reshape(nrows, ncols) % p
    m[:, sorted(draw(st.sets(st.integers(0, 7))) & set(range(ncols)))] = 0
    return m, p


FORCED_SWAPS = np.array([[0, 0, 1], [0, 2, 1], [5, 0, 0]], dtype=np.int64)


class TestEchelonModP:
    @settings(max_examples=200, deadline=None)
    @given(residue_matrices())
    @example((np.zeros((0, 0), dtype=np.int64), 2))
    @example((np.zeros((0, 4), dtype=np.int64), 3))
    @example((np.zeros((3, 0), dtype=np.int64), 7))
    @example((np.zeros((3, 4), dtype=np.int64), linalg.PRIME))
    @example((FORCED_SWAPS, 7))
    def test_matches_the_reference_loop(self, case):
        m, p = case
        want, want_sources = reference_echelon_mod_p(m.copy(), p)
        got, sources = echelon_mod_p(m.copy(), p)
        assert got.shape == want.shape and got.tolist() == want.tolist()
        assert sources.tolist() == want_sources.tolist()

    def test_forced_swaps(self):
        got, sources = echelon_mod_p(FORCED_SWAPS.copy(), 7)
        assert sources.tolist() == [2, 1, 0]
        assert got.tolist() == [[1, 0, 0], [0, 1, 4], [0, 0, 1]]

    @settings(max_examples=60, deadline=None)
    @given(integer_matrices(), st.sampled_from([2, 7, linalg.PRIME]))
    def test_sources_are_independent_and_span(self, case, p):
        ncols, rows = case
        m = _matrix(rows, ncols)
        ech, sources = echelon_mod_p((m % p).astype(np.int64), p)
        r = len(ech)
        assert len(echelon_mod_p((m[sources] % p).astype(np.int64), p)[0]) == r
        stacked = np.vstack([ech, (m % p).astype(np.int64)])
        assert len(echelon_mod_p(stacked, p)[0]) == r
