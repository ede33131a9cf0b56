"""Tests for the brute-force graded-dimension oracle."""

import ast
import importlib
import inspect
import itertools
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import arrangement_kinds
from closed_form_reference import (
    QMatrix,
    annihilator,
    kernel,
    matvec,
    monomial_position,
    rank,
    rational_rref,
    reference_echelon_mod_p,
    reference_primitive_int_vector,
    span_of,
)
from strategies import arrangements
from subspace_hilbert import gpca, linalg, oracle
from subspace_hilbert.arrangement import (
    Arrangement,
    dimension_function,
    random_arrangement,
)
from subspace_hilbert.fixtures import fixture_arrangement, fixture_names
from subspace_hilbert.hilbert import hilbert_series_J, transversal_hilbert_function
from subspace_hilbert.linalg import (
    SubspaceBasis,
    certified_pivots,
    echelon_mod_p,
    kernel_leads,
    rank_mod_p,
    standard_columns_independent,
)
from subspace_hilbert.monomials import MonomialCapExceeded, exponents, monomial_cap, w_degrees
from subspace_hilbert.oracle import (
    GradedPieceResult,
    _adapted_coordinates,
    _flat_coordinates,
    _flat_jets,
    _flats,
    _restriction_matrix,
    _substitutions,
    _times_forms,
    _transposed,
    dim_intersection_ideal,
    dim_product_ideal,
    hilbert_table,
)
from subspace_hilbert.ratpoly import QPoly, binom, expand_rational


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


def large_entries() -> Arrangement:
    return Arrangement(
        3,
        [
            SubspaceBasis(3, [[10**9, 3, 7]]),
            SubspaceBasis(3, [[1, 2**40, 5], [0, 1, 3**30]]),
        ],
    )


def naive_dim_product(arr: Arrangement, idxs: tuple[int, ...], d: int) -> int:
    """Direct definition: rank of all products of chosen forms and monomials."""
    n = arr.ambient_dim
    k = len(idxs)
    if d < k:
        return 0
    basis_d = exponents(n, d)
    rows = []
    choices = itertools.product(*[annihilator(arr.subspaces[i]) for i in idxs])
    for forms in choices:
        for alpha in exponents(n, d - k):
            poly = {alpha: Fraction(1)}
            for f in forms:
                bumped: dict[tuple[int, ...], Fraction] = {}
                for exps, c in poly.items():
                    for j, fj in enumerate(f):
                        if fj:
                            key = exps[:j] + (exps[j] + 1,) + exps[j + 1 :]
                            bumped[key] = bumped.get(key, Fraction(0)) + c * fj
                poly = bumped
            row = [Fraction(0)] * len(basis_d)
            for exps, c in poly.items():
                row[monomial_position(exps)] = c
            rows.append(row)
    return rank(QMatrix(rows, ncols=len(basis_d)))


def python_products(basis: list[list[int]], forms: list[list[int]], n: int, e: int) -> list[list[int]]:
    """Rows f * b in Python ints, one block per form, over the degree-(e+1) monomials."""
    target = exponents(n, e + 1)
    rows = []
    for f in forms:
        for b in basis:
            row = [0] * len(target)
            for exps, x in zip(exponents(n, e), b):
                for j, c in enumerate(f):
                    row[monomial_position(exps[:j] + (exps[j] + 1,) + exps[j + 1 :])] += c * x
            rows.append(row)
    return rows


def substitution_images(basis: list[list[int]], n: int, d: int) -> list[dict]:
    """Image of every degree-d monomial under x = B^T u, by dict polynomials.

    The image of x^alpha is the product over j of (sum_k B[k][j] u_k)^alpha_j,
    expanded as a dict from exponent tuples in u to integer coefficients.
    """
    n_i = len(basis)
    linear_forms = [
        {tuple(int(k == t) for t in range(n_i)): basis[k][j] for k in range(n_i) if basis[k][j]}
        for j in range(n)
    ]

    def poly_mul(p, q):
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    images = []
    for exps in exponents(n, d):
        acc = {(0,) * n_i: 1}
        for j, e in enumerate(exps):
            for _ in range(e):
                acc = poly_mul(acc, linear_forms[j])
        images.append(acc)
    return images


def reference_restriction_rows(basis: list[list[int]], n: int, d: int) -> list[list[int]]:
    target = exponents(len(basis), d)
    rows = []
    for image in substitution_images(basis, n, d):
        row = [0] * len(target)
        for exps, c in image.items():
            row[monomial_position(exps)] = c
        rows.append(row)
    return rows


def substitution(rows: list[list[int]], n: int, f: int, k: int, d: int) -> np.ndarray:
    """The degree-d matrix of ``_substitutions``."""
    return next(itertools.islice(_substitutions(rows, n, f, k), d, None))


def int64_while_small(matrix: np.ndarray, rows: list[list[int]], n: int, d: int) -> bool:
    """int64 while top^d < 2^62, top the largest l1 norm of a column of the
    rows, and an object array from there on."""
    top = max((sum(abs(row[j]) for row in rows) for j in range(n)), default=0)
    return matrix.dtype == (np.int64 if top**d < 2**62 else object)


@st.composite
def integer_bases(draw, entry=st.integers(-9, 9)):
    """(n, rows): up to three integer rows of length n, not necessarily independent."""
    n = draw(st.integers(1, 4))
    vector = st.lists(entry, min_size=n, max_size=n)
    return n, draw(st.lists(vector, max_size=3))


def map_arrangement(arr: Arrangement, matrix: list[list[int]]) -> Arrangement:
    """The image of every subspace under x -> matrix x."""
    n = arr.ambient_dim
    m = QMatrix(matrix, ncols=n)
    subspaces = [SubspaceBasis(n, [matvec(m, v) for v in s.vectors]) for s in arr.subspaces]
    return Arrangement(n, subspaces)


@st.composite
def arrangements_with_ties(draw):
    """Arrangements in Q^1..Q^4 drawn from zero subspaces, hyperplanes,
    random spans and ties: another subspace of the largest dimension so far."""
    n = draw(st.integers(1, 4))
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    subspaces: list[SubspaceBasis] = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["zero", "hyperplane", "span", "tie"]))
        count = {
            "zero": 0,
            "hyperplane": n - 1,
            "span": draw(st.integers(0, n - 1)),
            "tie": max((t.dim for t in subspaces), default=0),
        }[kind]
        sub = span_of(n, draw(st.lists(vector, min_size=count, max_size=count)))
        assume(sub.dim == count)
        subspaces.append(sub)
    return Arrangement(n, subspaces)


# five planes in Q^4: on 11 of these 12 seeds, at p = 2^31 - 1 and at 7, the
# multiples of the carried leads miss above m and the chain rebuilds the span
five_planes_in_q4 = st.integers(0, 11).map(lambda seed: random_arrangement(4, [2] * 5, seed))


@st.composite
def pencils(draw, max_n: int = 4, max_m: int = 4):
    """m >= 2 subspaces through one common line, small integer entries."""
    n = draw(st.integers(2, max_n))
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    line = draw(vector.filter(any))
    subspaces = []
    for _ in range(draw(st.integers(2, max_m))):
        s = span_of(n, [line] + draw(st.lists(vector, max_size=n - 2)))
        assume(s.dim < n)
        subspaces.append(s)
    return Arrangement(n, subspaces)


@st.composite
def invertible_matrices(draw, n: int):
    entry = st.integers(-3, 3)
    matrix = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(rank(QMatrix(matrix, ncols=n)) == n)
    return matrix


class TestGradedPieceResult:
    def test_containment_enforced(self):
        GradedPieceResult(3, 7, 7)
        with pytest.raises(ValueError):
            GradedPieceResult(3, 6, 7)


class TestIntersectionIdeal:
    def test_three_lines_table(self):
        arr = coordinate_axes()
        values = [dim_intersection_ideal(arr, 0b111, d) for d in range(6)]
        assert values == [0, 0, 3, 7, 12, 18]

    def test_collinear_points_table(self):
        arr = coplanar_lines()
        assert dim_intersection_ideal(arr, 0b111, 1) == 1
        values = [dim_intersection_ideal(arr, 0b111, d) for d in range(6)]
        assert values == [0, 1, 3, 7, 12, 18]

    def test_empty_subset(self):
        arr = coordinate_axes()
        for d in range(5):
            assert dim_intersection_ideal(arr, 0, d) == binom(d + 2, 2)
            assert dim_intersection_ideal(arr, (), d) == binom(d + 2, 2)

    def test_singleton_restriction_surjective(self):
        rng = random.Random(1001)
        for _ in range(15):
            n = rng.randint(2, 4)
            dims = [rng.randint(0, n - 1) for _ in range(rng.randint(1, 3))]
            arr = random_arrangement(n, dims, rng.randint(0, 10**6))
            d = rng.randint(0, 4)
            for i, s in enumerate(arr.subspaces):
                expected = binom(d + n - 1, n - 1) - binom(d + s.dim - 1, s.dim - 1)
                if s.dim == 0:
                    expected = binom(d + n - 1, n - 1) - (1 if d == 0 else 0)
                assert dim_intersection_ideal(arr, 1 << i, d) == expected

    def test_monotone_in_subset(self):
        rng = random.Random(1002)
        for _ in range(8):
            n = rng.randint(2, 4)
            dims = [rng.randint(0, n - 1) for _ in range(3)]
            arr = random_arrangement(n, dims, rng.randint(0, 10**6))
            d = rng.randint(1, 4)
            size = 1 << 3
            values = {mask: dim_intersection_ideal(arr, mask, d) for mask in range(size)}
            for mask in range(size):
                for sub in range(size):
                    if sub & mask == sub:
                        assert values[mask] <= values[sub]

    def test_index_iterable_matches_mask(self):
        arr = pencil_planes()
        assert dim_intersection_ideal(arr, (0, 2), 3) == dim_intersection_ideal(
            arr, 0b101, 3
        )


class TestRestrictionMatrix:
    @settings(max_examples=60, deadline=None)
    @given(integer_bases(), st.integers(0, 4))
    def test_matches_dict_substitution(self, case, d):
        n, basis = case
        matrix = _restriction_matrix(basis, n, d)
        assert matrix.shape == (len(exponents(n, d)), len(exponents(len(basis), d)))
        assert matrix.tolist() == reference_restriction_rows(basis, n, d)

    @settings(max_examples=60, deadline=None)
    @given(
        integer_bases(st.one_of(st.integers(-9, 9), st.integers(-(2**64), 2**64))),
        st.integers(0, 4),
    )
    @example((3, []), 2)
    @example((2, [[2**62, 1], [3, -(2**62)]]), 1)
    def test_keeping_every_column_is_the_dict_substitution(self, case, d):
        # f = r: the builder keeps every column, exactly, past 2^62 too
        n, basis = case
        matrix = substitution(basis, n, len(basis), 1, d)
        assert int64_while_small(matrix, basis, n, d)
        assert matrix.tolist() == reference_restriction_rows(basis, n, d)

    def test_zero_subspace(self):
        assert _restriction_matrix([], 3, 0).tolist() == [[1]]
        assert _restriction_matrix([], 3, 2).shape == (6, 0)

    def test_object_path_past_int64(self):
        basis = [[1 << 31, 1, 0], [3, -(1 << 31), 5]]
        for d in (1, 2, 3):
            matrix = _restriction_matrix(basis, 3, d)
            assert matrix.dtype == (object if d >= 2 else np.int64)
            assert matrix.tolist() == reference_restriction_rows(basis, 3, d)


class TestProductIdeal:
    def test_three_lines_values(self):
        arr = coordinate_axes()
        assert dim_product_ideal(arr, 0b111, 3) == 7
        assert dim_product_ideal(arr, 0b111, 4) == 12
        assert dim_product_ideal(arr, 0b111, 5) == 18

    def test_below_generation_degree(self):
        arr = coordinate_axes()
        for d in range(3):
            assert dim_product_ideal(arr, 0b111, d) == 0

    def test_singleton_degree_one(self):
        rng = random.Random(1003)
        for _ in range(10):
            n = rng.randint(2, 5)
            dims = [rng.randint(0, n - 1) for _ in range(rng.randint(1, 3))]
            arr = random_arrangement(n, dims, rng.randint(0, 10**6))
            for i in range(arr.num_subspaces):
                assert dim_product_ideal(arr, 1 << i, 1) == arr.singleton_codims[i]

    def test_contained_in_intersection(self):
        rng = random.Random(1004)
        for _ in range(10):
            n = rng.randint(2, 4)
            dims = [rng.randint(0, n - 1) for _ in range(rng.randint(1, 3))]
            arr = random_arrangement(n, dims, rng.randint(0, 10**6))
            full = (1 << arr.num_subspaces) - 1
            for d in range(0, arr.num_subspaces + 3):
                assert dim_product_ideal(arr, full, d) <= dim_intersection_ideal(
                    arr, full, d
                )

    def test_matches_naive_span(self):
        rng = random.Random(1005)
        for _ in range(8):
            n = rng.randint(2, 3)
            m = rng.randint(1, 2)
            dims = [rng.randint(0, n - 1) for _ in range(m)]
            arr = random_arrangement(n, dims, rng.randint(0, 10**6))
            idxs = tuple(range(m))
            for d in range(m, m + 3):
                assert dim_product_ideal(arr, idxs, d) == naive_dim_product(
                    arr, idxs, d
                )

    def test_matches_closed_form_series(self):
        rng = random.Random(1006)
        for _ in range(12):
            n = rng.randint(2, 4)
            m = rng.randint(1, 3)
            dims = [rng.randint(0, n - 1) for _ in range(m)]
            arr = random_arrangement(n, dims, rng.randint(0, 10**6))
            hs = hilbert_series_J(dimension_function(arr))
            coeffs = hs.coefficients(m + 3)
            full = (1 << m) - 1
            for d in range(0, m + 4):
                assert dim_product_ideal(arr, full, d) == coeffs[d]

    def test_large_entries_match_naive_span(self):
        # products pass the int64 bound, so the factor steps run on object rows
        arr = large_entries()
        for d in range(2, 5):
            assert dim_product_ideal(arr, (0, 1), d) == naive_dim_product(arr, (0, 1), d)

    def test_kept_rows_past_int64_stack_exactly(self, monkeypatch):
        # the lines through (t, 1) are cut out by -x + t*y; the kept product
        # of the first two forms has the entry t1*t2 in [2^63, 2^64), which
        # np.vstack of the rows would make float64 or uint64
        t1, t2 = (1 << 32) + 1, (1 << 31) + 1
        arr = Arrangement(2, [SubspaceBasis(2, [(t, 1)]) for t in (t1, t2, 3)])
        bases, times_forms = [], oracle._times_forms

        def spy(basis, forms, n, e):
            bases.append(basis)
            return times_forms(basis, forms, n, e)

        monkeypatch.setattr(oracle, "_times_forms", spy)
        assert dim_product_ideal(arr, 0b111, 3) == 1
        assert bases[-1].dtype == object
        assert sorted(map(abs, bases[-1].tolist()[0])) == [1, t1 + t2, t1 * t2]

    def test_subset_matches_subarrangement_series(self):
        arr = pencil_planes()
        sub = Arrangement(4, [arr.subspaces[0], arr.subspaces[2]])
        hs = hilbert_series_J(dimension_function(sub))
        coeffs = hs.coefficients(5)
        for d in range(6):
            assert dim_product_ideal(arr, 0b101, d) == coeffs[d]


class TestHilbertTable:
    def test_three_lines(self):
        results = hilbert_table(coordinate_axes(), 5)
        assert [r.dim_I for r in results] == [0, 0, 3, 7, 12, 18]
        assert [r.dim_J for r in results] == [0, 0, 0, 7, 12, 18]

    def test_pencil_matches_series_expansions(self):
        results = hilbert_table(pencil_planes(), 5)
        expected_I = expand_rational(QPoly.of(0, 1, 0, 1, -1), 4, 5)
        expected_J = expand_rational(QPoly.of(0, 0, 0, 7, -9, 3), 4, 5)
        assert [r.dim_I for r in results] == list(expected_I)
        assert [r.dim_J for r in results] == list(expected_J)
        assert [r.dim_I for r in results] == [0, 1, 4, 11, 23, 41]

    def test_axis_planes_matches_series_expansion(self):
        results = hilbert_table(axis_planes(), 5)
        expected_I = expand_rational(QPoly.of(0, 0, 3, -2), 4, 5)
        assert [r.dim_I for r in results] == list(expected_I)
        assert results[2].dim_I == 3

    def test_univariate_maximal_ideal(self):
        arr = Arrangement(1, [SubspaceBasis(1)])
        results = hilbert_table(arr, 2)
        assert [r.dim_I for r in results] == [0, 1, 1]
        assert [r.dim_J for r in results] == [0, 1, 1]

    def test_transversal_equality_from_m(self):
        results = hilbert_table(coordinate_axes(), 5)
        for r in results[3:]:
            assert r.dim_I == r.dim_J

    def test_cap_enforced(self, monkeypatch):
        # degree 5 in Q^3 has 21 monomials: a cap of 20 stops, 21 passes
        monkeypatch.setenv("SUBSPACE_HILBERT_MONOMIAL_CAP", "20")
        with pytest.raises(MonomialCapExceeded):
            hilbert_table(coordinate_axes(), 5)
        monkeypatch.setenv("SUBSPACE_HILBERT_MONOMIAL_CAP", "21")
        assert len(hilbert_table(coordinate_axes(), 5)) == 6

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("SUBSPACE_HILBERT_MONOMIAL_CAP", "10")
        with pytest.raises(MonomialCapExceeded):
            hilbert_table(coordinate_axes(), 5)

    @pytest.mark.parametrize("raw", ["abc", "-5", "1e3", " 5", "1_000", "\uff15", "7\n", "+3"])
    def test_bad_cap_env_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("SUBSPACE_HILBERT_MONOMIAL_CAP", raw)
        with pytest.raises(ValueError) as info:
            monomial_cap()
        assert "SUBSPACE_HILBERT_MONOMIAL_CAP" in str(info.value)
        assert repr(raw) in str(info.value)
        with pytest.raises(ValueError):
            hilbert_table(coordinate_axes(), 2)

    def test_transversal_formula_agreement(self):
        arr = coplanar_lines()
        results = hilbert_table(arr, 5)
        for d in range(3, 6):
            assert results[d].dim_I == transversal_hilbert_function([2, 2, 2], 3, d)
            assert results[d].dim_J == transversal_hilbert_function([2, 2, 2], 3, d)


class TestCertifiedTable:
    @pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
    @settings(max_examples=40, deadline=None)
    @given(arr=st.one_of(arrangements(), arrangements_with_ties(), pencils()))
    def test_matches_exact_functions(self, p, arr):
        d_max = arr.num_subspaces + 2
        records = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "PRIME", p)
            spied_standard_rows(mp, records, arr, d_max)
            table = hilbert_table(arr, d_max)
        full = (1 << arr.num_subspaces) - 1
        exact = [
            (dim_intersection_ideal(arr, full, d), dim_product_ideal(arr, full, d))
            for d in range(d_max + 1)
        ]
        assert [(r.dim_I, r.dim_J) for r in table] == exact
        # standard rows independent beside the blocks alone prove dim I_d,
        # beside the jets too dim J_d, equal to the lead count
        blocks = restriction_widths(arr, d_max)
        for d, width, count, independent in records:
            if independent:
                assert count == exact[d][0 if width == blocks[d] else 1]
        # the bracket in the adapted coordinates is sound at every prime
        for d, (dim_I, dim_J) in enumerate(exact):
            upper_I, upper_J = adapted_bounds(arr, d, p)
            assert upper_I >= dim_I and upper_J >= dim_J

    def test_large_entries(self):
        # restriction matrices on object arrays, reduced mod p before the rank
        arr = large_entries()
        table = hilbert_table(arr, 5)
        assert [(r.dim_I, r.dim_J) for r in table] == [
            (dim_intersection_ideal(arr, 3, d), dim_product_ideal(arr, 3, d))
            for d in range(6)
        ]

    def test_one_variable_to_degree_10000(self):
        # the zero subspace of Q^1: one monomial per degree, which lies in
        # I = J = (x) from degree 1 on
        arr = Arrangement(1, [SubspaceBasis(1, [])])
        table = hilbert_table(arr, 10000)
        assert [(r.dim_I, r.dim_J) for r in table] == [(0, 0)] + [(1, 1)] * 10000

    def test_products_mod_p_match_python_ints(self):
        # entries p - 1 times form coefficients -1 and 2: exact int64
        # products, reduced mod p before the one elimination of the chain
        p, n, e = oracle.PRIME, 5, 4
        rng = random.Random(1007)
        width = len(exponents(n, e))
        basis = [[p - 1] * width] + [[rng.randrange(p) for _ in range(width)] for _ in range(2)]
        forms = [[-1, -1, -1, 0, 2], [0, -1, -1, -1, -1]]
        exact = python_products(basis, forms, n, e)
        expected, _ = echelon_mod_p(np.array([[x % p for x in row] for row in exact]), p)
        products = _times_forms(np.array(basis, dtype=np.int64), forms, n, e)
        assert products.dtype == np.int64 and products.tolist() == exact
        got, _ = echelon_mod_p((products % p).astype(np.int64), p)
        assert len(got) == len(expected) == 3 * len(forms)
        assert len(echelon_mod_p(np.vstack([got, expected]), p)[0]) == len(got)

    def test_products_past_int64_are_python_ints(self):
        # n * max|basis| * max|c| = 3 * 2^41 * 2^22 passes 2^62, and single
        # products 2^41 * 2^22 = 2^63 already wrap int64
        n, e = 3, 2
        basis = [[2**41, -1, 0, 3, 0, 2**41 - 5], [1, 2, 3, 4, 5, -(2**41)]]
        forms = [[2**22, -1, 0], [0, 3, -(2**22)], [1, 1, 1]]
        got = _times_forms(np.array(basis, dtype=np.int64), forms, n, e)
        assert got.dtype == object
        assert got.tolist() == python_products(basis, forms, n, e)

    @staticmethod
    def _table_and_fallbacks(monkeypatch, name):
        arr = fixture_arrangement(name)
        full = (1 << arr.num_subspaces) - 1
        expected = [
            (dim_intersection_ideal(arr, full, d), dim_product_ideal(arr, full, d))
            for d in range(6)
        ]
        degree_of = degrees_by_kept_rows(arr, 5)
        closings, exact_J = [], []

        def spy_J(a, S, d):
            exact_J.append(d)
            return dim_product_ideal(a, S, d)

        spied_closings(monkeypatch, closings)
        monkeypatch.setattr(oracle, "dim_product_ideal", spy_J)
        table = hilbert_table(arr, 5)
        assert [(r.dim_I, r.dim_J) for r in table] == expected
        return {
            "bracket": [degree_of[h] for h, _, _ in closings],
            "I": [degree_of[h] for h, lifted, _ in closings if lifted],
            "J": exact_J,
        }

    # the degrees whose blocks are ranked whole (``certified_pivots``):
    # those without a chain, and those where the chain falls short of U_I;
    # the others close by the standard rows, I there by the lead count.  The
    # exact degrees are those where it lifted past its first prime
    BRACKET = {
        # the I chain starts at the exact kernel of degree 1 and fills
        # degree 2, not 3 = m, which restarts it
        "three-pencil-planes": [0, 1, 3],
        # below m neither chain has started; from m on J's leads fill I
        "three-coordinate-axes": [0, 1, 2],
    }

    @pytest.mark.parametrize(
        "name, exact_I, exact_J",
        [
            # I and J differ in every positive degree: J closes by the
            # standard rows beside the jets from m on and is 0 below; I falls
            # back where the multiples of the last exact kernel fall short
            ("three-pencil-planes", [1, 3], []),
            # full column rank certifies I below m, where J is 0
            ("three-coordinate-axes", [], []),
        ],
    )
    def test_fallback_degrees(self, monkeypatch, name, exact_I, exact_J):
        calls = self._table_and_fallbacks(monkeypatch, name)
        assert calls == {"bracket": self.BRACKET[name], "I": exact_I, "J": exact_J}

    @pytest.mark.parametrize(
        "name, exact_I, exact_J",
        [
            ("three-pencil-planes", [1, 3], [3, 4, 5]),
            ("three-coordinate-axes", [], []),
        ],
    )
    def test_fallback_degrees_with_the_bound_open(self, monkeypatch, name, exact_I, exact_J):
        # without flats the jets are empty, and the standard rows of J's
        # leads beside the blocks alone are dependent wherever L_J < dim I_d,
        # which sends J back to the exact route, with the same table; below
        # m J is still 0
        monkeypatch.setattr(oracle, "_flats", lambda forms, n: {})
        calls = self._table_and_fallbacks(monkeypatch, name)
        assert calls == {"bracket": self.BRACKET[name], "I": exact_I, "J": exact_J}


def spied_closings(mp, records: list) -> None:
    """Record (h, lifted, result) for every ``certified_pivots`` call of
    ``hilbert_table``: the number of rows of the restriction blocks it
    ranks (the columns of their transpose), whether it lifted past its first
    prime, and its rank and pivots."""
    lifts, real_lifts, real_pivots = [], linalg._lifts, linalg.certified_pivots

    def lifts_spy(*args):
        lifts.append(None)
        return real_lifts(*args)

    def spy(matrix):
        before = len(lifts)
        result = real_pivots(matrix)
        records.append((matrix.shape[1], len(lifts) > before, result))
        return result

    mp.setattr(linalg, "_lifts", lifts_spy)
    mp.setattr(linalg, "certified_pivots", spy)


def _rank_side_by_side(matrices: list[np.ndarray], p: int) -> int:
    """rank_p of the integer matrices placed side by side."""
    return rank_mod_p(np.hstack(matrices), p) if matrices else 0


def adapted_bounds(arr: Arrangement, d: int, p: int) -> tuple[int, int]:
    """U_I and U_J of degree d mod p as ``hilbert_table`` forms them once
    the jets have started: in the adapted coordinates, on the rows of
    positive w-degree, and U_J = 0 below m."""
    n = arr.ambient_dim
    s, k, rows, forms = _adapted_coordinates(arr)
    kept = w_degrees(n, d, k) >= 1
    blocks = [_restriction_matrix(r, n, d)[kept] for i, r in enumerate(rows) if i != s]
    blocks = [b for b in blocks if b.shape[1]]
    height = int(kept.sum())
    jets = [j[kept] for j in next(itertools.islice(_flat_jets(forms, n), d, None))]
    rank_I, rank_J = _rank_side_by_side(blocks, p), _rank_side_by_side(blocks + jets, p)
    return height - rank_I, height - rank_J if d >= arr.num_subspaces else 0


def product_bound(arr: Arrangement, d: int, p: int) -> int:
    """U_J of degree d mod p as ``hilbert_table`` forms it."""
    return adapted_bounds(arr, d, p)[1]


def degrees_by_kept_rows(arr: Arrangement, d_max: int) -> dict[int, int]:
    """Degree d <= d_max by the number of rows ``hilbert_table`` ranks in it,
    the monomials of positive w-degree; one-to-one for degrees d >= 1 when
    the largest subspace is proper."""
    n, k = arr.ambient_dim, _adapted_coordinates(arr)[1]
    return {
        len(exponents(n, d)) - len(exponents(k, d)): d
        for d in range(d_max + 1)
    }


def forms_of(arr: Arrangement) -> list:
    return [s.annihilator_forms for s in arr.subspaces]


def reference_flats(arr: Arrangement) -> dict:
    """V_A for every nonempty mask A, by rational RREF of the stacked forms,
    keyed by its primitive rows, with the largest |A| giving it; k >= 2 kept."""
    m, n = arr.num_subspaces, arr.ambient_dim
    best: dict = {}
    for mask in range(1, 1 << m):
        forms = [f for i in range(m) if mask >> i & 1 for f in annihilator(arr.subspaces[i])]
        reduced, pivots = rational_rref(QMatrix(forms, ncols=n))
        key = tuple(
            tuple(reference_primitive_int_vector(row))
            for row in reduced.entries[: len(pivots)]
        )
        best[key] = max(best.get(key, 0), bin(mask).count("1"))
    return {key: k for key, k in best.items() if k >= 2}


def w_degree_columns(n: int, f: int, d: int, k: int) -> list[int]:
    return [
        c for c, exps in enumerate(exponents(n, d)) if sum(exps[f:]) < k
    ]


class TestProductBound:
    @pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
    @settings(max_examples=30, deadline=None)
    @given(arr=arrangements())
    def test_bounds_dim_J_on_arrangements(self, p, arr):
        full = (1 << arr.num_subspaces) - 1
        for d in range(arr.num_subspaces + 3):
            assert product_bound(arr, d, p) >= dim_product_ideal(arr, full, d)

    @pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
    @settings(max_examples=25, deadline=None)
    @given(arr=pencils())
    def test_bounds_dim_J_on_pencils(self, p, arr):
        full = (1 << arr.num_subspaces) - 1
        for d in range(arr.num_subspaces, arr.num_subspaces + 3):
            assert product_bound(arr, d, p) >= dim_product_ideal(arr, full, d)

    @pytest.mark.parametrize("name", fixture_names())
    def test_equal_at_prime_on_the_fixtures(self, name):
        arr = fixture_arrangement(name)
        full = (1 << arr.num_subspaces) - 1
        for d in range(arr.num_subspaces + 4):
            assert product_bound(arr, d, oracle.PRIME) == dim_product_ideal(arr, full, d)

    @pytest.mark.parametrize(
        "n, dims, seed",
        [(3, [1, 2, 1], 11), (4, [2, 1, 3], 12), (4, [3, 3, 2, 1], 13), (5, [3, 1, 2, 3], 14)],
    )
    def test_equal_at_prime_on_pencils(self, n, dims, seed):
        arr = arrangement_kinds.pencil(n, dims, seed)
        full = (1 << arr.num_subspaces) - 1
        for d in range(arr.num_subspaces + 3):
            assert product_bound(arr, d, oracle.PRIME) == dim_product_ideal(arr, full, d)

    @pytest.mark.parametrize(
        "name, built",
        [
            # I = J from m on: below m J is 0 without any jets
            ("three-coordinate-axes", 0),
            ("three-coplanar-lines", 0),
            # I and J differ from m on: the flats are found once
            ("three-axis-planes", 1),
            ("three-pencil-planes", 1),
        ],
    )
    def test_jets_are_built_only_where_needed(self, monkeypatch, name, built):
        calls = []

        def spy(forms, n):
            calls.append(forms)
            return _flats(forms, n)

        monkeypatch.setattr(oracle, "_flats", spy)
        hilbert_table(fixture_arrangement(name), 7)
        assert len(calls) == built

    def test_a_small_prime_leaves_it_open_and_the_table_falls_back(self, monkeypatch):
        # three copies of the line through (1, 2) become three copies of the
        # first axis in the adapted coordinates, which close mod 2 ...
        line = SubspaceBasis(2, [[1, 2]])
        assert product_bound(Arrangement(2, [line] * 3), 3, 2) == 1
        # ... but beside the first axis, kept as it is, the flat of the two
        # lines has coordinates (1, 2), (1, 0) of determinant -2, singular mod 2
        arr = Arrangement(2, [SubspaceBasis(2, [[1, 0]]), line, line])
        assert _adapted_coordinates(arr)[2] == [[[1, 0]], [[1, 2]], [[1, 2]]]
        assert product_bound(arr, 3, 2) > dim_product_ideal(arr, 0b111, 3) == 1
        calls = []

        def spy(a, S, d):
            calls.append(d)
            return dim_product_ideal(a, S, d)

        monkeypatch.setattr(oracle, "PRIME", 2)
        monkeypatch.setattr(oracle, "dim_product_ideal", spy)
        table = hilbert_table(arr, 5)
        assert [r.dim_J for r in table] == [dim_product_ideal(arr, 0b111, d) for d in range(6)]
        assert 3 in calls


@st.composite
def blocks_and_jets(draw):
    """(p, blocks, jets): integer matrices on a common number of rows, as
    object arrays with some entries past 2^31; zero rows, zero widths, no
    blocks or no jets, wide and tall stacks."""
    p = draw(st.sampled_from([2, 3, 7, 2**31 - 1]))
    h = draw(st.integers(0, 8))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40))

    def matrices(max_size):
        out = []
        for w in draw(st.lists(st.integers(0, 6), max_size=max_size)):
            rows = draw(st.lists(st.lists(entry, min_size=w, max_size=w), min_size=h, max_size=h))
            out.append(np.array(rows, dtype=object).reshape(h, w))
        return out

    return p, matrices(3), matrices(3)


def _rank_by_rows(blocks: list[np.ndarray], p: int) -> int:
    """rank_p of the blocks side by side, eliminating the transpose."""
    if not blocks:
        return 0
    return len(reference_echelon_mod_p((np.hstack(blocks).T % p).astype(np.int64), p)[0])


class TestRanksModP:
    @settings(max_examples=200, deadline=None)
    @given(blocks_and_jets())
    def test_equal_the_rank_of_the_transpose(self, case):
        p, blocks, jets = case
        assert _rank_side_by_side(blocks + jets, p) == _rank_by_rows(blocks + jets, p)

    @pytest.mark.parametrize(
        "arr, d_max",
        [
            (fixture_arrangement("three-pencil-planes"), 7),
            (arrangement_kinds.pencil(5, [3, 1, 2, 3], 14), 7),
        ],
        ids=["three-pencil-planes", "Q^5 pencil [3,1,2,3]"],
    )
    def test_one_bracket_elimination_per_degree_once_the_jets_start(
        self, monkeypatch, arr, d_max
    ):
        # the jets start at m, where I and J first differ: from there every
        # degree eliminates the blocks beside the jets once, for U_J, and
        # none before; the jets are nonzero here, so a transpose with more
        # rows than the restriction blocks' width holds jets
        m = arr.num_subspaces
        degree_of = degrees_by_kept_rows(arr, d_max)
        width = restriction_widths(arr, d_max)
        standard_columns = oracle.standard_columns_independent
        eliminations = [0] * (d_max + 1)

        def spy(matrix, heads, p):
            d = degree_of[matrix.shape[1]]
            if len(matrix) > width[d]:
                eliminations[d] += 1
            return standard_columns(matrix, heads, p)

        monkeypatch.setattr(oracle, "standard_columns_independent", spy)
        table = hilbert_table(arr, d_max)
        assert [r.dim_J < r.dim_I for r in table].index(True, m) == m
        assert eliminations == [0] * m + [1] * (d_max + 1 - m)


def restriction_widths(arr: Arrangement, d_max: int) -> list[int]:
    """The width of the restriction blocks ``hilbert_table`` ranks in each
    degree d <= d_max: those of every subspace but the largest."""
    s, _, rows, _ = _adapted_coordinates(arr)
    return [
        sum(len(exponents(len(r), d)) for i, r in enumerate(rows) if i != s)
        for d in range(d_max + 1)
    ]


def spied_standard_rows(mp, records: list, arr: Arrangement, d_max: int) -> None:
    """Record (degree, width, leads, independent) for every standard-rows
    test of ``hilbert_table`` up to d_max, its own for J and those inside
    ``kernel_leads`` for I: the width is the rows of the transposed blocks,
    and the degree is read off the monomials they keep (``degrees_by_kept_rows``)."""
    degree_of = degrees_by_kept_rows(arr, d_max)
    standard_columns = linalg.standard_columns_independent

    def spy(matrix, heads, p):
        independent = standard_columns(matrix, heads, p)
        records.append((degree_of[matrix.shape[1]], len(matrix), len(heads), independent))
        return independent

    mp.setattr(oracle, "standard_columns_independent", spy)
    mp.setattr(linalg, "standard_columns_independent", spy)


class TestStandardRows:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_independent_exactly_when_the_leads_are_every_kernel_lead(self, data):
        # leads drawn among the leading rows of the kernel mod p, as a chain
        # finds them: the rows off them are independent exactly when they
        # are all of them; row i of the blocks is column h - 1 - i of their
        # transpose
        p, blocks, jets = data.draw(blocks_and_jets())
        matrices = blocks + jets
        assume(matrices)
        rows = np.hstack(matrices)
        h = len(rows)
        kernel = [
            i for i in range(h) if _rank_of_rows(rows[i:], p) == _rank_of_rows(rows[i + 1 :], p)
        ]
        leads = data.draw(st.lists(st.sampled_from(kernel), unique=True) if kernel else st.just([]))
        heads = h - 1 - np.array(leads, dtype=np.intp)
        independent = standard_columns_independent(_transposed(matrices, h), heads, p)
        assert independent == (len(leads) == len(kernel) == h - _rank_by_rows(matrices, p))

    @pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
    @settings(max_examples=30, deadline=None)
    @given(case=blocks_and_jets(), given_heads=st.sampled_from(["all", "one missing", "none"]))
    def test_kernel_leads(self, p, case, given_heads):
        # heads that lead kernel forms over Q: all of them close the kernel
        # where the standard columns are independent mod p, and come back
        # as they are; one missing, or none given, the matrix is ranked
        # whole, and proven pivots leave the same leads.  A column leads a
        # kernel form exactly when it depends on the columns left of it
        _, blocks, jets = case
        matrices = blocks + jets
        assume(matrices)
        rows = np.hstack(matrices)
        h = len(rows)
        leads = [c for c in range(h) if _rank_Q(rows[: c + 1]) == _rank_Q(rows[:c])]
        heads = None if given_heads == "none" else np.array(leads, dtype=np.intp)
        if given_heads == "one missing":
            assume(leads)
            heads = np.delete(heads, len(leads) // 2)
        nullity, got = kernel_leads(rows.T, heads, p)
        assert nullity == len(leads) == h - _rank_Q(rows)
        closed = heads is not None and standard_columns_independent(rows.T, heads, p)
        assert (heads is not None and got is heads) == closed
        assert given_heads == "all" or not closed
        assert got is None or got.tolist() == leads


def _rank_Q(rows: np.ndarray) -> int:
    """Rank over Q of an integer matrix, by the reference rational RREF."""
    return rank(QMatrix(rows.tolist(), ncols=rows.shape[1])) if len(rows) else 0


class TestFlats:
    @settings(max_examples=80, deadline=None)
    @given(arr=arrangements(max_m=4))
    def test_match_every_mask(self, arr):
        assert _flats(forms_of(arr), arr.ambient_dim) == reference_flats(arr)

    @pytest.mark.parametrize(
        "vectors, expected",
        [
            # the zero subspace lies in every member
            ([[[1, 0, 0]], [], [[0, 1, 0]]], {((1, 0, 0), (0, 1, 0), (0, 0, 1)): 3}),
            # a repeated line is one flat of multiplicity 2
            ([[[1, 2, 0]], [[1, 2, 0]]], {((2, -1, 0), (0, 0, 1)): 2}),
            # a line inside a plane, both inside a second plane
            (
                [[[1, 0, 0]], [[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 1]]],
                {((0, 1, 0), (0, 0, 1)): 3},
            ),
        ],
    )
    def test_zero_repeated_and_nested(self, vectors, expected):
        arr = Arrangement(3, [SubspaceBasis(3, v) for v in vectors])
        assert _flats(forms_of(arr), 3) == expected == reference_flats(arr)


@st.composite
def coordinate_rows(draw):
    """(rows, n, f, k, d): r integer rows of length n, not necessarily a
    basis, some entries past 2^31, with 0 <= f <= r, k >= 1 and a degree d."""
    n, r = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    entry = st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    return rows, n, draw(st.integers(0, r)), draw(st.integers(1, 3)), draw(st.integers(0, 4))


class TestJets:
    @settings(max_examples=60, deadline=None)
    @given(arr=arrangements())
    def test_flat_coordinates(self, arr):
        n = arr.ambient_dim
        for s in arr.subspaces:
            rows, f = _flat_coordinates(s.annihilator_forms, n)
            assert f == s.dim and rank(QMatrix(rows, ncols=n)) == n
            assert all(sum(a * b for a, b in zip(form, v)) == 0
                       for form in s.annihilator_forms for v in rows[:f])
            given_rows = _flat_coordinates(s.annihilator_forms, n, s.integer_rows)
            assert given_rows == (list(map(list, s.integer_rows)) + rows[f:], f)

    @settings(max_examples=60, deadline=None)
    @given(arr=arrangements(), d=st.integers(0, 4))
    def test_order_one_jets_have_the_restriction_kernel(self, arr, d):
        p, n = oracle.PRIME, arr.ambient_dim
        for s in arr.subspaces:
            rows, f = _flat_coordinates(s.annihilator_forms, n)
            jet = substitution(rows, n, f, 1, d)
            restriction = _restriction_matrix(s.integer_rows, n, d)
            both = np.hstack([jet, restriction])
            assert _rank_p(jet, p) == _rank_p(restriction, p) == _rank_p(both, p)

    @settings(max_examples=100, deadline=None)
    @given(case=coordinate_rows())
    def test_truncated_jets_are_the_low_columns_of_the_substitution(self, case):
        rows, n, f, k, d = case
        jet = substitution(rows, n, f, k, d)
        full = reference_restriction_rows(rows, n, d)
        columns = w_degree_columns(len(rows), f, d, k)
        assert int64_while_small(jet, rows, n, d)
        assert jet.tolist() == [[row[c] for c in columns] for row in full]

    def test_entries_past_int64(self):
        rows = [[2**40 + 3, -(2**41), 5], [7, 2**40 - 1, -3], [1, 1, 2**39]]
        full = reference_restriction_rows(rows, 3, 3)
        assert max(abs(x) for row in full for x in row) > 2**63
        jet = substitution(rows, 3, 1, 2, 3)
        columns = w_degree_columns(3, 1, 3, 2)
        assert jet.dtype == object
        assert jet.tolist() == [[row[c] for c in columns] for row in full]


class TestAdaptedCoordinates:
    @settings(max_examples=80, deadline=None)
    @given(arr=arrangements_with_ties())
    def test_the_largest_subspace_becomes_the_first_axes(self, arr):
        n = arr.ambient_dim
        s, k, rows, forms = _adapted_coordinates(arr)
        dims = [sub.dim for sub in arr.subspaces]
        assert dims[s] == k == max(dims) and k not in dims[:s]
        assert rows[s] == np.eye(n, dtype=int)[:k].tolist()
        assert all(f[:k] == (0,) * k for f in forms[s])
        # with M the rows of V_s, then the unit vectors at the pivot columns
        # of its forms, x = M^T y takes adapted coordinates y back, up to a
        # scale: the rows to V_i, and a form f of V_i to the adapted form M f
        _, pivots = rational_rref(QMatrix(arr.subspaces[s].annihilator_forms, ncols=n))
        units = np.eye(n, dtype=int)[list(pivots)].tolist()
        basis = [*arr.subspaces[s].integer_rows, *units]
        assert rank(QMatrix(basis, ncols=n)) == n
        back = QMatrix(list(zip(*basis)), ncols=n)
        for sub, r, fs in zip(arr.subspaces, rows, forms):
            assert len(r) == sub.dim and len(fs) == n - sub.dim
            assert all(list(v) == reference_primitive_int_vector(v) for v in [*r, *fs])
            assert all(sum(a * b for a, b in zip(g, v)) == 0 for g in fs for v in r)
            mapped = [matvec(back, v) for v in r]
            assert rank(QMatrix([*mapped, *sub.integer_rows], ncols=n)) == sub.dim
            pulled = [matvec(QMatrix(basis, ncols=n), g) for g in sub.annihilator_forms]
            assert rank(QMatrix([*pulled, *fs], ncols=n)) == n - sub.dim

    def test_ties_take_the_first_largest(self):
        vectors = [[[1, 1, 1]], [[1, 0, 2], [0, 1, 3]], [[1, 0, 0], [0, 1, 0]]]
        arr = Arrangement(3, [SubspaceBasis(3, v) for v in vectors])
        s, k, rows, forms = _adapted_coordinates(arr)
        assert (s, k) == (1, 2)
        assert rows[1] == [[1, 0, 0], [0, 1, 0]] and forms[1] == ((0, 0, 1),)

    @settings(max_examples=80, deadline=None)
    @given(arr=arrangements_with_ties())
    def test_forms_are_primitive_with_distinct_leading_variables(self, arr):
        for fs in _adapted_coordinates(arr)[3]:
            assert all(list(f) == reference_primitive_int_vector(f) for f in fs)
            leads = [next(j for j, c in enumerate(f) if c) for f in fs]
            assert leads == sorted(set(leads))

    def test_forms_of_a_line_get_distinct_leading_variables(self):
        # the line cut out by three forms that all lead with x_1: its
        # adapted forms lead with three different variables
        line = kernel(QMatrix([(1, 1, 0, 2), (1, -1, 3, 0), (2, 0, 1, 1)], ncols=4))
        plane = SubspaceBasis(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        fs = _adapted_coordinates(Arrangement(4, [plane, line]))[3][1]
        assert [next(j for j, c in enumerate(f) if c) for f in fs] == [0, 1, 2]


class TestAdaptedTable:
    # hypothesis arrangements with ties, hyperplanes and zero subspaces run
    # through TestCertifiedTable.test_matches_exact_functions

    @pytest.mark.parametrize(
        "n, vectors",
        [
            # Q^1: only the zero subspace, once and twice
            (1, [[]]),
            (1, [[], []]),
            # a zero subspace beside lines
            (3, [[], [[1, 2, 3]], [[0, 1, -1]]]),
            # hyperplanes, two of them equal
            (3, [[[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1]]]),
            # ties for the largest dimension, in front of and after a line
            (4, [[[1, 0, 2, 0], [0, 1, 0, 3]], [[1, 1, 1, 1]], [[2, 1, 0, 0], [0, 0, 1, 5]]]),
        ],
    )
    def test_matches_exact_functions_on_edge_cases(self, n, vectors):
        arr = Arrangement(n, [SubspaceBasis(n, v) for v in vectors])
        d_max = arr.num_subspaces + 3
        full = (1 << arr.num_subspaces) - 1
        assert [(r.dim_I, r.dim_J) for r in hilbert_table(arr, d_max)] == [
            (dim_intersection_ideal(arr, full, d), dim_product_ideal(arr, full, d))
            for d in range(d_max + 1)
        ]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_invariant_under_a_change_of_coordinates(self, data):
        arr = data.draw(arrangements_with_ties())
        moved = map_arrangement(arr, data.draw(invertible_matrices(arr.ambient_dim)))
        d_max = arr.num_subspaces + 2
        assert hilbert_table(moved, d_max) == hilbert_table(arr, d_max)


def _rank_p(m: np.ndarray, p: int) -> int:
    return len(echelon_mod_p((m % p).astype(np.int64), p)[0])


def _first_nonzero(m: np.ndarray) -> list[int]:
    return (m != 0).argmax(axis=1).tolist()


def materialized_chain(arr: Arrangement, d_max: int, p: int):
    """The GF(p) spans of ``hilbert_table``'s J chain in degrees 0..d_max,
    every degree's products built, reduced mod p and eliminated: the
    reference for the leading columns the table carries instead."""
    n, m = arr.ambient_dim, arr.num_subspaces
    forms = _adapted_coordinates(arr)[3]
    span = np.ones((1, 1), dtype=np.int64)
    yield span
    for d in range(1, d_max + 1):
        factor = forms[d - 1] if d <= m else np.eye(n, dtype=np.int64).tolist()
        products = (_times_forms(span, factor, n, d - 1) % p).astype(np.int64)
        span = echelon_mod_p(products, p)[0]
        yield span


def spied_eliminations(mp, records: list) -> None:
    """Record a copy of every matrix ``hilbert_table`` eliminates in a J
    step: every ``echelon_mod_p`` call of its own, since the standard rows
    and the whole blocks are ranked inside ``linalg``."""
    eliminate = oracle.echelon_mod_p

    def spy(matrix, p):
        records.append(matrix.copy())
        return eliminate(matrix, p)

    mp.setattr(oracle, "echelon_mod_p", spy)


def spied_carried_multiples(mp, m: int, records: list) -> None:
    """Record (e, leads, heads) for the J chain's ``multiples`` call of
    ``hilbert_table`` in every degree e + 1 > m: the first call with that
    e, since J's multiples come before the I chain's in a degree."""
    multiples, seen = oracle.multiples, set()

    def spy(leads, n, e):
        heads = multiples(leads, n, e)
        if e >= m and e not in seen:
            seen.add(e)
            records.append((e, leads, heads))
        return heads

    mp.setattr(oracle, "multiples", spy)


def refused_multiples(mp, m: int, refuse) -> None:
    """Make ``hilbert_table`` refuse the J chain's multiples in each degree
    d > m where refuse(d) holds: their standard-rows test, the table's next
    one after them, fails, so the degree rebuilds the span."""
    records = []
    spied_carried_multiples(mp, m, records)
    standard_columns = oracle.standard_columns_independent
    tested = [0]

    def spy(matrix, heads, p):
        refused = len(records) > tested[0] and refuse(records[-1][0] + 1)
        tested[0] = len(records)
        return False if refused else standard_columns(matrix, heads, p)

    mp.setattr(oracle, "standard_columns_independent", spy)


class TestLeadingTerms:
    @pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
    @settings(max_examples=30, deadline=None)
    @given(arr=arrangements())
    def test_fallbacks_as_with_an_elimination_every_degree(self, p, arr):
        # multiples that close a degree are the span's leads, so every
        # lower_J, and with it every exact fallback, is what eliminations give
        def table_and_fallbacks(mp):
            calls, closings = [], []

            def spy(a, S, d):
                calls.append(("J", d))
                return dim_product_ideal(a, S, d)

            mp.setattr(oracle, "PRIME", p)
            spied_closings(mp, closings)
            mp.setattr(oracle, "dim_product_ideal", spy)
            table = hilbert_table(arr, arr.num_subspaces + 2)
            # the kept rows of a degree whose blocks are ranked whole
            return table, calls + [("I", h, lifted) for h, lifted, _ in closings]

        with pytest.MonkeyPatch.context() as mp:
            counted = table_and_fallbacks(mp)
        with pytest.MonkeyPatch.context() as mp:
            # no multiples accepted: every degree above m rebuilds the span
            # from the degree before, an elimination in every degree
            eliminations = []
            refused_multiples(mp, arr.num_subspaces, lambda d: True)
            spied_eliminations(mp, eliminations)
            eliminated = table_and_fallbacks(mp)
        assert len(eliminations) == arr.num_subspaces + 2
        assert counted == eliminated

    @pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
    @settings(max_examples=40, deadline=None)
    @given(arr=arrangements())
    def test_products_of_the_forms_stay_below_dim_J(self, p, arr):
        # the adapted forms span each linear part over Q, whatever p: the
        # rank mod p of the chain's products, L_J, never passes dim J_d
        m = arr.num_subspaces
        for d, span in enumerate(materialized_chain(arr, m + 2, p)):
            if d >= m:
                assert len(span) <= dim_product_ideal(arr, (1 << m) - 1, d)

    @pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
    @settings(max_examples=40, deadline=None)
    @given(arr=st.one_of(arrangements(), arrangements_with_ties(), five_planes_in_q4))
    def test_carried_leads_are_those_of_the_materialized_chain(self, p, arr):
        # the leads the table carries in degree d, seen as they enter degree
        # d + 1 (the span multiplied by forms, or the leads by x_1, ...,
        # x_n), are the leading monomials of the span the chain builds by
        # eliminating every degree: both span the products
        m, d_max = arr.num_subspaces, arr.num_subspaces + 2
        carried, times_forms = [], oracle._times_forms

        def build_spy(basis, forms, n, e):
            carried.append((e, _first_nonzero(basis)))
            return times_forms(basis, forms, n, e)

        multiplied = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "PRIME", p)
            mp.setattr(oracle, "_times_forms", build_spy)
            # no dim_J is compared here, and the chains never read it: the
            # exact fallback is skipped, with its own products
            mp.setattr(oracle, "dim_product_ideal", lambda *args: 0)
            spied_carried_multiples(mp, m, multiplied)
            hilbert_table(arr, d_max + 1)
        carried += [(e, leads.tolist()) for e, leads, _ in multiplied]
        spans = materialized_chain(arr, d_max, p)
        expected = {d: _first_nonzero(span) for d, span in enumerate(spans)}
        assert {e for e, _ in carried} == set(expected)
        assert all(leads == expected[e] for e, leads in carried)

    def test_multiples_that_miss_rebuild_the_span(self, monkeypatch):
        # five planes in Q^4: the multiples of the carried leads miss one
        # leading monomial of the span at d = 6 and at d = 7, so those
        # degrees rebuild it, and J closes without dim_product_ideal
        arr = random_arrangement(4, [2] * 5, 0)
        n, m, d_max = arr.ambient_dim, arr.num_subspaces, 8
        degree_of = {len(exponents(n, d)): d for d in range(d_max + 1)}
        eliminated, fallbacks = [], []
        spied_eliminations(monkeypatch, eliminated)
        monkeypatch.setattr(oracle, "dim_product_ideal", lambda *args: fallbacks.append(args))
        table = hilbert_table(arr, d_max)
        assert [degree_of[e.shape[1]] for e in eliminated] == list(range(1, m + 3))
        assert fallbacks == []
        full = (1 << m) - 1
        assert [r.dim_J for r in table] == [dim_product_ideal(arr, full, d) for d in range(d_max + 1)]

    @pytest.mark.parametrize(
        "arr",
        [fixture_arrangement("three-coordinate-axes"), arrangement_kinds.pencil(5, [3, 2], 20261018)],
        ids=["three-coordinate-axes", "Q^5 pencil [3,2]"],
    )
    def test_a_refused_degree_rebuilds_each_degree_since_the_last_built(self, monkeypatch, arr):
        # multiples accepted at m + 1 and m + 2 and refused at m + 3: that
        # degree multiplies the span of degree m by x_1, ..., x_n, and each
        # echelon after it, the matrices an elimination every degree makes
        n, m = arr.ambient_dim, arr.num_subspaces
        d_max, p = m + 3, oracle.PRIME
        expected = hilbert_table(arr, d_max)
        eliminated = []
        refused_multiples(monkeypatch, m, lambda d: d == d_max)
        spied_eliminations(monkeypatch, eliminated)
        assert hilbert_table(arr, d_max) == expected
        spans = list(materialized_chain(arr, d_max, p))
        x = np.eye(n, dtype=np.int64).tolist()
        assert len(eliminated) == d_max
        assert [e.tolist() for e in eliminated[m:]] == [
            (_times_forms(spans[d - 1], x, n, d - 1) % p).tolist() for d in range(m + 1, d_max + 1)
        ]

    @pytest.mark.parametrize("name", ["three-coordinate-axes", "three-coplanar-lines"])
    def test_transversal_degrees_above_m_close_by_count(self, monkeypatch, name):
        arr = fixture_arrangement(name)
        n, m, d_max = arr.ambient_dim, arr.num_subspaces, 7
        degree_of = {len(exponents(n, d)): d for d in range(d_max + 1)}
        eliminated = []
        spied_eliminations(monkeypatch, eliminated)
        table = hilbert_table(arr, d_max)
        assert [r.dim_J for r in table[m:]] == [
            transversal_hilbert_function([2, 2, 2], n, d) for d in range(m, d_max + 1)
        ]
        assert [d for d in (degree_of[e.shape[1]] for e in eliminated) if d > m] == []


def _rank_of_rows(rows: np.ndarray, p: int) -> int:
    return _rank_by_rows([rows], p) if len(rows) else 0


class TestIntersectionChain:
    @settings(max_examples=100, deadline=None)
    @given(blocks_and_jets())
    def test_kernel_leads_are_the_rows_that_depend_on_later_rows(self, case):
        # the chain starts where certified_pivots proves the pivots of the
        # blocks' transpose, rows last to first, at any first prime p: its
        # non-pivot columns are the rows that depend over Q on the rows
        # after them, one per dimension of the kernel
        p, blocks, jets = case
        assume(blocks + jets)
        rows = np.hstack(blocks + jets)
        h = len(rows)

        def rank_Q(part):
            return rank(QMatrix(part.tolist(), ncols=rows.shape[1])) if len(part) else 0

        expected = [i for i in range(h) if rank_Q(rows[i:]) == rank_Q(rows[i + 1 :])]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "LIFT_PRIMES", (p,) + tuple(q for q in linalg.LIFT_PRIMES if q != p))
            got, pivots = certified_pivots(rows.T[:, ::-1])
        assert got == h - len(expected)
        if pivots is not None:
            assert np.delete(np.arange(h)[::-1], pivots)[::-1].tolist() == expected

    @pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
    @settings(max_examples=30, deadline=None)
    @given(arr=st.one_of(arrangements_with_ties(), pencils()))
    def test_lead_counts_stay_below_dim_I(self, p, arr):
        # wherever the I chain is live, started at an exact kernel or raised
        # by x_1, ..., x_n since, its lead count never passes dim I_d; at a
        # start it is dim I_d
        m, d_max = arr.num_subspaces, arr.num_subspaces + 3
        degree_of = degrees_by_kept_rows(arr, d_max)
        counts, closings = [], []
        multiples = oracle.multiples

        def raise_spy(leads, n, e):
            raised = multiples(leads, n, e)
            counts.append((e + 1, len(raised), False))
            return raised

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "PRIME", p)
            spied_closings(mp, closings)
            mp.setattr(oracle, "multiples", raise_spy)
            table = hilbert_table(arr, d_max)
        # a start: the non-pivot columns of a certified_pivots with pivots
        counts += [
            (degree_of[h], h - len(pivots), True)
            for h, _, (_, pivots) in closings
            if pivots is not None
        ]
        full = (1 << m) - 1
        for d, count, start in counts:
            assert count <= dim_intersection_ideal(arr, full, d) == table[d].dim_I
            assert count == table[d].dim_I or not start

    @pytest.mark.parametrize(
        "arr, d_max",
        [(fixture_arrangement(name), 9) for name in fixture_names()]
        + [
            (arrangement_kinds.pencil(n, dims, seed), d_max)
            for n, dims, seed, d_max in [
                (3, [1, 2, 1], 11, 9),
                (4, [2, 1, 3], 12, 9),
                (4, [3, 3, 2, 1], 13, 12),
                (5, [3, 1, 2, 3], 14, 10),
                (5, [2, 2, 2, 2], 15, 9),
            ]
        ],
        ids=list(fixture_names()) + ["Q^3 pencil", "Q^4 pencil", "Q^4 pencil m=4",
                                     "Q^5 pencil [3,1,2,3]", "Q^5 pencil [2,2,2,2]"],
    )
    def test_no_exact_kernel_above_m(self, monkeypatch, arr, d_max):
        # I is generated in degrees <= m, so x_1, ..., x_n times the kernel
        # of an exact degree fill every later degree at 2^31 - 1: a chain
        # counts dim I_d there, and its standard rows close the degree
        # without ranking the blocks, let alone an exact kernel
        m = arr.num_subspaces
        degree_of = degrees_by_kept_rows(arr, d_max)
        closings, records = [], []
        spied_closings(monkeypatch, closings)
        spied_standard_rows(monkeypatch, records, arr, d_max)
        table = hilbert_table(arr, d_max)
        closed = {d for d, _, count, independent in records if independent and count == table[d].dim_I}
        assert closed >= set(range(m + 1, d_max + 1))
        # an exact kernel lifts inside one of these
        assert [d for d in (degree_of[h] for h, _, _ in closings) if d > m] == []


def _package_dependencies(module: str) -> set[str]:
    """The other modules of ``subspace_hilbert`` that one of them uses: every
    package import statement in its source, and the home module of every
    module, class and function in its namespace (re-exports included)."""
    mod = importlib.import_module(f"subspace_hilbert.{module}")
    names = {
        value.__name__ if inspect.ismodule(value) else getattr(value, "__module__", None)
        for value in vars(mod).values()
    }
    for node in ast.walk(ast.parse(inspect.getsource(mod))):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add("subspace_hilbert." * (node.level > 0) + node.module)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return {
        name.split(".")[1]
        for name in names
        if isinstance(name, str) and name.startswith("subspace_hilbert.")
    } - {module}


def test_oracle_never_depends_on_the_closed_forms():
    # the oracle is the ground truth for hilbert.py: no module it uses,
    # directly or through another package module, may be hilbert
    seen, todo = set(), ["oracle"]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(_package_dependencies(module))
    assert "linalg" in seen and "arrangement" in seen
    assert "hilbert" not in seen


def test_engines_close_degrees_through_linalg():
    # the degree-closing rule is linalg.kernel_leads: neither engine ranks a
    # degree's matrix over Q or tests its standard columns itself
    for module in (oracle, gpca):
        names = set()
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
        assert "kernel_leads" in names
        assert not names & {"certified_pivots", "rank_mod_p"}


def test_recovery_depends_on_the_monomials_not_the_oracle():
    # both engines take the monomial order, its index maps and the cap
    # from one module; recovery needs nothing else of the oracle's
    assert "monomials" in _package_dependencies("gpca")
    assert "oracle" not in _package_dependencies("gpca")


def test_no_module_imports_another_modules_private_name():
    # what one package module takes from another is public there
    package = Path(inspect.getfile(oracle)).parent
    crossing = [
        f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "subspace_hilbert")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert crossing == []
