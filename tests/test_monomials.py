"""Tests for the graded-lex monomial basis and the tables indexed by it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_form_reference import monomial_position
from subspace_hilbert.monomials import (
    exponents,
    multiples,
    raise_degree_maps,
    scatter_maps,
    split_first_variable,
    w_degrees,
)
from subspace_hilbert.ratpoly import binom


class TestMonomialBasis:
    def test_counts(self):
        for n in range(1, 6):
            for d in range(0, 7):
                assert len(exponents(n, d)) == binom(d + n - 1, n - 1)

    def test_graded_lex_order(self):
        assert exponents(2, 2) == ((2, 0), (1, 1), (0, 2))
        basis = exponents(3, 2)
        assert basis[0] == (2, 0, 0)
        assert basis[-1] == (0, 0, 2)
        assert basis == tuple(sorted(basis, reverse=True))

    def test_every_exponent_sums_to_degree(self):
        for exps in exponents(4, 3):
            assert sum(exps) == 3 and all(e >= 0 for e in exps)

    def test_position_roundtrip(self):
        for i, exps in enumerate(exponents(3, 4)):
            assert monomial_position(exps) == i

    def test_zero_variables(self):
        assert exponents(0, 0) == ((),)
        assert exponents(0, 3) == ()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            exponents(-1, 2)
        with pytest.raises(ValueError):
            exponents(2, -1)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_multiples_are_the_distinct_raised_leads(data):
    # x_j times each lead monomial, once each, ascending
    n, e = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 4))
    basis = exponents(n, e)
    leads = sorted(data.draw(st.sets(st.integers(0, len(basis) - 1))))
    raised = {
        monomial_position(exps[:j] + (exps[j] + 1,) + exps[j + 1 :])
        for exps in (basis[i] for i in leads)
        for j in range(n)
    }
    got = multiples(np.array(leads, dtype=np.intp), n, e)
    assert got.tolist() == sorted(raised)
    # every cached table is shared by all later calls: none can be written
    f, k = data.draw(st.integers(0, n)), data.draw(st.integers(1, 3))
    tables = [raise_degree_maps(n, e), *split_first_variable(n, e + 1), w_degrees(n, e, f)]
    tables += [
        part
        for pair in scatter_maps(n, e + 1, f, k)[1]
        for part in pair
        if isinstance(part, np.ndarray)
    ]
    for table in tables:
        assert not table.flags.writeable
