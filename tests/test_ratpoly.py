import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_hilbert.ratpoly import (
    ONE,
    QPoly,
    T,
    ZERO,
    binom,
    expand_rational,
    fit_numerator,
    poly_mod_one_minus_t_pow,
    substitute_one_minus_t,
)

from closed_form_reference import (
    QSeries,
    inverse_of_t_mod,
    poly_divmod,
    reference_fit_numerator,
    reference_poly_mod_one_minus_t_pow,
    reference_substitute_one_minus_t,
    series_divide,
    truncate,
)


def random_poly(rng, max_degree, max_num=9, max_den=5):
    return QPoly(
        Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        for _ in range(rng.randint(0, max_degree + 1))
    )


def test_canonical_form():
    assert QPoly.of(1, 2, 0, 0) == QPoly.of(1, 2)
    assert QPoly.of(0, 0) == ZERO
    assert ZERO.degree == -1
    assert not ZERO
    assert QPoly.of(0, 0, 5).degree == 2


def test_arithmetic_basics():
    p = QPoly.of(1, -2, 1)
    assert p == (ONE - T) ** 2
    assert p - p == ZERO
    assert p * ZERO == ZERO
    assert 3 * p == QPoly.of(3, -6, 3)
    assert p.evaluate(1) == 0
    assert p.evaluate(Fraction(1, 2)) == Fraction(1, 4)
    assert p.shift(2) == QPoly.of(0, 0, 1, -2, 1)


def test_divmod_property():
    rng = random.Random(601)
    for _ in range(200):
        a = random_poly(rng, 8)
        b = random_poly(rng, 4)
        if not b:
            continue
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_to_str():
    assert str(QPoly.of(-2, 6, -3)) == "-2 + 6t - 3t^2"
    assert str(QPoly.of(0, 0, 0, 7, -9, 3)) == "7t^3 - 9t^4 + 3t^5"
    assert str(QPoly.of(2, -1)) == "2 - t"
    assert str(ZERO) == "0"
    assert QPoly.of(0, Fraction(3, 2)).to_str("d") == "3/2d"


def test_poly_mod_exact_multiple():
    assert poly_mod_one_minus_t_pow((ONE - T) ** 2, 2) == ZERO


def test_poly_mod_already_reduced():
    p = QPoly.of(-1, 4, -2)
    assert poly_mod_one_minus_t_pow(p, 3) == p


def test_poly_mod_shifted_numerator():
    p = QPoly.of(7, -9, 3).shift(3)
    assert poly_mod_one_minus_t_pow(p, 3) == QPoly.of(-2, 6, -3)


def test_poly_mod_k_zero():
    assert poly_mod_one_minus_t_pow(QPoly.of(5, 1), 0) == ZERO


def test_poly_mod_remainder_property():
    rng = random.Random(602)
    for _ in range(200):
        p = random_poly(rng, 10)
        k = rng.randint(0, 6)
        r = poly_mod_one_minus_t_pow(p, k)
        assert r.degree < k
        assert poly_divmod(p - r, (ONE - T) ** k)[1] == ZERO


def test_inverse_of_t_mod_small():
    assert inverse_of_t_mod(1) == ONE
    assert inverse_of_t_mod(2) == QPoly.of(2, -1)
    assert inverse_of_t_mod(3) == QPoly.of(3, -3, 1)


def test_inverse_of_t_mod_rejects_zero():
    with pytest.raises(ValueError):
        inverse_of_t_mod(0)


def test_inverse_of_t_mod_exhaustive():
    for k in range(1, 65):
        q = inverse_of_t_mod(k)
        assert q.degree < k
        assert poly_divmod(T * q - ONE, (ONE - T) ** k)[1] == ZERO


def test_expand_rational_tables():
    num = QPoly.of(0, 0, 3, -2)
    assert expand_rational(num, 3, 5) == (0, 0, 3, 7, 12, 18)
    num = QPoly.of(0, 0, 0, 7, -9, 3)
    table = expand_rational(num, 3, 5)
    assert table == (0, 0, 0, 7, 12, 18)
    assert all(type(c) is int for c in table)


def test_expand_rational_trivial_denominator():
    assert expand_rational(ONE, 0, 3) == (1, 0, 0, 0)


def test_expand_rational_binomial_formula():
    rng = random.Random(603)
    for _ in range(60):
        num = random_poly(rng, 6)
        n = rng.randint(1, 8)
        d_max = rng.randint(0, 12)
        series = expand_rational(num, n, d_max)
        for d in range(d_max + 1):
            expected = sum(
                (num.coeff(j) * binom(d - j + n - 1, n - 1) for j in range(num.degree + 1)),
                Fraction(0),
            )
            assert series[d] == expected


def test_expand_rational_cancellation_invariant():
    rng = random.Random(604)
    for _ in range(60):
        num = random_poly(rng, 6)
        n = rng.randint(0, 8)
        d_max = rng.randint(0, 20)
        lhs = expand_rational(num * (ONE - T), n + 1, d_max)
        rhs = expand_rational(num, n, d_max)
        assert lhs == rhs


def test_integral_coefficients_are_ints():
    # an integral coefficient is stored as an int, whatever produced it
    p = QPoly.of(Fraction(4, 2), Fraction(1, 2), 3)
    assert [type(c) for c in p.coeffs] == [int, Fraction, int]
    half = QPoly.of(Fraction(1, 2))
    assert (half + half).coeffs == (1,) and type((half + half).coeff(0)) is int
    assert type((half * 2).coeff(0)) is int
    assert type((QPoly.of(Fraction(2, 3), 1) * QPoly.of(3, 0)).coeff(0)) is int
    assert all(type(c) is int for c in substitute_one_minus_t(QPoly.of(-2, 6, -3)).coeffs)
    assert QPoly.of(Fraction(6, 3)) == QPoly.of(2) and hash(QPoly.of(Fraction(6, 3))) == hash(QPoly.of(2))
    assert str(QPoly.of(Fraction(1, 2), Fraction(-4, 2))) == "1/2 - 2t"
    values = [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]
    fitted = fit_numerator(values, 1)
    assert fitted == QPoly.of(Fraction(1, 2), 1, 1)
    assert type(fitted.coeff(1)) is int
    assert [type(c) for c in expand_rational(fitted, 1, 2)] == [Fraction] * 3


def test_substitute_one_minus_t_examples():
    assert substitute_one_minus_t(QPoly.of(-2, 6, -3)) == QPoly.of(1, 0, -3)
    assert substitute_one_minus_t(T) == ONE - T
    assert substitute_one_minus_t(ONE) == ONE


def test_substitute_one_minus_t_involution():
    rng = random.Random(605)
    for _ in range(100):
        p = random_poly(rng, 20)
        assert substitute_one_minus_t(substitute_one_minus_t(p)) == p


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(
        st.one_of(st.integers(-(2**70), 2**70), st.fractions(max_denominator=30)),
        max_size=80,
    )
)
def test_substitute_one_minus_t_matches_binomial_sum(coeffs):
    p = QPoly(coeffs)
    assert substitute_one_minus_t(p) == reference_substitute_one_minus_t(p)


def test_series_divide_examples():
    a = QSeries([1, 0, -3])
    assert series_divide(a, QSeries([1, 0, 0])) == a
    a = truncate(ONE - T**2, 4)
    b = truncate(ONE - T, 4)
    assert series_divide(a, b) == truncate(ONE + T, 4)
    a = truncate((ONE - T**2) ** 3, 5)
    b = truncate((ONE - T**2) ** 2, 5)
    assert series_divide(a, b) == truncate(ONE - T**2, 5)


def test_series_divide_rejects_nonunit():
    with pytest.raises(ValueError):
        series_divide(QSeries([1, 1]), QSeries([0, 1]))


def test_series_divide_roundtrip():
    rng = random.Random(606)
    for _ in range(100):
        order = rng.randint(0, 10)
        a = QSeries(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(order + 1)]
        )
        b_coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(order + 1)]
        b_coeffs[0] = Fraction(rng.choice([1, -1, 2, 3]))
        b = QSeries(b_coeffs)
        product = truncate(QPoly(a.coeffs) * QPoly(b.coeffs), order)
        assert series_divide(product, b) == a


def test_series_order_mismatch_rejected():
    with pytest.raises(ValueError):
        series_divide(QSeries([1, 2]), QSeries([1, 2, 3]))


def test_binom_conventions():
    assert binom(5, 2) == 10
    assert binom(2, 5) == 0
    assert binom(-1, 0) == 0
    assert binom(3, -1) == 0
    assert binom(0, 0) == 1


def test_fit_numerator_recovers_known_series():
    num = QPoly.of(0, 0, 0, 7, -9, 3)
    table = expand_rational(num, 3, 8)
    assert fit_numerator(table, 3) == num
    num = QPoly.of(0, 1, 0, 1, -1)
    table = expand_rational(num, 4, 6)
    assert fit_numerator(table, 4) == num


def test_poly_mod_matches_long_division():
    rng = random.Random(607)
    cases = [(ZERO, k) for k in range(4)] + [(QPoly.of(3), 0), (T**9, 1)]
    for _ in range(300):
        cases.append((random_poly(rng, 12), rng.randint(0, 8)))
    for p, k in cases:
        assert poly_mod_one_minus_t_pow(p, k) == (
            reference_poly_mod_one_minus_t_pow(p, k)
        )
    with pytest.raises(ValueError):
        poly_mod_one_minus_t_pow(ONE, -1)


def test_fit_numerator_matches_product():
    rng = random.Random(608)
    cases = [([], 2), ([0, 0, 0], 3), ([5], 0), ([1, 2, 3], 1)]
    for _ in range(300):
        values = [
            Fraction(rng.randint(-20, 20), rng.randint(1, 4))
            for _ in range(rng.randint(0, 10))
        ]
        cases.append((values, rng.randint(0, 9)))
    for values, n in cases:
        assert fit_numerator(values, n) == reference_fit_numerator(values, n)
    with pytest.raises(ValueError):
        fit_numerator([1, 2], -1)
