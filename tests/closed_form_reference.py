"""Slow, readable references for the closed-form engines and recovery.

``reference_ps_family`` solves the p_S congruences over ``Fraction`` by a walk
over all pairs X subset of S (3^m polynomial products), and
``reference_dimension_function`` intersects subspaces by ``Fraction`` RREF,
one mask at a time.  ``reference_transversal_hilbert_function`` sums the
transversal binomial formula over all 2^m subsets, and
``reference_recover_codimensions`` recovers codimensions by ``Fraction``
interpolation, a change to the shifted binomial basis and truncated series
division.  The package computes all of them with integer arithmetic; the
tests compare the two routes.

The package reduces mod (1-t)^k and reads Hilbert polynomials in the basis
u = 1 - t.  The references here work in t: ``poly_divmod`` is polynomial long
division, ``reference_poly_mod_one_minus_t_pow`` its remainder by (1-t)^k,
``reference_hilbert_polynomial`` a sum of shifted binomial polynomials, one
per numerator term, and ``reference_fit_numerator`` a product with (1-t)^n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from subspace_hilbert.arrangement import Arrangement, DimensionFunction
from subspace_hilbert.gpca import InconsistentDataError, RecoveryResult
from subspace_hilbert.hilbert import HilbertPolynomial, PSFamily
from subspace_hilbert.linalg import (
    QMatrix,
    SubspaceBasis,
    annihilator,
    kernel,
    rref,
)
from subspace_hilbert.ratpoly import (
    ONE,
    ZERO,
    QPoly,
    QSeries,
    T,
    binom,
    substitute_one_minus_t,
)

ONE_MINUS_T = ONE - T


def poly_divmod(a: QPoly, b: QPoly) -> tuple[QPoly, QPoly]:
    """Quotient and remainder of polynomial long division, deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
    rem = list(a.coeffs)
    lead = b.coeffs[-1]
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + b.degree] / lead
        if c:
            quot[i] = c
            for j, d in enumerate(b.coeffs):
                rem[i + j] -= c * d
    return QPoly(quot), QPoly(rem)


def reference_poly_mod_one_minus_t_pow(p: QPoly, k: int) -> QPoly:
    """Remainder of p under long division by (1-t)^k."""
    if k < 0:
        raise ValueError("negative power")
    return poly_divmod(p, ONE_MINUS_T**k)[1]


def shifted_binomial_polynomial(n: int, shift: int) -> QPoly:
    """The degree-(n-1) polynomial in d whose value is C(d-shift+n-1, n-1).

    The binomial identity holds for all integers d with d - shift >= 0; as
    polynomials these form a basis (over shifts 0..n-1) of degree < n.
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    poly = ONE
    for k in range(1, n):
        poly = poly * QPoly.of(k - shift, 1)
    return poly * Fraction(1, math.factorial(n - 1))


def reference_hilbert_polynomial(numerator: QPoly, n: int) -> HilbertPolynomial:
    """Hilbert polynomial of numerator/(1-t)^n: the t^d coefficient is
    sum_j numerator_j C(d-j+n-1, n-1), one shifted binomial polynomial per
    numerator term."""
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    total = ZERO
    for j, coeff in enumerate(numerator.coeffs):
        if coeff:
            total = total + shifted_binomial_polynomial(n, j) * coeff
    return HilbertPolynomial(total)


def reference_fit_numerator(values: Sequence, denom_power: int) -> QPoly:
    """The value series times (1-t)^denom_power, truncated to len(values)
    coefficients."""
    prod = QPoly(values) * ONE_MINUS_T**denom_power
    return QPoly(prod.coeffs[: len(values)])


def matvec(m: QMatrix, v: Sequence) -> tuple[Fraction, ...]:
    """The product of a matrix and a column vector."""
    if len(v) != m.ncols:
        raise ValueError("vector length does not match column count")
    return tuple(
        sum((a * Fraction(b) for a, b in zip(row, v)), Fraction(0))
        for row in m.entries
    )


def sum_subspaces(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return SubspaceBasis.span_of(a.ambient_dim, a.vectors + b.vectors)


def intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Basis of the intersection of two subspaces."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    forms = annihilator(a) + annihilator(b)
    return kernel(QMatrix(forms, ncols=a.ambient_dim))


def inverse_of_t_mod(k: int) -> QPoly:
    """The degree-<k polynomial q with t*q = 1 mod (1-t)^k.

    t is a unit modulo (1-t)^k, with inverse sum_{j<k} (1-t)^j: writing
    u = 1-t, the product t*q telescopes to 1 - u^k.
    """
    if k < 1:
        raise ValueError("t is not invertible mod (1-t)^0")
    acc = ZERO
    power = ONE
    for _ in range(k):
        acc = acc + power
        power = power * ONE_MINUS_T
    return acc


def _minus_t_pow(k: int) -> QPoly:
    return QPoly((0,) * k + ((-1) ** k,))


def reference_ps_family(d: DimensionFunction) -> PSFamily:
    """Solve the defining congruences for all p_S in cardinality order.

    For nonempty S, sum over X subset of S of (-t)^|X| p_X must vanish mod
    (1-t)^{c_S}; the known part is multiplied by the inverse of (-t)^|S|.
    The family is handed over as ``PSFamily`` takes it, in u = 1 - t
    (``substitute_one_minus_t`` is an involution); a coefficient that is
    not an integer raises ArithmeticError.
    """
    m = d.num_subspaces
    polys: list[QPoly] = [ONE] * (1 << m)
    for mask in sorted(range(1, 1 << m), key=lambda s: (s.bit_count(), s)):
        c = d.codim_of(mask)
        q = ZERO
        sub = (mask - 1) & mask
        while True:
            q = q - polys[sub] * _minus_t_pow(sub.bit_count())
            if sub == 0:
                break
            sub = (sub - 1) & mask
        size = mask.bit_count()
        signed = q if size % 2 == 0 else -q
        polys[mask] = reference_poly_mod_one_minus_t_pow(
            signed * inverse_of_t_mod(c) ** size, c
        )
    rows = []
    for poly in polys:
        u = substitute_one_minus_t(poly).coeffs
        if any(c.denominator != 1 for c in u):
            raise ArithmeticError(f"p_S has non-integer u-coefficients {u}")
        rows.append([int(c) for c in u] + [0] * (d.ambient_dim - len(u)))
    return PSFamily(np.array(rows, dtype=object))


def reference_dimension_function(arr: Arrangement) -> DimensionFunction:
    """Intersections built mask by mask, each reusing the intersection for
    the mask with its lowest bit cleared."""
    n = arr.ambient_dim
    m = arr.num_subspaces
    full = SubspaceBasis.span_of(n, QMatrix.identity(n).entries)
    spaces: list[SubspaceBasis] = [full] * (1 << m)
    dims = [n] * (1 << m)
    for mask in range(1, 1 << m):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        if rest == 0:
            spaces[mask] = arr.subspaces[low]
        else:
            spaces[mask] = intersect(spaces[rest], arr.subspaces[low])
        dims[mask] = spaces[mask].dim
    return DimensionFunction(n, m, dims)


def reference_transversal_hilbert_function(
    codims: Sequence[int], n: int, d: int
) -> int:
    """Sum (-1)^|S| C(d+n-1-c_S, n-1-c_S) over all 2^m subsets S whose
    total codimension c_S stays below n."""
    m = len(codims)
    total = 0
    for mask in range(1 << m):
        c = sum(codims[i] for i in range(m) if mask >> i & 1)
        if c >= n:
            continue
        term = binom(d + n - 1 - c, n - 1 - c)
        total += -term if mask.bit_count() % 2 else term
    return total


def interpolate_polynomial(values: Sequence[Union[int, Fraction]], start: int) -> QPoly:
    """The unique polynomial of degree < len(values) through
    (start, values[0]), (start+1, values[1]), ...; exact Lagrange form."""
    if not values:
        raise ValueError("need at least one value")
    total = QPoly.of()
    xs = [start + r for r in range(len(values))]
    for r, y in enumerate(values):
        if y == 0:
            continue
        term = ONE
        denom = 1
        for s, x in enumerate(xs):
            if s != r:
                term = term * QPoly.of(-x, 1)
                denom *= xs[r] - x
        total = total + term * Fraction(y, denom)
    return total


def binomial_basis_coefficients(h: QPoly, n: int) -> QPoly:
    """Write h (a polynomial in d, degree < n) as sum a_j C(d+n-1-j, n-1).

    Returns a(t) = sum a_j t^j.  The n shifted binomial polynomials form a
    basis of the degree-< n polynomials, so the square system is solvable
    exactly and uniquely.
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    if h.degree >= n:
        raise ValueError("polynomial degree must stay below the ambient dimension")
    columns = [shifted_binomial_polynomial(n, j) for j in range(n)]
    augmented = QMatrix(
        [
            [columns[j].coeff(deg) for j in range(n)] + [h.coeff(deg)]
            for deg in range(n)
        ],
        ncols=n + 1,
    )
    reduced, pivots = rref(augmented)
    if pivots != tuple(range(n)):
        raise ArithmeticError("shifted binomial polynomials failed to form a basis")
    return QPoly([reduced.entries[j][n] for j in range(n)])


def truncate(p: QPoly, order: int) -> QSeries:
    """The series of p through t^order."""
    return QSeries(p.coeff(d) for d in range(order + 1))


def series_divide(a: QSeries, b: QSeries) -> QSeries:
    """Truncated quotient q with q*b = a through the common order."""
    if a.order != b.order:
        raise ValueError("series truncation orders differ")
    if b.coeffs[0] == 0:
        raise ValueError("series divisor has zero constant term")
    out = [Fraction(0)] * (a.order + 1)
    for d in range(a.order + 1):
        acc = a.coeffs[d]
        for j in range(d):
            acc -= out[j] * b.coeffs[d - j]
        out[d] = acc / b.coeffs[0]
    return QSeries(out)


def reference_recover_codimensions(
    values: Sequence[Union[int, Fraction]], m: int, n: int
) -> RecoveryResult:
    """``recover_codimensions`` over ``Fraction``: interpolate the degree-< n
    polynomial, rewrite it in the shifted binomial basis as a(t), reduce to
    b(t) = a(t) mod (1-t)^n, expand b(1-t) as a series mod t^n (congruent to
    the product of (1-t^{c_i})), and peel off each codimension's
    multiplicity by exact series division.  The factor (1-t^c)^r is
    expanded mod t^n by the binomial theorem, so a huge r costs nothing.
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    if m < 1:
        raise ValueError("the arrangement must have at least one subspace")
    if len(values) != n:
        raise ValueError(f"need exactly {n} values at degrees {m}..{m + n - 1}")
    h = interpolate_polynomial(values, m)
    a = binomial_basis_coefficients(h, n)
    if any(c.denominator != 1 for c in a.coeffs):
        raise InconsistentDataError(
            f"binomial-basis coefficients {a.coeffs} are not integers"
        )
    b = reference_poly_mod_one_minus_t_pow(a, n)
    product = truncate(substitute_one_minus_t(b), n - 1)
    if product.coeff(0) != 1:
        raise InconsistentDataError("series constant term is not 1")
    multiplicities = []
    running = product
    for c in range(1, n):
        r_c = -running.coeff(c)
        if r_c.denominator != 1 or r_c < 0:
            raise InconsistentDataError(
                f"multiplicity for codimension {c} came out as {r_c}"
            )
        r_c = int(r_c)
        multiplicities.append(r_c)
        if r_c:
            factor = QPoly(
                0 if k % c else (-1) ** (k // c) * math.comb(r_c, k // c)
                for k in range(n)
            )
            running = series_divide(running, truncate(factor, n - 1))
    if sum(multiplicities) != m:
        raise InconsistentDataError(
            f"recovered {sum(multiplicities)} subspaces out of {m}"
        )
    return RecoveryResult(n, multiplicities)
