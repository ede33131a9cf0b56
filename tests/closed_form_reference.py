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

The package's linear algebra is integral: ``linalg.rref`` is fraction-free
and ``SubspaceBasis`` keeps primitive integer rows and forms.  The rational
originals it is tested against live here: ``QMatrix`` with its
``Fraction`` ``rational_rref``, ``rank``, ``kernel`` and ``annihilator``, the
subspace predicates ``span_of``, ``contains`` and ``spans_equal``, and
``reference_primitive_int_vector``.  ``QSeries`` is a truncated series for
``series_divide``; ``ps_family_satisfies_congruences`` re-verifies a p_S
family from its definition.  ``QPoly`` stores integral coefficients as
ints, and ``int / int`` is a float, so the only divisions of coefficients,
in ``poly_divmod`` and ``series_divide``, go through ``Fraction``.

The package reduces mod (1-t)^k and reads Hilbert polynomials in the basis
u = 1 - t, and changes to it by Horner's rule.  The references here work in
t: ``reference_substitute_one_minus_t`` expands p(1-t) by the binomial
theorem, ``poly_divmod`` is polynomial long division,
``reference_poly_mod_one_minus_t_pow`` its remainder by (1-t)^k,
``reference_hilbert_polynomial`` a sum of shifted binomial polynomials, one
per numerator term, and ``reference_fit_numerator`` a product with (1-t)^n.

``reference_echelon_mod_p`` is the plain GF(p) elimination loop that
``linalg.echelon_mod_p`` trims: two column scans per pivot, an outer
product per update and a scaled copy of the pivot row.

``monomial_position`` counts a monomial's place in the graded-lex order of
``monomials.exponents`` from its exponents alone, with no table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence, Union

import numpy as np

from subspace_hilbert.arrangement import Arrangement, DimensionFunction
from subspace_hilbert.gpca import InconsistentDataError, RecoveryResult
from subspace_hilbert.hilbert import HilbertPolynomial, PSFamily
from subspace_hilbert.linalg import SubspaceBasis, Vector
from subspace_hilbert.ratpoly import (
    ONE,
    ZERO,
    QPoly,
    Scalar,
    T,
    binom,
    poly_mod_one_minus_t_pow,
)

ONE_MINUS_T = ONE - T


def monomial_position(exps: Sequence[int]) -> int:
    """The position of x^exps among the monomials of its degree, largest
    first-variable power first: those before it agree with it before some
    variable x_t and have a larger power of x_t, any monomial of the
    remaining degree in the variables after it."""
    n, rest, position = len(exps), sum(exps), 0
    for t, e in enumerate(exps):
        for larger in range(e + 1, rest + 1):
            position += binom(rest - larger + n - t - 2, n - t - 2)
        rest -= e
    return position


def _to_vector(entries: Iterable) -> Vector:
    return tuple(Fraction(e) for e in entries)


def reference_echelon_mod_p(m: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-reduce the int64 residues m over GF(p) in place; its nonzero rows
    in echelon form with leading entries 1, and the rows of m they came from.
    """
    rows, cols = m.shape
    sources = np.arange(rows)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = m[r:, c].nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:
            i = r + nz[0]
            m[[r, i]] = m[[i, r]]
            sources[[r, i]] = sources[[i, r]]
        if m[r, c] != 1:
            m[r, c:] = m[r, c:] * pow(int(m[r, c]), -1, p) % p
        below = r + 1 + m[r + 1 :, c].nonzero()[0]
        if below.size:
            m[below, c:] = (m[below, c:] - np.outer(m[below, c], m[r, c:])) % p
        r += 1
    return m[:r], sources[:r]


@dataclass(frozen=True)
class QMatrix:
    """Dense matrix of rationals, stored as a tuple of row tuples."""

    entries: tuple[Vector, ...]
    ncols: int

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        rows = tuple(_to_vector(r) for r in rows)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged matrix rows")
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "ncols", ncols)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)], ncols=n
        )

    @property
    def nrows(self) -> int:
        return len(self.entries)


def rational_rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form over ``Fraction`` and pivot columns.

    Deterministic: pivots are chosen leftmost-column-first, taking the first
    row (top-down) with a nonzero entry in that column.
    """
    rows = [list(r) for r in m.entries]
    pivots: list[int] = []
    pr = 0
    for pc in range(m.ncols):
        pivot_row = None
        for i in range(pr, len(rows)):
            if rows[i][pc] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        lead = rows[pr][pc]
        if lead != 1:
            rows[pr] = [e / lead for e in rows[pr]]
        for i, row in enumerate(rows):
            if i != pr and row[pc] != 0:
                factor = row[pc]
                rows[i] = [e - factor * p for e, p in zip(row, rows[pr])]
        pivots.append(pc)
        pr += 1
    return QMatrix(rows, ncols=m.ncols), tuple(pivots)


def rank(m: QMatrix) -> int:
    return len(rational_rref(m)[1])


def kernel(m: QMatrix) -> SubspaceBasis:
    """Basis of the exact null space {x : m x = 0}, from the rational RREF."""
    reduced, pivots = rational_rref(m)
    vectors = []
    for f in (c for c in range(m.ncols) if c not in pivots):
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            v[p] = -reduced.entries[row_idx][f]
        vectors.append(v)
    return SubspaceBasis(m.ncols, vectors)


def annihilator(s: SubspaceBasis) -> tuple[Vector, ...]:
    """Basis of linear forms vanishing on the subspace, over ``Fraction``.

    A form is its coefficient vector; count is ambient_dim - dim.
    """
    return kernel(QMatrix(s.vectors, ncols=s.ambient_dim)).vectors


def span_of(ambient_dim: int, vectors: Iterable[Iterable]) -> SubspaceBasis:
    """Canonical basis (nonzero rational RREF rows) of the span of the vectors."""
    vectors = tuple(_to_vector(v) for v in vectors)
    if not vectors:
        return SubspaceBasis(ambient_dim)
    reduced, pivots = rational_rref(QMatrix(vectors, ncols=ambient_dim))
    return SubspaceBasis(ambient_dim, reduced.entries[: len(pivots)])


def contains(s: SubspaceBasis, v: Sequence) -> bool:
    vv = _to_vector(v)
    if all(e == 0 for e in vv):
        return True
    return rank(QMatrix(s.vectors + (vv,), ncols=s.ambient_dim)) == s.dim


def spans_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        return False
    return rank(QMatrix(a.vectors + b.vectors, ncols=a.ambient_dim)) == a.dim


def reference_primitive_int_vector(v: Sequence) -> list[int]:
    """Scale a rational vector to integers by ``Fraction`` products and strip
    the common gcd."""
    vv = _to_vector(v)
    den = reduce(math.lcm, (e.denominator for e in vv), 1)
    ints = [int(e * den) for e in vv]
    g = reduce(math.gcd, ints, 0)
    if g > 1:
        ints = [e // g for e in ints]
    return ints


@dataclass(frozen=True)
class QSeries:
    """Power series truncated to a fixed order: coefficients of t^0 .. t^order."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar]):
        out = tuple(Fraction(c) for c in coeffs)
        if not out:
            raise ValueError("a series needs at least the t^0 coefficient")
        object.__setattr__(self, "coeffs", out)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, d: int) -> Fraction:
        if not 0 <= d <= self.order:
            raise IndexError(f"degree {d} outside truncation order {self.order}")
        return self.coeffs[d]

    def __str__(self) -> str:
        return QPoly(self.coeffs).to_str() + f" + O(t^{self.order + 1})"


def poly_divmod(a: QPoly, b: QPoly) -> tuple[QPoly, QPoly]:
    """Quotient and remainder of polynomial long division, deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
    rem = list(a.coeffs)
    lead = b.coeffs[-1]
    for i in range(len(quot) - 1, -1, -1):
        c = Fraction(rem[i + b.degree]) / lead
        if c:
            quot[i] = c
            for j, d in enumerate(b.coeffs):
                rem[i + j] -= c * d
    return QPoly(quot), QPoly(rem)


def reference_substitute_one_minus_t(p: QPoly) -> QPoly:
    """p(1-t) by the binomial theorem: the coefficient of t^k is
    (-1)^k sum_{j>=k} C(j, k) p_j."""
    c = p.coeffs
    return QPoly(
        (-1) ** k * sum(math.comb(j, k) * c[j] for j in range(k, len(c)))
        for k in range(len(c))
    )


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
    return span_of(a.ambient_dim, a.vectors + b.vectors)


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
    (substituting 1 - t is an involution); a coefficient that is not an
    integer raises ArithmeticError.
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
        u = reference_substitute_one_minus_t(poly).coeffs
        if any(c.denominator != 1 for c in u):
            raise ArithmeticError(f"p_S has non-integer u-coefficients {u}")
        rows.append([int(c) for c in u] + [0] * (d.ambient_dim - len(u)))
    return PSFamily(np.array(rows, dtype=object))


def ps_family_satisfies_congruences(family: PSFamily, d: DimensionFunction) -> bool:
    """Re-verify every defining congruence and degree bound from scratch."""
    if family.num_subspaces != d.num_subspaces:
        return False
    for mask in range(1 << d.num_subspaces):
        c = d.codim_of(mask)
        if mask and family.p(mask).degree >= c:
            return False
        total = ZERO
        sub = mask
        while True:
            k = sub.bit_count()
            term = family.p(sub).shift(k)  # (-t)^k p_X = (-1)^k t^k p_X
            total = total - term if k % 2 else total + term
            if sub == 0:
                break
            sub = (sub - 1) & mask
        if poly_mod_one_minus_t_pow(total, c):
            return False
    return True


def reference_dimension_function(arr: Arrangement) -> DimensionFunction:
    """Intersections built mask by mask, each reusing the intersection for
    the mask with its lowest bit cleared."""
    n = arr.ambient_dim
    m = arr.num_subspaces
    full = span_of(n, QMatrix.identity(n).entries)
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
    reduced, pivots = rational_rref(augmented)
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
        out[d] = Fraction(acc) / b.coeffs[0]
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
    product = truncate(reference_substitute_one_minus_t(b), n - 1)
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
