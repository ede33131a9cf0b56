"""Closed-form Hilbert data for ideals attached to unions of subspaces.

Given the dimension function of an arrangement of proper subspaces of K^n,
this module computes the family of reduction polynomials p_S(t), the Hilbert
series of the product ideal J = I_1 ... I_m as an exact rational function
t^m p(t)/(1-t)^n, the Betti numbers read off p(t), the closed-form series
available when the arrangement is transversal, and Hilbert-polynomial
extraction from any numerator over (1-t)^n.

The p_S family is computed with integers only, in the basis u = 1 - t.  The
defining congruences are taken mod (1-t)^c = u^c, so reducing mod (1-t)^c is
truncation to the first c coefficients in u, t is a backward difference and
t^-1 a prefix sum.  No division is left, and every p_S has integer
u-coefficients because the recursion only adds integer multiples of them.
``compute_ps_family`` gives the derivation and the overflow bounds; a p_S
is expanded back to t only when it is read, so ``hilbert_series_J``
converts only the top polynomial.

Everything else that works mod a power of 1 - t works in u as well:
``is_series_difference_polynomial`` reduces by truncating u-coefficients
(``poly_mod_one_minus_t_pow``), and the Hilbert polynomial of
numerator/(1-t)^n is read off the numerator's first n u-coefficients, one
binomial C(d + r, r) each, summed as integer polynomials scaled by (n-1)!.

Every value here but the Hilbert polynomial is an integer, and ``QPoly``
stores integral coefficients as ints: p_S, the numerator, the Betti
numbers, the graded dimensions and the transversal forms never become
``Fraction``; the Hilbert polynomial's coefficients are integers / (n-1)!.

The series of the intersection ideal I is deliberately absent: it is not
determined by the dimension function alone, so it is only available through
the degree-by-degree oracle or, for transversal arrangements, through the
transversal series up to a polynomial correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .arrangement import DimensionFunction
from .linalg import INT64_SAFE
from .ratpoly import (
    ONE,
    QPoly,
    Scalar,
    expand_rational,
    poly_mod_one_minus_t_pow,
    substitute_one_minus_t,
)

RationalFunction = tuple[QPoly, int]


def _check_family(size: int, empty: QPoly | None) -> None:
    if size == 0 or size & (size - 1):
        raise ValueError("family length must be a power of two")
    if empty != ONE:
        raise ValueError("the empty-set polynomial must be 1")


class PSFamily:
    """The reduction polynomials p_S(t), indexed by subset bitmask.

    Built from an integer array whose row ``mask`` holds p_S's coefficients
    in u = 1 - t, as ``compute_ps_family`` makes it; each p_S is expanded in
    t, p(t) = sum_j a_j (1-t)^j, on first access.
    """

    def __init__(self, coeffs: np.ndarray):
        self._polys: list = [None] * len(coeffs)
        self._u = coeffs
        _check_family(len(coeffs), self.p(0) if len(coeffs) else None)

    @property
    def num_subspaces(self) -> int:
        return len(self._polys).bit_length() - 1

    def p(self, mask: int) -> QPoly:
        poly = self._polys[mask]
        if poly is None:
            u_poly = QPoly(int(a) for a in self._u[mask])
            poly = self._polys[mask] = substitute_one_minus_t(u_poly)
        return poly

    @property
    def top(self) -> QPoly:
        """p_S for the full index set."""
        return self.p(len(self._polys) - 1)


def _zeta(f: np.ndarray, m: int) -> None:
    """In place: f[S] <- sum of f[X] over X subset of S (rows are masks)."""
    n = f.shape[1]
    for i in range(m):
        view = f.reshape(-1, 2, 1 << i, n)
        view[:, 1] += view[:, 0]


def _peak(a: np.ndarray) -> int:
    return int(np.max(np.abs(a)))


def compute_ps_family(d: DimensionFunction) -> PSFamily:
    """Solve the defining congruences for all p_S, one cardinality at a time.

    For nonempty S with subset codimension c_S, p_S is the unique polynomial
    of degree < c_S with sum over X subsets of S of (-t)^|X| p_X divisible by
    (1-t)^{c_S}.  Dividing by (-t)^s, s = |S| (t is a unit mod (1-t)^{c_S}):

        p_S = -(-t)^-s a(S)  mod (1-t)^{c_S},
        a(S) = sum of (-t)^|X| p_X over X strictly inside S.

    All the work is on length-n rows of u-coefficients mod u^n, u = 1 - t:
    t is a backward difference and t^-1 = sum_j u^j a prefix sum.  Layer k
    (all |X| = k) takes k differences, and their zeta transform over all
    2^m masks (the ranked transform of Bjorklund, Husfeldt, Kaski and
    Koivisto, "Fourier meets Mobius: fast subset convolution", STOC 2007)
    adds its share of a(S) for every S at once; layer s = k + 1 then has
    all of a, and s prefix sums and truncation to c_S terms give p_S.  The
    cost is O(m^2 2^m n) integer operations, vectorised over masks.

    Arrays are int64 while two bounds, measured before each step, stay
    below 2^62: max|a| + C(m, k) 2^k max|p_X| before layer k's differences
    (a zeta row sums at most C(m, k) rows, a difference at most doubles
    one), and C(n-1+s, s) max|a(S)| over |S| = s before the prefix sums
    (their weights total at most that binomial).  Past either the same
    code continues on object arrays of Python ints.  Invalid tables never
    reach this point: ``DimensionFunction`` rejects them.
    """
    m, n = d.num_subspaces, d.ambient_dim
    size = 1 << m
    codims = n - np.array(d.dims_by_mask, dtype=np.int64)
    masks = np.arange(size)
    popcount = np.zeros(size, dtype=np.int64)
    for i in range(m):
        popcount += (masks >> i) & 1
    layers = [np.flatnonzero(popcount == k) for k in range(m + 1)]
    kept = np.arange(n) < codims[:, None]
    p = np.zeros((size, n), dtype=np.int64)
    p[0, 0] = 1
    a = np.zeros_like(p)
    for k in range(m):
        if _peak(a) + math.comb(m, k) * 2**k * _peak(p[layers[k]]) >= INT64_SAFE:
            p, a = p.astype(object, copy=False), a.astype(object, copy=False)
        q = p[layers[k]]
        for _ in range(k):
            q[:, 1:] -= q[:, :-1]
        z = np.zeros_like(p)
        z[layers[k]] = -q if k % 2 else q
        _zeta(z, m)
        a += z
        s, nxt = k + 1, layers[k + 1]
        if math.comb(n - 1 + s, s) * _peak(a[nxt]) >= INT64_SAFE:
            p, a = p.astype(object, copy=False), a.astype(object, copy=False)
        r = a[nxt]
        for _ in range(s):
            r = np.cumsum(r, axis=1)
        p[nxt] = np.where(kept[nxt], r if s % 2 else -r, 0)
    return PSFamily(p)


@dataclass(frozen=True)
class HilbertSeriesJ:
    """Hilbert series of the product ideal: numerator/(1-t)^n.

    The numerator is t^m p(t) where m is the number of subspaces, so all
    coefficients below degree m vanish and deg p <= n-1.
    """

    numerator: QPoly
    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be at least 1")
        if any(self.numerator.coeff(i) for i in range(self.m)):
            raise ValueError("numerator must be divisible by t^m")
        if self.numerator.degree - self.m > self.n - 1:
            raise ValueError("numerator degree exceeds m + n - 1")

    @property
    def p(self) -> QPoly:
        """The numerator with t^m divided out."""
        return QPoly(self.numerator.coeffs[self.m :])

    def coefficients(self, order: int) -> tuple[Scalar, ...]:
        return expand_rational(self.numerator, self.n, order)

    def table(self, max_degree: int) -> tuple[int, ...]:
        """Graded dimensions dim J_d for d = 0..max_degree."""
        values = self.coefficients(max_degree)
        if any(v.denominator != 1 or v < 0 for v in values):
            raise ArithmeticError("series coefficients must be naturals")
        return tuple(int(v) for v in values)

    def hilbert_polynomial(self) -> "HilbertPolynomial":
        return hilbert_polynomial_from_numerator(self.numerator, self.n)

    def __str__(self) -> str:
        return f"({self.numerator.to_str()})/(1 - t)^{self.n}"


def hilbert_series_J(d: DimensionFunction) -> HilbertSeriesJ:
    """Hilbert series of the product ideal, t^m p(t)/(1-t)^n."""
    family = compute_ps_family(d)
    return HilbertSeriesJ(
        numerator=family.top.shift(d.num_subspaces),
        n=d.ambient_dim,
        m=d.num_subspaces,
    )


@dataclass(frozen=True)
class BettiTable:
    """Betti numbers of the product ideal's linear resolution.

    betti[i] counts generators in homological degree i; all of them sit in
    internal degree m + i, so the graded table is determined by the list.
    """

    betti: tuple[int, ...]
    m: int

    def __init__(self, betti: Sequence[int], m: int):
        betti = tuple(int(b) for b in betti)
        if any(b < 0 for b in betti):
            raise ValueError("Betti numbers must be nonnegative")
        if betti and betti[-1] == 0:
            raise ValueError("trailing zero Betti numbers must be trimmed")
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "m", m)

    @property
    def projective_dimension(self) -> int:
        return len(self.betti) - 1

    def graded(self) -> dict[tuple[int, int], int]:
        """Nonzero graded Betti numbers as {(i, internal degree): count}."""
        return {
            (i, self.m + i): b for i, b in enumerate(self.betti) if b != 0
        }

    def __str__(self) -> str:
        return ", ".join(f"beta_{i} = {b}" for i, b in enumerate(self.betti))


def betti_numbers(hs: HilbertSeriesJ) -> BettiTable:
    """Read Betti numbers off the numerator: p(t) = sum (-1)^i beta_i t^i.

    Raises ValueError when the coefficients fail to alternate in sign or are
    not integers; either signals invalid input, since the resolution forces
    alternation.
    """
    p = hs.p
    values = []
    for i, c in enumerate(p.coeffs):
        signed = c if i % 2 == 0 else -c
        if signed < 0 or signed.denominator != 1:
            raise ValueError(
                f"coefficient {c} of t^{i} breaks the alternating sign pattern"
            )
        values.append(int(signed))
    return BettiTable(values, hs.m)


def _transversal_weights(codims: Sequence[int], n: int, order: int) -> list[int]:
    """Coefficients w of prod (1 - u^{c_i}) mod u^order, as Python ints.

    Multiplying by 1 - u^c is w_j -= w_{j-c}, taken from the top down.
    """
    if any(c < 1 or c > n for c in codims):
        raise ValueError("codimensions must lie in 1..n")
    w = [1] + [0] * (order - 1)
    for c in codims:
        for j in range(order - 1, c - 1, -1):
            w[j] -= w[j - c]
    return w


def transversal_series(codims: Sequence[int], n: int) -> RationalFunction:
    """The closed-form series prod(1-(1-t)^{c_i}) / (1-t)^n.

    The numerator is prod (1 - u^{c_i}) read at u = 1 - t.  For a
    transversal arrangement this series differs from the series of both the
    product ideal and the intersection ideal by polynomials.
    """
    w = _transversal_weights(codims, n, sum(codims) + 1)
    return substitute_one_minus_t(QPoly(w)), n


def _as_rational(x: Union[HilbertSeriesJ, RationalFunction]) -> RationalFunction:
    if isinstance(x, HilbertSeriesJ):
        return x.numerator, x.n
    numerator, power = x
    return numerator, power


def is_series_difference_polynomial(
    a: Union[HilbertSeriesJ, RationalFunction],
    b: Union[HilbertSeriesJ, RationalFunction],
) -> bool:
    """True iff the two series differ by a polynomial.

    Both series must be given over the same power of (1-t); the difference is
    a polynomial exactly when (1-t)^power divides the numerator difference.
    """
    num_a, power_a = _as_rational(a)
    num_b, power_b = _as_rational(b)
    if power_a != power_b:
        raise ValueError("series must share a common denominator power")
    return not poly_mod_one_minus_t_pow(num_a - num_b, power_a)


def transversal_hilbert_function(codims: Sequence[int], n: int, d: int) -> int:
    """Alternating binomial sum for the graded dimension in degree d.

    The sum of (-1)^|S| C(d+n-1-c_S, n-1-c_S) over subsets S (empty set
    included) whose total codimension c_S = sum of c_i stays below n depends
    on S only through c_S, so it is sum_{c<n} w_c C(d+n-1-c, n-1-c) with
    w the coefficients of prod (1 - u^{c_i}) mod u^n, which take O(m n)
    steps.  For a transversal arrangement this equals dim J_d = dim I_d
    whenever d >= m.
    """
    w = _transversal_weights(codims, n, n)
    if d < 0:
        return 0
    return sum(wc * math.comb(d + n - 1 - c, n - 1 - c) for c, wc in enumerate(w))


@dataclass(frozen=True)
class HilbertPolynomial:
    """Polynomial in d matching the series coefficients for large d."""

    coeffs: QPoly

    @property
    def degree(self) -> int:
        return self.coeffs.degree

    def __call__(self, d: Scalar) -> Scalar:
        return self.coeffs.evaluate(d)

    def to_str(self, var: str = "d") -> str:
        return self.coeffs.to_str(var)

    def __str__(self) -> str:
        return self.to_str()


def hilbert_polynomial_from_numerator(numerator: QPoly, n: int) -> HilbertPolynomial:
    """Hilbert polynomial of a series numerator/(1-t)^n.

    With numerator = sum_k b_k u^k in u = 1 - t, the terms k >= n are
    polynomials in t and the term b_k u^k / u^n has coefficient
    C(d + r, r) = (d + 1) ... (d + r) / r! at t^d, r = n-1-k.  Scaled by
    (n-1)! the sum over k < n has the integer-weighted terms
    b_k ((n-1)!/r!) (d + 1) ... (d + r), the product built one factor at a
    time; each coefficient is divided by (n-1)! once at the end.
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    b = substitute_one_minus_t(numerator)
    denominator = scale = math.factorial(n - 1)
    product = [1]
    total = [0] * n
    for r in range(n):
        if r:
            scale //= r
            product = [x * r + y for x, y in zip(product + [0], [0] + product)]
        weight = b.coeff(n - 1 - r) * scale
        for i, c in enumerate(product):
            total[i] += weight * c
    return HilbertPolynomial(QPoly(Fraction(c, denominator) for c in total))
