"""Exact univariate polynomials and truncated power series over the rationals.

A polynomial is a dense tuple of coefficients indexed by degree, kept in
canonical form: no trailing zero coefficient, so the zero polynomial has an
empty tuple, and each coefficient an ``int`` when it is integral and a
``fractions.Fraction`` only otherwise.  Integer polynomials (the p_S, the
series numerators, the Betti numbers) therefore run on ints alone.  A
series is a fixed-length prefix of a power series, the tuple of its
coefficients of t^0 .. t^order.  All arithmetic is exact.

``QPoly`` has no division.  The only divisor the package needs is a power of
1 - t, and in the basis u = 1 - t (``substitute_one_minus_t``, its own
inverse) reducing mod (1-t)^k is truncation to the first k coefficients.
Multiplying by 1 - t is a backward difference (one Horner step of the
change of basis) and dividing a series by it a prefix sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


def _exact(c) -> Scalar:
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _canonical(coeffs: Iterable) -> tuple[Scalar, ...]:
    out = [_exact(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class QPoly:
    """Dense polynomial in one variable with rational coefficients."""

    coeffs: tuple[Scalar, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        object.__setattr__(self, "coeffs", _canonical(coeffs))

    @classmethod
    def of(cls, *coeffs: Scalar) -> "QPoly":
        return cls(coeffs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, i: int) -> Scalar:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly(-c for c in self.coeffs)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: Union["QPoly", Scalar]) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            return QPoly(c * other for c in self.coeffs)
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, k: int) -> "QPoly":
        """Multiply by t^k."""
        if not self:
            return self
        return QPoly((0,) * k + self.coeffs)

    def evaluate(self, x: Scalar) -> Scalar:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _exact(acc)

    def to_str(self, var: str = "t") -> str:
        """Render in ascending degree with explicit signs, e.g. ``-2 + 6t - 3t^2``."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                t = var if i == 1 else f"{var}^{i}"
                body = t if mag == 1 else f"{mag}{t}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"QPoly({self.to_str()!r})"


ZERO = QPoly()
ONE = QPoly.of(1)
T = QPoly.of(0, 1)


def binom(a: int, b: int) -> int:
    """C(a, b), taken to be 0 when a < 0, b < 0, or a < b."""
    if b < 0 or a < 0 or a < b:
        return 0
    return math.comb(a, b)


def substitute_one_minus_t(p: QPoly) -> QPoly:
    """p(1-t), expanded by Horner's rule in 1 - t: each step multiplies the
    running polynomial by 1 - t (a backward difference) and adds the next
    coefficient.  Applying it twice gives back p, so it also maps
    t-coefficients to u-coefficients, u = 1 - t, and back."""
    acc: list = []
    for c in reversed(p.coeffs):
        acc = [x - y for x, y in zip(acc + [0], [0] + acc)]
        acc[0] += c
    return QPoly(acc)


def poly_mod_one_minus_t_pow(p: QPoly, k: int) -> QPoly:
    """Remainder of p under division by (1-t)^k; the unique representative of
    degree < k.  In u = 1 - t the division is by u^k, so the remainder is
    the first k u-coefficients of p."""
    if k < 0:
        raise ValueError("negative power")
    return substitute_one_minus_t(QPoly(substitute_one_minus_t(p).coeffs[:k]))


def expand_rational(
    numerator: QPoly, denom_power: int, order: int
) -> tuple[Scalar, ...]:
    """Series coefficients of numerator(t) / (1-t)^denom_power through t^order.

    The coefficient of t^d equals sum_j numerator_j * C(d-j+n-1, n-1) for
    n = denom_power >= 1 (with the ``binom`` zero conventions); multiplying by
    1/(1-t) is a running prefix sum, applied n times.
    """
    if denom_power < 0:
        raise ValueError("negative denominator power")
    if order < 0:
        raise ValueError("negative truncation order")
    coeffs = [numerator.coeff(d) for d in range(order + 1)]
    for _ in range(denom_power):
        acc = 0
        for d in range(order + 1):
            acc += coeffs[d]
            coeffs[d] = acc
    return tuple(_exact(c) for c in coeffs)


def fit_numerator(values: Sequence[Scalar], denom_power: int) -> QPoly:
    """Numerator of a rational function with denominator (1-t)^denom_power
    whose series starts with the given coefficients.

    Exact only when the true numerator degree is at most len(values)-1; the
    result is the product of the value series with (1-t)^denom_power,
    truncated at that degree.  Multiplying by 1 - t is a backward
    difference, applied denom_power times, the inverse of
    ``expand_rational``'s prefix sums.
    """
    if denom_power < 0:
        raise ValueError("negative denominator power")
    coeffs = [_exact(v) for v in values]
    for _ in range(denom_power):
        for d in range(len(coeffs) - 1, 0, -1):
            coeffs[d] -= coeffs[d - 1]
    return QPoly(coeffs)
