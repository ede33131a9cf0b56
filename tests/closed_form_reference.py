"""Slow, readable references for the closed-form engines.

``reference_ps_family`` solves the p_S congruences over ``Fraction`` by a walk
over all pairs X subset of S (3^m polynomial products), and
``reference_dimension_function`` intersects subspaces by ``Fraction`` RREF,
one mask at a time.  The package computes both with integer arithmetic; the
tests compare the two routes.
"""

from __future__ import annotations

from subspace_hilbert.arrangement import Arrangement, DimensionFunction
from subspace_hilbert.hilbert import PSFamily
from subspace_hilbert.linalg import QMatrix, SubspaceBasis, intersect
from subspace_hilbert.ratpoly import (
    ONE,
    ONE_MINUS_T,
    ZERO,
    QPoly,
    poly_mod_one_minus_t_pow,
)


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
        polys[mask] = poly_mod_one_minus_t_pow(
            signed * inverse_of_t_mod(c) ** size, c
        )
    return PSFamily(polys)


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

