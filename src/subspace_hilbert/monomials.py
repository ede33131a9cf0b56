"""The monomial basis both engines work on, the tables indexed by it, and
the cap on its size.

The oracle's matrices have a row or column per degree-d monomial in n
variables, and so do point recovery's evaluation matrices (the Veronese
map).  Within a degree the order is lexicographic, largest first variable
power first (``exponents``), so every matrix built on it is deterministic.
The index tables are cached per degree and read-only, since every later
call shares them.  ``multiples`` carries leading monomials up a degree,
as both engines close a degree (``linalg``).  Cost grows roughly with the
cube of C(d+n-1, n-1), so both engines refuse degrees past the cap
(``check_monomial_cap``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .arrangement import env_cap
from .ratpoly import binom

MONOMIAL_CAP_ENV = "SUBSPACE_HILBERT_MONOMIAL_CAP"
DEFAULT_MONOMIAL_CAP = 3000


class MonomialCapExceeded(ValueError):
    """Raised when a requested degree needs more monomials than allowed."""


def monomial_cap() -> int:
    return env_cap(MONOMIAL_CAP_ENV, DEFAULT_MONOMIAL_CAP)


def check_monomial_cap(n: int, d: int) -> None:
    """Raise MonomialCapExceeded when degree d in n variables has more
    monomials than the cap (the SUBSPACE_HILBERT_MONOMIAL_CAP environment
    variable, else 3000)."""
    limit = monomial_cap()
    count = binom(d + n - 1, n - 1)
    if count > limit:
        raise MonomialCapExceeded(
            f"degree {d} in {n} variables needs {count} monomials, "
            f"above the cap of {limit}"
        )


@lru_cache(maxsize=None)
def exponents(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of total degree d in n variables, graded-lex:
    lexicographic within the degree, largest first variable power first.
    One variable has the one vector (d,): building it from every first power
    would make a table to degree D cost O(D^2)."""
    if n < 0 or d < 0:
        raise ValueError("n and d must be nonnegative")
    if n == 0:
        return ((),) if d == 0 else ()
    if n == 1:
        return ((d,),)
    return tuple(
        (first,) + rest for first in range(d, -1, -1) for rest in exponents(n - 1, d - first)
    )


@lru_cache(maxsize=None)
def _position_map(n: int, d: int) -> dict[tuple[int, ...], int]:
    return {exps: i for i, exps in enumerate(exponents(n, d))}


@lru_cache(maxsize=None)
def raise_degree_maps(n: int, d: int) -> np.ndarray:
    """maps[i, j] = position in degree d+1 of (monomial i of degree d) * x_j."""
    basis = exponents(n, d)
    target = _position_map(n, d + 1)
    maps = np.empty((len(basis), n), dtype=np.intp)
    for i, exps in enumerate(basis):
        for j in range(n):
            maps[i, j] = target[exps[:j] + (exps[j] + 1,) + exps[j + 1 :]]
    maps.flags.writeable = False
    return maps


@lru_cache(maxsize=None)
def split_first_variable(n: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    """For each degree-e monomial (e >= 1): its first variable j, and the
    position in degree e-1 of the monomial divided by x_j."""
    parent_pos = _position_map(n, e - 1)
    first, parents = [], []
    for exps in exponents(n, e):
        j = next(t for t, x in enumerate(exps) if x)
        first.append(j)
        parents.append(parent_pos[exps[:j] + (exps[j] - 1,) + exps[j + 1 :]])
    out = np.array(first, dtype=np.intp), np.array(parents, dtype=np.intp)
    for arr in out:
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def w_degrees(n: int, e: int, f: int) -> np.ndarray:
    """For each degree-e monomial in n variables, its degree in the last n - f."""
    out = np.array([sum(exps[f:]) for exps in exponents(n, e)], dtype=np.intp)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def scatter_maps(r: int, e: int, f: int, k: int) -> tuple[int, tuple]:
    """The number of degree-e monomials in r variables of degree below k in
    the last r - f and, for each y_j, the kept degree-(e-1) columns whose
    product with y_j is kept (a slice where all are) and the columns those
    products land on.  Multiplying by y_j never lowers the degree in
    y_{f+1}, ..., y_r, so the kept columns of degree e come from kept
    columns alone."""
    maps = raise_degree_maps(r, e - 1)
    low = w_degrees(r, e, f) < k
    if low.all():
        return len(low), tuple((slice(None), maps[:, j]) for j in range(r))
    column = np.cumsum(low) - 1
    column[~low] = -1
    targets = column[maps[w_degrees(r, e - 1, f) < k]]
    pairs = tuple((t >= 0, t[t >= 0]) for t in targets.T)
    for source, target in pairs:
        source.flags.writeable = target.flags.writeable = False
    return int(low.sum()), pairs


def multiples(leads: np.ndarray, n: int, e: int) -> np.ndarray:
    """The distinct leading columns of x_1, ..., x_n times degree-e forms
    with leading columns leads: LM(x_j g) = x_j LM(g) in any monomial
    order.  Ascending, read off a mask over the degree-(e+1) columns, which
    unlike ``np.unique`` does not import numpy.ma on its first call."""
    hit = np.zeros(binom(e + n, n - 1), dtype=bool)
    hit[raise_degree_maps(n, e)[leads]] = True
    return np.flatnonzero(hit)
