"""Brute-force graded dimensions of the intersection and product ideals.

Everything here works degree by degree with exact integer linear algebra on
explicit monomial bases, with no reliance on the closed forms elsewhere in
the package; it is the ground truth those formulas are tested against.

For an arrangement V_1, ..., V_m in K^n and a subset S of indices:

* the intersection ideal's piece (I_S)_d is the kernel of the stacked
  restriction maps R_d -> K[V_i]_d, computed by substituting a parametrization
  of each V_i into every monomial;
* the product ideal's piece (J_S)_d is spanned by all products of one
  annihilating linear form per chosen subspace times a monomial of the
  complementary degree, accumulated one factor at a time.

Cost grows roughly with the cube of C(d+n-1, n-1), so calls are guarded by a
configurable monomial cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

from .arrangement import Arrangement, env_cap
from .linalg import INT64_SAFE, IntEchelon, annihilator, primitive_int_vector
from .ratpoly import binom

_MONOMIAL_CAP_ENV = "SUBSPACE_HILBERT_MONOMIAL_CAP"
_DEFAULT_MONOMIAL_CAP = 3000

SubsetLike = Union[int, Iterable[int]]


class MonomialCapExceeded(ValueError):
    """Raised when a requested degree needs more monomials than allowed."""


def monomial_cap() -> int:
    return env_cap(_MONOMIAL_CAP_ENV, _DEFAULT_MONOMIAL_CAP)


@dataclass(frozen=True)
class MonomialBasis:
    """All exponent vectors of total degree d in n variables, graded-lex.

    Within the fixed degree the order is lexicographic, largest first
    variable power first, so the basis and every matrix built on it are
    deterministic.
    """

    n: int
    d: int
    monomials: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, d: int):
        if n < 0 or d < 0:
            raise ValueError("n and d must be nonnegative")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "monomials", tuple(_exponents(n, d)))

    def __len__(self) -> int:
        return len(self.monomials)

    def position(self, exponents: tuple[int, ...]) -> int:
        return _position_map(self.n, self.d)[exponents]


def _exponents(n: int, d: int):
    if n == 0:
        if d == 0:
            yield ()
        return
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _exponents(n - 1, d - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def monomial_basis(n: int, d: int) -> MonomialBasis:
    return MonomialBasis(n, d)


@lru_cache(maxsize=None)
def _position_map(n: int, d: int) -> dict[tuple[int, ...], int]:
    return {
        exps: i for i, exps in enumerate(monomial_basis(n, d).monomials)
    }


@lru_cache(maxsize=None)
def _raise_degree_maps(n: int, d: int) -> np.ndarray:
    """maps[i, j] = position in degree d+1 of (monomial i of degree d) * x_j."""
    basis = monomial_basis(n, d)
    target = _position_map(n, d + 1)
    maps = np.empty((len(basis), n), dtype=np.intp)
    for i, exps in enumerate(basis.monomials):
        for j in range(n):
            bumped = exps[:j] + (exps[j] + 1,) + exps[j + 1 :]
            maps[i, j] = target[bumped]
    return maps


@dataclass(frozen=True)
class GradedPieceResult:
    degree: int
    dim_I: int
    dim_J: int

    def __post_init__(self):
        if self.degree < 0 or self.dim_J < 0:
            raise ValueError("negative entries")
        if self.dim_J > self.dim_I:
            raise ValueError("the product ideal sits inside the intersection")


def _as_indices(S: SubsetLike, m: int) -> tuple[int, ...]:
    if isinstance(S, int):
        if S < 0 or S >= 1 << m:
            raise ValueError("subset bitmask out of range")
        return tuple(i for i in range(m) if S >> i & 1)
    indices = sorted(set(S))
    if indices and (indices[0] < 0 or indices[-1] >= m):
        raise ValueError("subset index out of range")
    return tuple(indices)


def _integer_basis_rows(a: Arrangement, i: int) -> list[list[int]]:
    return [primitive_int_vector(v) for v in a.subspaces[i].vectors]


def _substitution_block(a: Arrangement, i: int, d: int) -> list[dict[tuple[int, ...], int]]:
    """Image of every degree-d monomial under restriction to subspace i.

    The subspace is parametrized as x = B u with integer B, so the image of
    x^alpha is the product over j of (sum_k B[k][j] u_k)^{alpha_j}, expanded
    as a dict over degree-d monomials in the parameters u.
    """
    rows_B = _integer_basis_rows(a, i)
    n = a.ambient_dim
    n_i = len(rows_B)
    linear_forms: list[dict[tuple[int, ...], int]] = []
    for j in range(n):
        form = {}
        for k in range(n_i):
            c = rows_B[k][j]
            if c:
                exps = tuple(int(k == t) for t in range(n_i))
                form[exps] = c
        linear_forms.append(form)

    def poly_mul(p, q):
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    max_power = max((exps[j] for exps in monomial_basis(n, d).monomials for j in range(n)), default=0)
    powers: list[list[dict]] = []
    for j in range(n):
        pj = [{(0,) * n_i: 1}]
        for _ in range(max_power):
            pj.append(poly_mul(pj[-1], linear_forms[j]))
        powers.append(pj)

    images = []
    for exps in monomial_basis(n, d).monomials:
        acc = {(0,) * n_i: 1}
        for j, e in enumerate(exps):
            if e:
                acc = poly_mul(acc, powers[j][e])
                if not acc:
                    break
        images.append(acc)
    return images


def dim_intersection_ideal(a: Arrangement, S: SubsetLike, d: int) -> int:
    """dim of the degree-d piece of the intersection of the chosen ideals.

    A form lies in every chosen ideal exactly when it restricts to zero on
    every chosen subspace, so the answer is C(d+n-1, n-1) minus the rank of
    the stacked substitution matrices.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = a.ambient_dim
    idxs = _as_indices(S, a.num_subspaces)
    total = len(monomial_basis(n, d))
    if not idxs:
        return total
    blocks = []
    offsets = []
    ncols = 0
    for i in idxs:
        n_i = a.subspaces[i].dim
        width = len(monomial_basis(n_i, d))
        if width:
            blocks.append((i, _substitution_block(a, i, d), n_i))
            offsets.append(ncols)
            ncols += width
    if ncols == 0:
        return total
    ech = IntEchelon(ncols)
    for row_idx in range(total):
        row = [0] * ncols
        for (i, images, n_i), off in zip(blocks, offsets):
            pos = _position_map(n_i, d)
            for exps, c in images[row_idx].items():
                row[off + pos[exps]] = c
        ech.add(row)
        if ech.full:
            break
    return total - ech.rank


def _echelon_rows(ech: IntEchelon) -> tuple[np.ndarray | None, list[list[int]]]:
    """Current reduced rows, as one int64 matrix when all rows allow it."""
    rows = ech.rows
    if all(isinstance(r, np.ndarray) for r in rows):
        if rows:
            return np.vstack(rows), []
        return np.empty((0, ech.ncols), dtype=np.int64), []
    return None, [r.tolist() if isinstance(r, np.ndarray) else list(r) for r in rows]


def dim_product_ideal(a: Arrangement, S: SubsetLike, d: int) -> int:
    """dim of the degree-d piece of the product of the chosen ideals.

    The piece is spanned by products of one annihilating form per chosen
    subspace and a monomial of degree d-|S|; the span is accumulated one
    factor at a time, reducing to an independent set after each factor, which
    spans the same space by bilinearity of multiplication.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = a.ambient_dim
    idxs = _as_indices(S, a.num_subspaces)
    k = len(idxs)
    if not idxs:
        return len(monomial_basis(n, d))
    if d < k:
        return 0

    matrix: np.ndarray | None = np.eye(len(monomial_basis(n, d - k)), dtype=np.int64)
    big_rows: list[list[int]] = []
    for step, i in enumerate(idxs):
        forms = [primitive_int_vector(f) for f in annihilator(a.subspaces[i])]
        e = d - k + step
        maps = _raise_degree_maps(n, e)
        ncols = len(monomial_basis(n, e + 1))
        ech = IntEchelon(ncols)
        if matrix is not None:
            row_max = int(np.max(np.abs(matrix))) if matrix.size else 0
            coeff_max = max(abs(c) for f in forms for c in f)
            if row_max and coeff_max and n * row_max * coeff_max >= INT64_SAFE:
                big_rows = [list(map(int, r)) for r in matrix]
                matrix = None
        if matrix is not None:
            for f in forms:
                out = np.zeros((matrix.shape[0], ncols), dtype=np.int64)
                for j, c in enumerate(f):
                    if c:
                        out[:, maps[:, j]] += c * matrix
                for row in out:
                    ech.add(row)
                    if ech.full:
                        break
                if ech.full:
                    break
        else:
            for w in big_rows:
                for f in forms:
                    out_list = [0] * ncols
                    for j, c in enumerate(f):
                        if c:
                            col = maps[:, j]
                            for src, val in enumerate(w):
                                if val:
                                    out_list[col[src]] += c * val
                    ech.add(out_list)
        matrix, big_rows = _echelon_rows(ech)
    if matrix is not None:
        return matrix.shape[0]
    return len(big_rows)


def hilbert_table(
    a: Arrangement, d_max: int, cap: int | None = None
) -> list[GradedPieceResult]:
    """Oracle dimensions of both ideals (full index set) for d = 0..d_max.

    Refuses degrees whose monomial count exceeds the cap (argument, else the
    SUBSPACE_HILBERT_MONOMIAL_CAP environment variable, else 3000).
    """
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    limit = monomial_cap() if cap is None else cap
    n = a.ambient_dim
    count = binom(d_max + n - 1, n - 1)
    if count > limit:
        raise MonomialCapExceeded(
            f"degree {d_max} in {n} variables needs {count} monomials, "
            f"above the cap of {limit}"
        )
    full = (1 << a.num_subspaces) - 1
    results = []
    for d in range(d_max + 1):
        results.append(
            GradedPieceResult(
                degree=d,
                dim_I=dim_intersection_ideal(a, full, d),
                dim_J=dim_product_ideal(a, full, d),
            )
        )
    return results
