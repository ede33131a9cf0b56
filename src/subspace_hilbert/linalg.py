"""Exact rational matrix algebra.

Reduced row echelon form, rank, kernel, subspace intersection/sum and
annihilators, all over ``fractions.Fraction``; plus a tolerance-based rank for
float matrices.  ``IntEchelon`` is an exact incremental rank accumulator over
the integers used where many large ranks are needed.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence, Union

import numpy as np

Vector = tuple[Fraction, ...]

# Entry bound for the int64 fast path in IntEchelon: a row update
# a*v - b*r is provably overflow-free when |a|*max|v| + |b|*max|r| stays
# below 2^62.
INT64_SAFE = 1 << 62


def _to_vector(entries: Iterable) -> Vector:
    return tuple(Fraction(e) for e in entries)


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

    def matvec(self, v: Sequence) -> Vector:
        vv = _to_vector(v)
        if len(vv) != self.ncols:
            raise ValueError("vector length does not match column count")
        return tuple(sum((a * b for a, b in zip(row, vv)), Fraction(0)) for row in self.entries)


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

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
    return len(rref(m)[1])


@dataclass(frozen=True)
class SubspaceBasis:
    """A linear subspace given by a tuple of independent spanning vectors."""

    ambient_dim: int
    vectors: tuple[Vector, ...]

    def __init__(self, ambient_dim: int, vectors: Iterable[Iterable] = ()):
        vectors = tuple(_to_vector(v) for v in vectors)
        if ambient_dim < 0:
            raise ValueError("negative ambient dimension")
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        if vectors and rank(QMatrix(vectors, ncols=ambient_dim)) != len(vectors):
            raise ValueError("spanning vectors are linearly dependent")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "vectors", vectors)

    @classmethod
    def span_of(cls, ambient_dim: int, vectors: Iterable[Iterable]) -> "SubspaceBasis":
        """Canonical basis (nonzero RREF rows) of the span of the vectors."""
        vectors = tuple(_to_vector(v) for v in vectors)
        if not vectors:
            return cls(ambient_dim)
        reduced, pivots = rref(QMatrix(vectors, ncols=ambient_dim))
        return cls(ambient_dim, reduced.entries[: len(pivots)])

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, v: Sequence) -> bool:
        vv = _to_vector(v)
        if all(e == 0 for e in vv):
            return True
        stacked = QMatrix(self.vectors + (vv,), ncols=self.ambient_dim)
        return rank(stacked) == self.dim


def kernel(m: QMatrix) -> SubspaceBasis:
    """Basis of the exact null space {x : m x = 0}."""
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.ncols) if c not in pivot_set]
    vectors = []
    for f in free_cols:
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            v[p] = -reduced.entries[row_idx][f]
        vectors.append(v)
    return SubspaceBasis(m.ncols, vectors)


def annihilator(s: SubspaceBasis) -> tuple[Vector, ...]:
    """Basis of linear forms vanishing on the subspace.

    A form is its coefficient vector; count is ambient_dim - dim.
    """
    if not s.vectors:
        return kernel(QMatrix((), ncols=s.ambient_dim)).vectors
    return kernel(QMatrix(s.vectors, ncols=s.ambient_dim)).vectors


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


def spans_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        return False
    stacked = QMatrix(a.vectors + b.vectors, ncols=a.ambient_dim)
    return rank(stacked) == a.dim


def primitive_int_vector(v: Sequence) -> list[int]:
    """Scale a rational vector to integers and strip the common gcd."""
    vv = _to_vector(v)
    den = reduce(math.lcm, (e.denominator for e in vv), 1)
    ints = [int(e * den) for e in vv]
    g = reduce(math.gcd, ints, 0)
    if g > 1:
        ints = [e // g for e in ints]
    return ints


def approx_rank(m, rel_tol: float = 1e-8) -> int:
    """Rank of a float matrix by elimination with partial pivoting.

    A pivot counts only if its absolute value exceeds rel_tol times the
    largest absolute entry of the original matrix.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    a = np.array(m, dtype=float)
    if a.size == 0:
        return 0
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    threshold = rel_tol * np.max(np.abs(a))
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[pivot_row, c]) <= threshold:
            continue
        a[[r, pivot_row]] = a[[pivot_row, r]]
        a[r + 1 :] -= np.outer(a[r + 1 :, c] / a[r, c], a[r])
        r += 1
    return r


class IntEchelon:
    """Incremental exact rank accumulator for integer row vectors.

    Rows are reduced fraction-free: against a kept row r with leading entry
    rl, a row v with entry c in that column becomes (rl/g)*v - (c/g)*r with
    g = gcd(rl, c).  Kept rows are primitive (gcd 1, positive leading entry)
    and indexed by pivot column.  A row stays an int64 numpy vector while
    the proven bound |rl/g|*max|v| + |c/g|*max|r| < 2^62 shows the update
    cannot overflow; when the bound fails the row's gcd is divided out and
    the multipliers recomputed before it is tried again, and only a row that
    still does not fit drops to a list of Python ints.  Exact throughout.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._by_pivot: dict[int, int] = {}
        self._rows: list[Union[np.ndarray, list[int]]] = []
        self._max: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def full(self) -> bool:
        return len(self._rows) == self.ncols

    @property
    def rows(self) -> tuple[Union[np.ndarray, list[int]], ...]:
        """The reduced rows kept so far (same span as everything added).

        Rows whose entries fit int64 are numpy arrays, the others lists of
        Python ints.  Callers must not mutate the returned rows.
        """
        return tuple(self._rows)

    @staticmethod
    def _first_nonzero(v, start: int) -> int | None:
        if isinstance(v, np.ndarray):
            nz = v[start:].nonzero()[0]
            return start + int(nz[0]) if nz.size else None
        for i in range(start, len(v)):
            if v[i]:
                return i
        return None

    @staticmethod
    def _strip(v) -> tuple[Union[np.ndarray, list[int]], int]:
        """Divide out the gcd; return (vector, exact max abs entry).

        A list comes back as an int64 array when its entries fit.
        """
        if isinstance(v, np.ndarray):
            g = int(np.gcd.reduce(v))
            if g > 1:
                v = v // g
            return v, int(np.max(np.abs(v)))
        g = math.gcd(*v)
        if g > 1:
            v = [e // g for e in v]
        m = max(map(abs, v))
        if m < INT64_SAFE:
            return np.array(v, dtype=np.int64), m
        return v, m

    def truncate(self, rank: int) -> None:
        """Drop every row kept after the first ``rank``.

        Kept rows are never changed by later additions, so the echelon is
        then exactly as it was when it had that rank.
        """
        if rank < len(self._rows):
            del self._rows[rank:]
            del self._max[rank:]
            self._by_pivot = {p: i for p, i in self._by_pivot.items() if i < rank}

    def add(self, row: Sequence[int]) -> bool:
        """Reduce a row against the accumulated echelon; keep it if independent.

        Returns True when the row contributed a new pivot.
        """
        if len(row) != self.ncols:
            raise ValueError("row length does not match column count")
        v: Union[np.ndarray, list[int]]
        if isinstance(row, np.ndarray) and row.dtype == np.int64:
            v = row
            vmax = int(np.max(np.abs(v))) if v.size else 0
        else:
            v = [int(e) for e in row]
            vmax = max(map(abs, v), default=0)
            if vmax < INT64_SAFE:
                v = np.array(v, dtype=np.int64)
        lead = self._first_nonzero(v, 0)
        while lead is not None:
            idx = self._by_pivot.get(lead)
            if idx is None:
                v, vmax = self._strip(v)
                if v[lead] < 0:
                    v = -v if isinstance(v, np.ndarray) else [-e for e in v]
                # own the stored row: the caller may reuse its buffer
                if isinstance(v, np.ndarray) and (v is row or v.base is not None):
                    v = v.copy()
                self._by_pivot[lead] = len(self._rows)
                self._rows.append(v)
                self._max.append(vmax)
                return True
            r, rmax = self._rows[idx], self._max[idx]
            rl, c = int(r[lead]), int(v[lead])
            g = math.gcd(rl, c)
            a, b = rl // g, c // g
            if isinstance(v, np.ndarray) and isinstance(r, np.ndarray):
                bound = a * vmax + abs(b) * rmax
                if bound >= INT64_SAFE:
                    # the multipliers depend on v[lead]: recompute after the strip
                    v, vmax = self._strip(v)
                    c = int(v[lead])
                    g = math.gcd(rl, c)
                    a, b = rl // g, c // g
                    bound = a * vmax + abs(b) * rmax
                if bound < INT64_SAFE:
                    v = a * v - b * r
                    vmax = bound
                    lead = self._first_nonzero(v, lead + 1)
                    continue
            vl = v.tolist() if isinstance(v, np.ndarray) else v
            rlist = r.tolist() if isinstance(r, np.ndarray) else r
            v, vmax = self._strip([a * x - b * y for x, y in zip(vl, rlist)])
            lead = self._first_nonzero(v, lead + 1)
        return False


def int_rank(rows: Iterable[Sequence[int]], ncols: int) -> int:
    """Exact rank of a collection of integer rows."""
    ech = IntEchelon(ncols)
    for row in rows:
        ech.add(row)
        if ech.full:
            break
    return ech.rank
