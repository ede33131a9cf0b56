"""Finite unions of linear subspaces and their intersection dimensions.

An arrangement is an ordered tuple of proper subspaces of K^n.  The
combinatorial data consumed elsewhere is its dimension function: the map
sending every subset S of indices to dim of the intersection of the chosen
subspaces.  Subsets are encoded as bitmasks over subspace indices, so the
whole function is a table of length 2^m.

The codimension of an intersection is the rank of the stacked linear forms
vanishing on its members, so ``dimension_function`` needs no subspace
intersections: it ranks primitive integer forms mod a prime along a
depth-first walk of the masks, and an exact rank settles every mask whose
rank mod p falls short of the walk's upper bound.  A hand-built
``DimensionFunction`` is checked against the axioms every dimension function
satisfies (entries in 0..n, proper singletons, monotone, submodular
codimension), so the closed forms never see a table no arrangement has.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import PRIME, SubspaceBasis, certified_rank

_SUBSET_CAP_ENV = "SUBSPACE_HILBERT_SUBSET_CAP"
DEFAULT_SUBSET_CAP = 16


def env_cap(name: str, default: int) -> int:
    """A nonnegative integer cap from the environment variable, else default."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        # ASCII digits only: int() also takes signs, spaces, '_' and other
        # scripts' digits
        if not (raw.isascii() and raw.isdigit()):
            raise ValueError
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a nonnegative integer, got {raw!r}"
        ) from None


def subset_cap() -> int:
    """Maximum number of subspaces; the subset lattice has 2^m nodes."""
    return env_cap(_SUBSET_CAP_ENV, DEFAULT_SUBSET_CAP)


@dataclass(frozen=True)
class Arrangement:
    """An ordered union of proper linear subspaces of a common K^n."""

    ambient_dim: int
    subspaces: tuple[SubspaceBasis, ...]

    def __init__(self, ambient_dim: int, subspaces: Iterable[SubspaceBasis]):
        subspaces = tuple(subspaces)
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        if not subspaces:
            raise ValueError("an arrangement needs at least one subspace")
        cap = subset_cap()
        if len(subspaces) > cap:
            raise ValueError(
                f"{len(subspaces)} subspaces exceeds the subset cap of {cap}"
            )
        for s in subspaces:
            if s.ambient_dim != ambient_dim:
                raise ValueError("subspace ambient dimension mismatch")
            if s.dim >= ambient_dim:
                raise ValueError("subspaces must be proper (dim < ambient)")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "subspaces", subspaces)

    @property
    def num_subspaces(self) -> int:
        return len(self.subspaces)

    @property
    def singleton_codims(self) -> tuple[int, ...]:
        return tuple(self.ambient_dim - s.dim for s in self.subspaces)


def _as_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as plain ints; ValueError unless each is an int or a numpy
    integer (a bool is neither here).  Checked once per type."""
    values = tuple(values)
    types = set(map(type, values))
    for t in types:
        if issubclass(t, bool) or not issubclass(t, (int, np.integer)):
            bad = next(x for x in values if type(x) is t)
            raise ValueError(f"{what} must be integers, not {bad!r}")
    return values if types <= {int} else tuple(map(int, values))


def _check_axioms(n: int, m: int, dims: Sequence[int]) -> None:
    """Raise ValueError unless the table can be a dimension function.

    Checks that every entry lies in 0..n, that each single subspace is
    proper, that dims never grow when a subspace is added, and that codim
    is submodular on every local square:
    c(S+i) + c(S+j) >= c(S+i+j) + c(S), i.e. adding i to S+j lowers the
    dimension by no more than adding it to S does.  The table is viewed as
    an m-dimensional 2 x ... x 2 cube, so every check is one array
    comparison per index or pair of indices.
    """
    table = np.array(dims, dtype=np.int64)
    if table.min() < 0 or table.max() > n:
        raise ValueError(f"dimensions must lie in 0..{n}")
    if any(dims[1 << i] >= n for i in range(m)):
        raise ValueError("every single subspace must be proper (dim < ambient)")
    cube = table.reshape((2,) * m)
    for axis in range(m):
        gain = cube.take(1, axis=axis) - cube.take(0, axis=axis)
        if (gain > 0).any():
            raise ValueError("dimensions must not grow when a subspace is added")
        for other in range(axis, m - 1):
            if (gain.take(1, axis=other) < gain.take(0, axis=other)).any():
                raise ValueError("codimensions must be submodular")


def _transversal_dims(n: int, codims: Sequence[int]) -> tuple[int, ...]:
    """Dimension by mask of a transversal arrangement in K^n with these
    singleton codims: n - min(n, c_S), the sums c_S built by doubling."""
    sums = [0]
    for c in codims:
        sums += [s + c for s in sums]
    return tuple(n - min(n, s) for s in sums)


@dataclass(frozen=True)
class DimensionFunction:
    """dim of the subspace intersection for every subset of indices.

    ``dims_by_mask[mask]`` is the dimension of the intersection of the
    subspaces whose index bits are set in ``mask``; mask 0 gives the ambient
    dimension.
    """

    ambient_dim: int
    num_subspaces: int
    dims_by_mask: tuple[int, ...]

    def __init__(self, ambient_dim: int, num_subspaces: int, dims_by_mask: Sequence[int]):
        ambient_dim, num_subspaces = _as_ints(
            (ambient_dim, num_subspaces), "the ambient dimension and subspace count"
        )
        dims_by_mask = _as_ints(dims_by_mask, "dimensions")
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        if num_subspaces < 0:
            raise ValueError("the number of subspaces must be nonnegative")
        if len(dims_by_mask) != 1 << num_subspaces:
            raise ValueError("dimension table length must be 2^num_subspaces")
        if dims_by_mask[0] != ambient_dim:
            raise ValueError("the empty intersection must have the ambient dimension")
        _check_axioms(ambient_dim, num_subspaces, dims_by_mask)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "num_subspaces", num_subspaces)
        object.__setattr__(self, "dims_by_mask", dims_by_mask)

    @classmethod
    def transversal(cls, ambient_dim: int, codims: Sequence[int]) -> "DimensionFunction":
        """The dimension function a transversal arrangement with the given
        singleton codimensions must have."""
        if any(c < 1 or c > ambient_dim for c in codims):
            raise ValueError("codimensions must lie in 1..ambient_dim")
        return cls(ambient_dim, len(codims), _transversal_dims(ambient_dim, codims))

    def dim_of(self, mask: int) -> int:
        return self.dims_by_mask[mask]

    def codim_of(self, mask: int) -> int:
        return self.ambient_dim - self.dims_by_mask[mask]

    @property
    def singleton_codims(self) -> tuple[int, ...]:
        return tuple(self.codim_of(1 << i) for i in range(self.num_subspaces))


def _stacked_rank(rows: Sequence[Sequence[int]], n: int) -> int:
    """Exact rank over Q of integer vectors of length n stacked as rows."""
    return certified_rank(np.array(rows, dtype=object).reshape(len(rows), n))


def dimension_function(arr: Arrangement) -> DimensionFunction:
    """Compute the full dimension function of an arrangement.

    codim of an intersection is the rank over Q of the stacked annihilator
    forms of its subspaces (``SubspaceBasis.annihilator_forms``).  Masks are
    walked depth first, each child adding an index i above its parent's
    highest one: it copies its parent's kept rows mod p = PRIME (Python ints
    from a leading 1 on, zero at every earlier pivot) and appends the forms
    of subspace i that stay nonzero after reduction against them.

    The ceiling (rank of all the forms) is at least every codim.  The floor
    (codim of the sum of all the subspaces) is at most codim(U_S + U_i) for
    U_S the intersection over a nonempty S, and codim(S + i) = codim(S) +
    #forms_i - codim(U_S + U_i).
    So with the parent's codim exact (floor 0 for a child of the empty mask)

        rank_p(child) <= codim(child)
                      <= min(codim(parent) + #forms_i - floor, ceiling),

    and rank_p is exact where it meets the upper end; every other mask takes
    ``certified_rank`` of its own stacked forms.  A mask at the ceiling
    passes it to every superset without further work.
    """
    n = arr.ambient_dim
    m = arr.num_subspaces
    p = PRIME
    forms = [s.annihilator_forms for s in arr.subspaces]
    residues = [[[c % p for c in f] for f in fs] for fs in forms]
    ceiling = _stacked_rank([f for fs in forms for f in fs], n)
    floor = n - _stacked_rank([v for s in arr.subspaces for v in s.integer_rows], n)
    dims = [n - ceiling] * (1 << m)
    dims[0] = n

    def visit(mask: int, start: int, codim: int, kept: list) -> None:
        for i in range(start, m):
            rows = list(kept)
            for f in residues[i]:
                v = list(f)
                for lead, tail in rows:
                    c = v[lead]
                    if c:
                        v[lead:] = [(x - c * y) % p for x, y in zip(v[lead:], tail)]
                lead = next((j for j, x in enumerate(v) if x), None)
                if lead is not None:
                    scale = pow(v[lead], -1, p)
                    rows.append((lead, [x * scale % p for x in v[lead:]]))
                    if len(rows) == ceiling:
                        break
            child = mask | 1 << i
            r = len(rows)
            if r < min(codim + len(forms[i]) - (floor if mask else 0), ceiling):
                r = _stacked_rank(
                    [f for k in range(m) if child >> k & 1 for f in forms[k]], n
                )
            if r < ceiling:
                dims[child] = n - r
                visit(child, i + 1, r, rows)

    visit(0, 0, 0, [])
    return DimensionFunction(n, m, dims)


def is_transversal(df: DimensionFunction) -> bool:
    """True when every subset codimension is min(n, sum of singleton codims),
    i.e. the table is the transversal one for its singleton codimensions."""
    return df.dims_by_mask == _transversal_dims(df.ambient_dim, df.singleton_codims)


def random_arrangement(
    ambient_dim: int, dims: Sequence[int], seed: int
) -> Arrangement:
    """Deterministic pseudo-random arrangement with prescribed dimensions.

    Bases use small integer entries so downstream exact arithmetic stays
    cheap.  dims entries may be 0 (the zero subspace) but must be proper.
    """
    rng = random.Random(seed)
    subspaces = []
    for d in dims:
        if d < 0 or d >= ambient_dim:
            raise ValueError("subspace dimensions must lie in 0..ambient_dim-1")
        if d == 0:
            subspaces.append(SubspaceBasis(ambient_dim))
            continue
        for _ in range(64):
            rows = [
                [rng.randint(-3, 3) for _ in range(ambient_dim)] for _ in range(d)
            ]
            try:
                subspaces.append(SubspaceBasis(ambient_dim, rows))
            except ValueError:  # dependent rows: draw again
                continue
            break
        else:
            raise RuntimeError("failed to sample an independent basis")
    return Arrangement(ambient_dim, subspaces)
