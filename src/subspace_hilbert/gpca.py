"""Recovering subspace codimensions from Hilbert-function data.

Two halves.  First, estimating graded dimensions from sample points: the
space of degree-d forms vanishing on a point set has dimension C(d+n-1, n-1)
minus the rank of the evaluation matrix, and with enough generic points per
subspace this reproduces the arrangement's own graded dimensions.  The
matrices of consecutive degrees come from the oracle's monomial recursion
(``_evaluations``), and exact clouds close them by ``linalg.kernel_leads``
with the carried leads (``monomials.multiples``), as the oracle does
(``estimate_hilbert_values``).  Second, exact recovery: given the values
of the Hilbert polynomial at the n consecutive degrees m..m+n-1 for a
transversal arrangement, integer difference steps turn them into the
coefficients of the product of the (1 - t^{c_i}), mod t^n, and those yield
the multiset of codimensions.

Codimension-n components (the zero subspace) are invisible to recovery: they
contribute a factor congruent to 1, so they surface only through the final
consistency check that the multiplicities account for all m subspaces.
Transversality itself is an assumption, not something this module verifies;
inconsistent inputs are flagged whenever a check fails, but a non-transversal
source can evade detection.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .arrangement import Arrangement
from .linalg import INT64_SAFE, PRIME, approx_rank, kernel_leads, primitive_int_vector
from .monomials import check_monomial_cap, multiples, split_first_variable

Number = Union[int, float, Fraction]


class InconsistentDataError(ValueError):
    """Hilbert values incompatible with a transversal arrangement of m subspaces."""


EMPTY_CLOUD = "cannot recover from an empty point cloud"


@dataclass(frozen=True)
class PointCloud:
    """Sample points spanning rays inside an arrangement.

    Entries are exact rationals unless any coordinate is a float, in which
    case the whole cloud switches to approximate mode.
    """

    ambient_dim: int
    points: tuple[tuple, ...]
    exact: bool

    def __init__(self, ambient_dim: int, points: Iterable[Sequence[Number]]):
        pts = [tuple(p) for p in points]
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        exact = all(
            not isinstance(x, float) for p in pts for x in p
        )
        out = []
        for p in pts:
            if len(p) != ambient_dim:
                raise ValueError("point length does not match ambient dimension")
            if all(x == 0 for x in p):
                raise ValueError("zero vectors span no ray; drop them from the cloud")
            if exact:
                # parsed entries are Fractions already; convert the rest
                out.append(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in p))
            else:
                coords = tuple(float(x) for x in p)
                if not all(map(math.isfinite, coords)):
                    raise ValueError("point entries must be finite")
                out.append(coords)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "points", tuple(out))
        object.__setattr__(self, "exact", exact)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def rays(self) -> tuple[tuple[int, ...], ...]:
        """The distinct rays of the cloud, as primitive integer vectors with
        a positive first nonzero entry, in order of first appearance.

        Points on one ray give evaluation rows that agree up to a nonzero
        factor, so the rank of the evaluation matrix is the rank of its rows
        at these vectors.  Computed once per cloud, for every degree.
        """
        rays = {}
        for p in self.points:
            ray = primitive_int_vector(p)
            if next(x for x in ray if x) < 0:
                ray = [-x for x in ray]
            rays.setdefault(tuple(ray), None)
        return tuple(rays)


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered codimension data for an arrangement of m subspaces.

    multiplicities[i-1] counts subspaces of codimension i (i = 1..n-1);
    codims is the sorted expansion of that multiset.
    """

    ambient_dim: int
    multiplicities: tuple[int, ...]
    codims: tuple[int, ...]

    def __init__(self, ambient_dim: int, multiplicities: Sequence[int]):
        multiplicities = tuple(int(r) for r in multiplicities)
        if len(multiplicities) != ambient_dim - 1:
            raise ValueError("need one multiplicity per codimension 1..n-1")
        if any(r < 0 for r in multiplicities):
            raise ValueError("multiplicities must be nonnegative")
        codims = tuple(
            c for c, r in enumerate(multiplicities, start=1) for _ in range(r)
        )
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "multiplicities", multiplicities)
        object.__setattr__(self, "codims", codims)

    @property
    def dims(self) -> tuple[int, ...]:
        """Subspace dimensions n - c, sorted ascending."""
        return tuple(sorted(self.ambient_dim - c for c in self.codims))


def estimate_hilbert_value(pc: PointCloud, d: int, tol: float | None = None) -> int:
    """Dimension of the degree-d forms vanishing on every point of the cloud.

    Builds the evaluation matrix (one row per point, one column per degree-d
    monomial) and returns C(d+n-1, n-1) minus its rank.  Exact clouds
    evaluate at their distinct primitive integer rays instead
    (``PointCloud.rays``): scaling a point by lambda scales its row by
    lambda^d, so the rank is unchanged and every entry is an integer.  The
    matrix is int64 when max|x|^d < 2^62 bounds every entry, an object
    array of Python ints otherwise, and the exact kernel dimension is
    ``linalg.kernel_leads``'.  Float clouds (or an explicit tol) use
    tolerance-based elimination, defaulting to a relative 1e-8.

    The one-degree case of ``estimate_hilbert_values``.

    Raises MonomialCapExceeded, before any matrix is built, when degree d
    needs more monomials than ``monomials.check_monomial_cap`` allows, and
    ValueError when a float evaluation overflows or is not finite.
    """
    return estimate_hilbert_values(pc, [d], tol)[0]


def estimate_hilbert_values(
    pc: PointCloud, degrees: Iterable[int], tol: float | None = None
) -> list[int]:
    """``estimate_hilbert_value`` at each of the ascending consecutive degrees.

    Each degree's matrix is built from the last (``_evaluations``).  Exact
    clouds close each degree by ``linalg.kernel_leads``, whose kernel is
    the forms vanishing on the rays, with the ``multiples`` of the last
    degree's leads as heads where that degree proved them.  A form that
    vanishes on the rays vanishes times x_j too, and the columns run through
    the monomials in decreasing lex order, which multiplication keeps: a
    vanishing form's leading monomial, its last nonzero column, is its
    lex-smallest.  A degree whose certificate proves no pivots
    (``certified_pivots`` proves none on its shortcut) leaves the next
    degree to a certificate too.

    The arrangement's ideal is generated in degrees <= m (Derksen and
    Sidman, 2002) and in generic coordinates its initial ideal has no
    generators past m either (Bayer and Stillman, 1987), so after the first
    degree of a recovery nearly every degree closes by its heads.  That only
    says how often; ``kernel_leads`` is exact for any cloud.

    The monomial cap is checked per degree, in ascending order, just before
    that degree's matrix is built.  Float clouds and an explicit tol rank
    every degree by ``approx_rank``.
    """
    degrees = list(degrees)
    if any(d < 0 for d in degrees):
        raise ValueError("degree must be nonnegative")
    if degrees and degrees != list(range(degrees[0], degrees[0] + len(degrees))):
        raise ValueError("degrees must be ascending and consecutive")
    n = pc.ambient_dim
    exact = pc.exact and tol is None
    points = pc.rays if exact else pc.points
    # lazy: nothing is built before the first degree's cap check
    matrices = islice(_evaluations(points, n), min(degrees, default=0), None)
    values = []
    leading = None  # the previous degree's leading monomials, where proven
    for d in degrees:
        check_monomial_cap(n, d)
        if not pc.points:
            values.append(math.comb(d + n - 1, n - 1))
        elif exact:
            heads = None if leading is None else multiples(leading, n, d - 1)
            value, leading = kernel_leads(next(matrices), heads, PRIME)
            values.append(value)
        else:
            message = f"the degree-{d} monomials of these points do not fit a float"
            try:
                matrix = next(matrices)
            except OverflowError:  # a Fraction past the float range
                raise ValueError(message) from None
            if not np.isfinite(matrix).all():
                raise ValueError(message)
            rank = approx_rank(matrix, rel_tol=1e-8 if tol is None else tol)
            values.append(matrix.shape[1] - rank)
    return values


def _evaluations(points: Sequence[Sequence[Number]], n: int) -> Iterator[np.ndarray]:
    """The evaluation matrices at the points in degrees d = 0, 1, 2, ...:
    entry (k, i) of the degree-d one is monomial i of degree d at point k.

    With x_j the first variable of x^beta, x^beta is x_j times x^beta / x_j
    (``monomials.split_first_variable``), so each degree is one gather and
    product of the last, as in ``oracle._substitutions``.  Integer points
    give entries of at most top^d in absolute value, top the largest
    |coordinate|: int64 while top^d < 2^62, Python ints from there on.
    Other points are taken as float64; an entry past its range is inf or nan.
    """
    x = np.array(points, dtype=object).reshape(len(points), n)
    top = max(map(abs, x.flat), default=0)
    if not all(isinstance(c, int) for c in x.flat):
        x = x.astype(np.float64)
    elif top < INT64_SAFE:
        x = x.astype(np.int64)
    m = np.ones((len(x), 1), dtype=x.dtype)
    d = 0
    while True:
        yield m
        d += 1
        if x.dtype == np.int64 and top**d >= INT64_SAFE:
            x, m = x.astype(object), m.astype(object)
        first, parents = split_first_variable(n, d)
        with np.errstate(over="ignore", invalid="ignore"):
            m = x[:, first] * m[:, parents]


def recover_codimensions(
    values: Sequence[Union[int, Fraction]], m: int, n: int
) -> RecoveryResult:
    """Recover the codimension multiset from n Hilbert-polynomial values.

    values[r] must be the Hilbert function of the arrangement's vanishing
    ideal at degree m+r, for r = 0..n-1, with the arrangement transversal and
    m the number of subspaces.  Everything is exact on Python ints, in
    O(n^2) big-integer operations for any m (only the result's codims tuple
    has m entries):

    - the values belong to the polynomial h(d) = sum_{c<n} P[c]
      C(d+n-1-c, n-1-c), where P is the product of the (1-t^{c_i}) mod t^n
      (``transversal_hilbert_function`` sums the same product's
      coefficients, in u = 1-t);
    - the j-th forward difference of C(d+k, k) is C(d+k, k-j), so the j-th
      difference of the values at degree m is sum_c P[c]
      C(m+n-1-c, n-1-c-j): unitriangular in P, solved from the top
      difference (which is P[0]) down;
    - each codimension's multiplicity is r_c = -P[c] once the smaller ones
      are divided out, and dividing by (1-t^c)^r multiplies by
      sum_j C(j+r-1, j) t^{cj}.

    Raises InconsistentDataError when any step contradicts that model: a
    non-integer value (exactly when P is not integral, since values at n
    consecutive degrees and P determine each other unimodularly), constant
    term != 1, a negative multiplicity or one past the subspaces left, or
    multiplicities that fail to account for all m subspaces (codimension-n
    components are invisible and surface here).
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    if m < 1:
        raise ValueError("the arrangement must have at least one subspace")
    if len(values) != n:
        raise ValueError(f"need exactly {n} values at degrees {m}..{m + n - 1}")
    h = [int(v) for v in values]
    for r, (v, x) in enumerate(zip(values, h)):
        if v != x:
            raise InconsistentDataError(
                f"Hilbert value {v} at degree {m + r} is not an integer"
            )
    differences = []  # differences[j]: the j-th forward difference at m
    while h:
        differences.append(h[0])
        h = [y - x for x, y in zip(h, h[1:])]
    product: list[int] = []
    for k in range(n):
        known = sum(w * math.comb(m + n - 1 - c, k - c) for c, w in enumerate(product))
        product.append(differences[n - 1 - k] - known)
    if product[0] != 1:
        raise InconsistentDataError(
            "series constant term is not 1; values do not come from a "
            "transversal arrangement with this m"
        )
    multiplicities: list[int] = []
    for c in range(1, n):
        r_c = -product[c]
        left = m - sum(multiplicities)
        if not 0 <= r_c <= left:
            raise InconsistentDataError(
                f"multiplicity for codimension {c} came out as {r_c}, "
                f"outside 0..{left}"
            )
        multiplicities.append(r_c)
        for k in range(n - 1, c - 1, -1):
            product[k] += sum(
                math.comb(j + r_c - 1, j) * product[k - c * j]
                for j in range(1, k // c + 1)
            )
    if sum(multiplicities) != m:
        raise InconsistentDataError(
            f"recovered {sum(multiplicities)} subspaces out of {m}; "
            "codimension-n components are invisible to this recovery"
        )
    return RecoveryResult(n, multiplicities)


def end_to_end_recover(
    pc: PointCloud, m: int, tol: float | None = None
) -> RecoveryResult:
    """Estimate Hilbert values from points, then recover codimensions.

    The cloud must be nonempty; its ambient dimension supplies n, and the
    values at degrees m..m+n-1 feed recover_codimensions.
    """
    if not pc.points:
        raise ValueError(EMPTY_CLOUD)
    n = pc.ambient_dim
    values = estimate_hilbert_values(pc, range(m, m + n), tol)
    return recover_codimensions(values, m, n)


# Draws per sample point before a repeated ray is accepted; the -9..9
# combinations hold only about a hundred rays on a plane.
_RAY_DRAWS = 100


def sample_points(a: Arrangement, per_subspace: int, seed: int) -> PointCloud:
    """Deterministic rational sample points drawn from each subspace.

    Each point is a random small-integer combination of the subspace's basis
    vectors; zero combinations are redrawn, and on subspaces of dimension 2
    or more so are combinations whose ray (up to sign) was already drawn,
    up to _RAY_DRAWS tries per point (a line has a single ray).  Genericity
    is empirical: enough samples per subspace make the vanishing-space
    estimates match the true graded dimensions for small degrees.
    """
    if per_subspace < 1:
        raise ValueError("need at least one point per subspace")
    rng = random.Random(seed)
    points = []
    for s in a.subspaces:
        if s.dim == 0:
            raise ValueError(
                "the zero subspace contributes no nonzero sample points"
            )
        seen: set[tuple[int, ...]] = set()
        for _ in range(per_subspace):
            for _ in range(_RAY_DRAWS):
                coeffs = [0] * s.dim
                while not any(coeffs):
                    coeffs = [rng.randint(-9, 9) for _ in range(s.dim)]
                ray = tuple(primitive_int_vector(coeffs))
                ray = max(ray, tuple(-c for c in ray))
                if s.dim == 1 or ray not in seen:
                    break
            seen.add(ray)
            points.append(
                [
                    sum(c * v[j] for c, v in zip(coeffs, s.vectors))
                    for j in range(a.ambient_dim)
                ]
            )
    return PointCloud(a.ambient_dim, points)
