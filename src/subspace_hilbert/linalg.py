"""Exact integer matrix algebra.

Subspaces arrive as exact rationals and are scaled to primitive integer
rows at once (``primitive_int_vector``); ``rref``, a fraction-free
Gauss-Jordan elimination over Python ints, checks their independence and
gives their annihilator forms (``SubspaceBasis``, by ``kernel_basis``).
Integer matrices have two exact rank routes: ``certified_rank``, a rank mod
a prime certified over Q by a lifted reduced echelon form (the one
exact-rank entry point; ``certified_pivots`` also returns the pivot columns
that the certificate proves, and ``kernel_leads`` the kernel they lead),
and ``IntEchelon``, an incremental fraction-free accumulator on lists of
Python ints for callers that add rows one at a time and for the
certificate's fallback.
``echelon_mod_p`` is the GF(p) eliminator for numpy matrices of residues
(``reduce_mod_p``) and ``rank_mod_p`` its rank of an integer matrix;
``arrangement.dimension_function`` reduces its own rows of Python ints mod
``PRIME``, one subspace's forms at a time, along its walk.  ``approx_rank``
is a tolerance-based rank for float matrices.

The oracle's intersection ideal and exact point recovery close a degree of
a kernel by one rule, the standard-monomial step of Buchberger-Moller
(Marinari, Moller and Mora, "Groebner bases of ideals defined by
functionals", AAECC 1993): ``kernel_leads`` states it and its proof, and
``standard_columns_independent`` is its test mod p.  Both engines carry the
leads it returns to the next degree by ``monomials.multiples``.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

Vector = tuple[Fraction, ...]

# Bound of the int64 fast paths: a computation whose entries are proven to
# stay below 2^62 runs in int64, any other on Python ints.
INT64_SAFE = 1 << 62

# Moduli of the GF(p) eliminations.  Any prime is sound; below 2^31 a product
# of two residues stays under 2^62.  PRIME is the oracle's certificate
# modulus and the first of the primes certified_rank lifts from.
PRIME = 2**31 - 1
LIFT_PRIMES = (
    PRIME, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497,
)

# Moduli of certified_rank's exact check: below 2^25 an int64 matrix product
# of r residues per entry is exact while r < 2^13.
CHECK_PRIMES = (
    33554393, 33554383, 33554371, 33554347, 33554341, 33554317, 33554291,
    33554273, 33554267, 33554249, 33554239, 33554221, 33554201, 33554167,
    33554159, 33554137,
)


def _to_vector(entries: Iterable) -> Vector:
    return tuple(Fraction(e) for e in entries)


def rref(
    rows: Iterable[Sequence[int]], ncols: int
) -> tuple[list[list[int]], tuple[int, ...], int]:
    """Reduced row echelon form of an integer matrix, fraction-free.

    Returns its nonzero rows, their pivot columns and d > 0: row i holds d
    at pivot column i, every pivot column is d times a unit vector, and the
    rows are d times the rational reduced echelon form.  Bareiss's
    one-step elimination ("Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 1968), run
    Gauss-Jordan style: with pivot entry a at (r, c) and previous pivot
    entry b, every other row v becomes (a*v - v[c]*row_r) / b, an exact
    division whose results are minors of the matrix.  Pivots are chosen as
    for the rational form: leftmost column first, taking the first row
    (top-down) with a nonzero entry in that column.
    """
    a = [list(r) for r in rows]
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        top = a[r]
        lead = top[c]
        for k, row in enumerate(a):
            if k != r:
                f = row[c]
                a[k] = [(lead * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev = lead
    a = a[: len(pivots)]
    if prev < 0:
        a = [[-x for x in row] for row in a]
    return a, tuple(pivots), abs(prev)


def kernel_basis(
    reduced: Sequence[Sequence[int]], pivots: Sequence[int], d: int, ncols: int
) -> tuple[tuple[int, ...], ...]:
    """Primitive integer basis of the kernel of an ``rref`` result.

    For each free column f, in increasing order: v[f] = d and
    v[p_i] = -row_i[f] at the pivot columns, with the gcd divided out.
    """
    basis = []
    for f in [f for f in range(ncols) if f not in pivots]:
        v = [0] * ncols
        v[f] = d
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        g = math.gcd(*v)
        basis.append(tuple(x // g for x in v))
    return tuple(basis)


@dataclass(frozen=True)
class SubspaceBasis:
    """A linear subspace given by a tuple of independent spanning vectors.

    ``vectors`` are the caller's exact rationals and ``integer_rows`` the
    same vectors scaled to primitive integers.  One ``rref`` of the rows
    checks their independence and gives ``annihilator_forms``: primitive
    integer coefficient vectors of a basis of the linear forms vanishing on
    the subspace, ambient_dim - dim of them.  The dimension function and
    the oracle read only the integer rows and forms.
    """

    ambient_dim: int
    vectors: tuple[Vector, ...]
    integer_rows: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    annihilator_forms: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    def __init__(self, ambient_dim: int, vectors: Iterable[Iterable] = ()):
        vectors = tuple(_to_vector(v) for v in vectors)
        if ambient_dim < 0:
            raise ValueError("negative ambient dimension")
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        rows = tuple(tuple(primitive_int_vector(v)) for v in vectors)
        reduced, pivots, d = rref(rows, ambient_dim)
        if len(pivots) != len(rows):
            raise ValueError("spanning vectors are linearly dependent")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "integer_rows", rows)
        object.__setattr__(
            self, "annihilator_forms", kernel_basis(reduced, pivots, d, ambient_dim)
        )

    @property
    def dim(self) -> int:
        return len(self.vectors)


def primitive_int_vector(v: Sequence) -> list[int]:
    """Scale a vector of ints and Fractions to integers and strip the
    common gcd; the signs are kept."""
    den = reduce(math.lcm, (e.denominator for e in v), 1)
    ints = [e.numerator * (den // e.denominator) for e in v]
    g = math.gcd(*ints)
    if g > 1:
        ints = [e // g for e in ints]
    return ints


def approx_rank(m, rel_tol: float = 1e-8) -> int:
    """Rank of a float matrix by elimination with partial pivoting.

    A pivot counts only if its absolute value exceeds rel_tol times the
    largest absolute entry of the original matrix.  Raises ValueError
    unless m is 2-d with finite entries.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError("rel_tol must be finite and positive")
    a = np.array(m, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if a.size == 0:
        return 0
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
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

    Rows are lists of Python ints, reduced fraction-free: against a kept row
    r with leading entry rl, a row v with entry c in that column becomes
    (rl/g)*v - (c/g)*r with g = gcd(rl, c).  The row's gcd is divided out
    after every update whose multiplier rl/g is not 1, and once more before
    the row is kept, so kept rows are primitive with a positive leading
    entry.  They are stored by pivot column, in the order kept.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._by_pivot: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self._by_pivot)

    @property
    def full(self) -> bool:
        return len(self._by_pivot) == self.ncols

    @property
    def rows(self) -> tuple[list[int], ...]:
        """The reduced rows kept so far (same span as everything added), in
        the order kept.  Callers must not mutate the returned rows."""
        return tuple(self._by_pivot.values())

    def add(self, row: Sequence[int]) -> bool:
        """Reduce a row against the accumulated echelon; keep it if independent.

        Returns True when the row contributed a new pivot.
        """
        if len(row) != self.ncols:
            raise ValueError("row length does not match column count")
        v = [int(e) for e in row]
        for lead in range(self.ncols):
            if not v[lead]:
                continue
            r = self._by_pivot.get(lead)
            if r is None:
                g = math.gcd(*v) if v[lead] > 0 else -math.gcd(*v)
                self._by_pivot[lead] = [x // g for x in v]
                return True
            g = math.gcd(r[lead], v[lead])
            a, b = r[lead] // g, v[lead] // g
            v = [a * x - b * y for x, y in zip(v, r)]
            if a != 1 and (g := math.gcd(*v)) > 1:
                v = [x // g for x in v]
        return False


def echelon_mod_p(m: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-reduce m over GF(p) in place; return its nonzero rows and their sources.

    m is int64 with entries in [0, p), p < 2^31, so a product of two entries
    and a difference of two such products stay inside int64.  The rows come
    back in echelon form with leading entries 1, spanning the row space of
    m.  ``sources[i]`` is the index in m of the row that echelon row i was
    reduced from, so those rows of m are independent mod p.

    Column c is scanned once: the rows below the pivot row with a nonzero
    entry there are the scan's later hits, also after a swap, since the row
    swapped down was zero in column c.
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
        pivot = m[r, c:]
        if pivot[0] != 1:
            pivot *= pow(int(pivot[0]), -1, p)
            pivot %= p
        below = r + nz[1:]
        if below.size:
            block = m[below, c:]
            block -= block[:, :1] * pivot
            block %= p
            m[below, c:] = block
        r += 1
    return m[:r], sources[:r]


def reduce_mod_p(m: np.ndarray, p: int) -> np.ndarray:
    """m mod p as a fresh int64 array with entries in [0, p)."""
    return (m % p).astype(np.int64, copy=False)


def rank_mod_p(m: np.ndarray, p: int) -> int:
    """Rank over GF(p) of the integer matrix m (int64 or object ndarray)."""
    return len(echelon_mod_p(reduce_mod_p(m, p), p)[0])


def _max_abs(m: np.ndarray) -> int:
    # from max and min: abs(-2^63) wraps in int64
    return max(int(m.max(initial=0)), -int(m.min(initial=0)))


def _back_substitute(ech: np.ndarray, pivots: np.ndarray, p: int) -> np.ndarray:
    """The reduced echelon form over GF(p) of the echelon rows of
    ``echelon_mod_p``, with the given pivot columns: back-substituted over
    its pivots, last to first, so every pivot column becomes a unit vector.
    """
    ech = ech.copy()  # the r rows alone, not the buffer they were reduced in
    for i in range(len(ech) - 1, 0, -1):
        c = pivots[i]
        above = ech[:i, c].nonzero()[0]
        if above.size:
            ech[above, c:] = (ech[above, c:] - np.outer(ech[above, c], ech[i, c:])) % p
    return ech


def _symmetric_crt(residues: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """The integers in (-P/2, P/2], P the product of the primes, with the
    given int64 residues mod each prime.

    Garner's steps x + P' * ((y - x) / P' mod q) combine the primes in
    int64 while the product stays under 2^62; the other primes then only
    confirm that every entry is already exact.  An entry they contradict
    needs more than 62 bits, and the steps are finished in an object array
    of Python ints.
    """
    (modulus, x), rest = residues[0], list(residues[1:])
    while rest and modulus * rest[0][0] < INT64_SAFE:
        q, y = rest.pop(0)
        x = x + modulus * ((y - x % q) % q * pow(modulus, -1, q) % q)
        modulus *= q
    x = np.where(x > modulus // 2, x - modulus, x)
    if all(np.array_equal(x % q, y) for q, y in rest):
        return x
    x = x.astype(object)
    for q, y in rest:
        x = x + modulus * ((y - reduce_mod_p(x, q)) % q * pow(modulus, -1, q) % q).astype(object)
        modulus *= q
    return np.where(x > modulus // 2, x - modulus, x)


def _denominator(u: int, modulus: int, bound: int) -> int | None:
    """Wang's rational reconstruction of one residue: the denominator b of
    the a/b with |a| <= bound, 0 < b <= bound and a = b*u mod modulus, or
    None when the half-extended Euclidean algorithm finds none."""
    r0, r1, s0, s1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return abs(s1)


# Entries of the first reconstruction pass, which finds the denominator
# before the whole matrix is combined.
_SAMPLE = 64


def _reconstruct(residues: list[tuple[int, np.ndarray]]) -> tuple[np.ndarray, int] | None:
    """Integer matrix N and common denominator D with N = D*x mod P, where x
    has the given residues mod primes of product P.

    Both are bounded by sqrt(P / 2): N is D*x in the symmetric range, and
    while an entry of it passes the bound, the denominator of that entry
    (Wang's reconstruction) is multiplied into D.  A strided sample of the
    entries is reconstructed first, so a P too small for the true entries
    is mostly rejected before the whole matrix is combined.  Returns None
    when an entry has no reconstruction or D passes the bound.
    """
    modulus = math.prod(p for p, _ in residues)
    bound = math.isqrt(modulus // 2)
    shape = residues[0][1].shape
    flat = [(p, x.ravel()) for p, x in residues]
    step = max(1, flat[0][1].size // _SAMPLE)
    sample = _symmetric_crt([(p, x[::step]) for p, x in flat]).tolist()
    d = 1
    while True:
        # an entry of d*x mod P past the bound: in the sample, else anywhere
        scaled = (w * d % modulus for w in sample)
        u = next((v for v in scaled if bound < v < modulus - bound), None)
        if u is None:
            n = _symmetric_crt([(p, d % p * x % p) for p, x in flat])
            bad = np.flatnonzero(np.abs(n) > bound)
            if not bad.size:
                return n.reshape(shape), d
            u = int(n[bad[0]]) % modulus
        b = _denominator(u, modulus, bound)
        if b is None or d * b > bound:
            return None
        d *= b


def _lifts(residues: np.ndarray, p: int, independent: np.ndarray, pivots: np.ndarray):
    """Residues of the reduced echelon form mod p, then also mod each further
    prime of LIFT_PRIMES while it gives the same pivots, as (prime,
    residues) lists.

    ``independent`` holds rows of the matrix that are independent mod p; the
    reduced echelon form of the matrix is theirs when the rank over Q is
    len(pivots).
    """
    lifted = [(p, residues)]
    yield lifted
    for q in LIFT_PRIMES[1:]:
        ech, _ = echelon_mod_p(reduce_mod_p(independent, q), q)
        if not np.array_equal((ech != 0).argmax(axis=1), pivots):
            return
        lifted = lifted + [(q, _back_substitute(ech, pivots, q))]
        yield lifted


def _certify(m: np.ndarray, pivots: np.ndarray, n: np.ndarray, d: int) -> bool:
    """True when d*m == m[:, pivots] @ n holds over the integers.

    An entry of the difference is at most d*max|m| + r*max|m_C|*max|n| in
    absolute value, so it is zero once it vanishes mod primes whose product
    exceeds twice that bound.  The identity is checked mod CHECK_PRIMES one
    at a time until the product does; False when it fails mod one of them,
    or when the primes run out (or are too large for an exact int64 product
    of this rank) first.
    """
    r = len(pivots)
    bound = d * _max_abs(m) + r * _max_abs(m[:, pivots]) * _max_abs(n)
    product = 1
    for q in CHECK_PRIMES:
        if product > 2 * bound:
            break
        if r * q * q >= 1 << 63:
            return False
        mq = reduce_mod_p(m, q)
        rhs = mq[:, pivots] @ reduce_mod_p(n, q)
        rhs %= q
        mq *= d % q
        mq %= q
        if not np.array_equal(mq, rhs):
            return False
        product *= q
    return product > 2 * bound


def _echelon_pivots(m: np.ndarray) -> tuple[int, np.ndarray]:
    """Exact rank and pivot columns over Q by ``IntEchelon``, one row at a
    time until it is full.  Its kept rows are an echelon basis of the row
    space, so their leading columns are the pivots of the reduced form."""
    ech = IntEchelon(m.shape[1])
    for row in m.tolist():
        ech.add(row)
        if ech.full:
            break
    return ech.rank, np.array(sorted(ech._by_pivot), dtype=np.intp)


def certified_rank(matrix: np.ndarray) -> int:
    """Exact rank over Q of an integer matrix (int64 or object ndarray).

    The rank of ``certified_pivots``, which states how it is certified.
    """
    return certified_pivots(matrix)[0]


def certified_pivots(matrix: np.ndarray) -> tuple[int, np.ndarray | None]:
    """Exact rank over Q of an integer matrix (int64 or object ndarray), and
    its pivot columns over Q when the rank is certified with them.

    1. r = rank mod p1 = LIFT_PRIMES[0], with pivot columns C, by one
       ``echelon_mod_p``.  Reduction mod p never raises the rank, so
       rank_Q >= r; r = min(rows, cols) is the answer, returned before any
       back-substitution.  When r = cols every column is a pivot; when
       r = rows < cols the pivots mod p1 are not proven to be those over Q,
       and none are returned.
    2. Otherwise the echelon is back-substituted (``_back_substitute``) and
       the reduced echelon form lifted from GF(p1), GF(p2), ...: r rows
       of the matrix independent mod p1 (so over Q, and spanning its row
       space if rank_Q = r) are reduced mod each further prime, which must
       give the same pivots; the residues are combined by CRT and every
       entry recovered by rational reconstruction, as an integer matrix N
       (r x cols, N[:, C] = D*I) over one denominator D > 0.
    3. The check D*M = M[:, C] @ N over Z (``_certify``) puts every column
       of M in the span of its r columns C, so rank_Q <= r.  The columns C
       are independent mod p1, so over Q, and every other column f is a
       combination of the columns C left of it (N has reduced echelon
       shape), so C are the pivot columns over Q.
    4. When the pivots differ between primes, no reconstruction passes the
       check within LIFT_PRIMES, or the check cannot be completed, the rank
       and pivots are those of ``IntEchelon``: the leading columns of an
       echelon basis of the row space are the pivot columns of its reduced
       echelon form over Q.  The rank is exact in every case.
    """
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if m.dtype != object and not np.issubdtype(m.dtype, np.integer):
        raise ValueError("expected an integer matrix")
    if m.dtype == object and _max_abs(m) < 1 << 63:
        m = m.astype(np.int64)
    if not m.size:
        return 0, np.arange(0)
    p = LIFT_PRIMES[0]
    ech, sources = echelon_mod_p(reduce_mod_p(m, p), p)
    pivots = (ech != 0).argmax(axis=1)
    r = len(pivots)
    if r == m.shape[1]:
        return r, pivots
    if r == m.shape[0]:
        return r, None
    residues = _back_substitute(ech, pivots, p)
    for lifted in _lifts(residues, p, m[sources], pivots):
        candidate = _reconstruct(lifted)
        if candidate is not None and _certify(m, pivots, *candidate):
            return r, pivots
    return _echelon_pivots(m)


def standard_columns_independent(matrix: np.ndarray, heads: np.ndarray, p: int) -> bool:
    """Whether the columns of the integer matrix off heads, distinct column
    indices, are independent mod p; False at once when they outnumber the
    rows, True at once when there are none."""
    count = matrix.shape[1] - len(heads)
    if count > len(matrix):
        return False
    # the standard columns ranked as rows: the faster way round on the
    # oracle's blocks, and no slower on evaluation matrices
    return not count or rank_mod_p(np.delete(matrix, heads, axis=1).T, p) == count


def kernel_leads(
    matrix: np.ndarray, heads: np.ndarray | None, p: int
) -> tuple[int, np.ndarray | None]:
    """Dimension over Q of the kernel {v : matrix @ v = 0} of an integer
    matrix, and its leading columns where they are proven, else None.

    A vector's leading column is its last nonzero entry.  heads, when given,
    are distinct columns, each the leading column of an integer vector of
    the kernel, all over Q or all mod p.  Vectors with distinct leading
    columns are independent (mod p, and then so are the integer vectors over
    Q), so the kernel has dimension at least |heads|.

    1. If the standard columns, those off heads, are independent mod p
       (``standard_columns_independent``), they are independent over Q,
       since a minor nonzero mod p is nonzero.  Then rank_Q >= cols -
       |heads|, so the kernel has dimension exactly |heads|, and heads are
       as many leading columns as that dimension: all of them, over Q or
       mod p as given.  Returns (len(heads), heads), the same array.
    2. Otherwise, or without heads, ``certified_pivots`` ranks the matrix.
       Where it proves its pivots C, each other column f leads a kernel
       vector over Q: D e_f minus sum_i N[i, f] e_{C_i}, with N its reduced
       echelon form, which is zero left of each pivot.  Returns the kernel's
       dimension and those columns in ascending order, or None for the
       leads where it proves no pivots.

    Leads carry from degree to degree where the kernels are the graded
    pieces of an ideal and the columns its monomials in an order that
    multiplication keeps (u before v implies x_j u before x_j v; lex order
    is, either way round): x_j times a kernel form is a kernel form of the
    next degree, led by x_j times its lead, so ``monomials.multiples`` of
    one degree's leads are heads of the next.
    """
    if heads is not None and standard_columns_independent(matrix, heads, p):
        return len(heads), heads
    rank, pivots = certified_pivots(matrix)
    cols = matrix.shape[1]
    return cols - rank, None if pivots is None else np.delete(np.arange(cols), pivots)
