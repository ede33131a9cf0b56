"""Brute-force graded dimensions of the intersection and product ideals.

Everything here works degree by degree with exact integer linear algebra on
explicit monomial bases, with no reliance on the closed forms elsewhere in
the package; it is the ground truth those formulas are tested against.

For an arrangement V_1, ..., V_m in K^n and a subset S of indices:

* the intersection ideal's piece (I_S)_d is the kernel of the stacked
  restriction maps R_d -> K[V_i]_d, the images of the monomials under a
  parametrization x = B^T u of each V_i;
* the product ideal's piece (J_S)_d is spanned by all products of one
  annihilating linear form per chosen subspace times a monomial of the
  complementary degree, accumulated one factor at a time.

Two exact builders make every matrix: ``_substitutions`` the restriction
blocks and the jets below, ``_times_forms`` the products, on the monomial
basis and index maps of ``monomials``, which ``gpca`` shares.

``hilbert_table`` certifies both values of a degree with ranks over GF(p),
p = ``PRIME``.  Reducing an integer matrix mod p never raises its rank, and
J is contained in I, so

    rank_p(product matrix) <= dim J_d <= dim I_d <= total - rank_p(restriction matrix),

and where the two ends meet both values are exact.  The table works in
coordinates (w, u) in which the largest subspace V_s is {w = 0}
(``_adapted_coordinates``); there the block of V_s adds exactly c_s to the
rank, over Q and over every GF(p), and only the other blocks are
eliminated, on the rows of positive w-degree: the first of each degree,
with w first, and the only ones built (``_substitutions``).

Both ideals are also bounded from below by chains of forms carried from
degree to degree as their leading monomials, as in the symbolic
preprocessing of Faugere's F4: forms with distinct leading monomials are
independent, so their number is at most the ideal's dimension.  The
product chain is carried mod p (reductions mod p of integer forms of J
with distinct leading monomials are independent mod p, so their lifts are
independent over Q).  Through degree m it multiplies its span by the forms
of V_1, ..., V_m (``_times_forms``) and eliminates; J is generated in
degree m, so above m it multiplies the span's leading monomials alone by
x_1, ..., x_n (``multiples``), and builds the span again only in a degree
where those multiples do not close it.  The intersection chain starts
from the leads of a degree that ``linalg.kernel_leads`` proves and
multiplies them by x_1, ..., x_n (``multiples``);
I is generated in degrees <= m (Derksen and Sidman, "A sharp bound for the
Castelnuovo-Mumford regularity of subspace arrangements", Adv. Math.
2002), so above m the multiples span I_d over Q, and their count mostly
meets the upper bound; soundness does not rest on that theorem.

Where J and I differ in a degree d >= m (a pencil, say), J is closed from
above by the lattice of flats F = V_A, as in the paper, where the series
of J depends only on that lattice.  Each F lies in k_F of the V_i, so J
lies in P_F^{k_F}, P_F the ideal of F, and

    dim J_d <= U_J = total - rank_p(restriction matrix | jets along every F),

a jet block of F holding the terms of w-degree below k_F of each monomial
in coordinates (u, w) with F = {w = 0}: a substitution like that of the
restriction blocks, with fewer columns kept.  Over Q the bound is tight: a
product of ideals of linear subspaces is the intersection of the powers
(sum of I_i over A)^|A| (Conca and Herzog, "Castelnuovo-Mumford regularity
of products of ideals", Collect. Math. 2003), each of which contains
P_F^{k_F} for F = V_A.

A degree closes by ``linalg.kernel_leads``, as in point recovery: the
standard rows off a chain's leads independent mod p, else one
``certified_pivots`` (``hilbert_table`` sets out what is particular to the
oracle).

The public per-degree functions ``dim_intersection_ideal`` and
``dim_product_ideal`` work in the given coordinates and are the references
the table is tested against.

Cost grows roughly with the cube of C(d+n-1, n-1), so ``hilbert_table`` is
guarded by the monomial cap (``check_monomial_cap``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .arrangement import Arrangement
from .linalg import (
    INT64_SAFE,
    PRIME,
    IntEchelon,
    certified_rank,
    echelon_mod_p,
    kernel_basis,
    kernel_leads,
    primitive_int_vector,
    reduce_mod_p,
    rref,
    standard_columns_independent,
)
from .monomials import (
    check_monomial_cap,
    multiples,
    raise_degree_maps,
    scatter_maps,
    split_last_variable,
)
from .ratpoly import binom

SubsetLike = Union[int, Iterable[int]]
IntRows = Sequence[Sequence[int]]


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


def _substitutions(rows: IntRows, n: int, f: int, k: int, tail: int = 0) -> Iterator[np.ndarray]:
    """Images of the monomials under x = M^T y in degrees d = 0, 1, 2, ...

    M is r x n, the integer rows.  Row i of the degree-d matrix holds the
    exact image of monomial i of R_d at the y-monomials, in
    ``exponents`` order, of degree below k in y_{f+1}, ..., y_r; from d = 1
    on the rows stop after the monomials of positive degree in x_1, ...,
    x_{n-tail} (all of them at tail = 0).  With f = r that is every column:
    the restriction to the span of the rows.  With the rows a basis of K^n
    whose first f span F (``_flat_coordinates``), a form lies in P_F^k
    exactly when its image has no kept term: the jets of order k along F.

    With x_j the last variable of x^beta (``monomials.split_last_variable``),
    the image of x^beta is (sum_t M[t, j] y_t) times that of x^beta / x_j, a
    row of the last degree.  Every coefficient and partial sum is at most
    top^d in absolute value, top the largest l1 norm of a column of M: int64
    while top^d < 2^62, Python ints from there on.
    """
    r = len(rows)
    top = max((sum(abs(row[j]) for row in rows) for j in range(n)), default=0)
    M = np.array(rows, dtype=object).reshape(r, n)
    s = np.ones((1, 1), dtype=np.int64)
    e = 0
    while True:
        yield s
        e += 1
        dtype = np.int64 if top**e < INT64_SAFE else object
        last, parents = split_last_variable(n, e)
        h = len(last) - binom(e + tail - 1, tail - 1)
        coeffs = M[:, last[:h]].astype(dtype)
        prev = s[parents[:h]].astype(dtype)
        width, scatter = scatter_maps(r, e, f, k)
        s = np.zeros((h, width), dtype=dtype)
        for j, (source, target) in enumerate(scatter):
            s[:, target] += coeffs[j][:, None] * prev[:, source]


def _restriction_matrix(basis: IntRows, n: int, d: int) -> np.ndarray:
    """The degree-d restriction matrix to the span of the rows of basis
    (``_substitutions`` keeping every row and column)."""
    return next(islice(_substitutions(basis, n, len(basis), 1), d, None))


def dim_intersection_ideal(a: Arrangement, S: SubsetLike, d: int) -> int:
    """dim of the degree-d piece of the intersection of the chosen ideals.

    A form lies in every chosen ideal exactly when it restricts to zero on
    every chosen subspace, so the answer is C(d+n-1, n-1) minus the rank of
    the side-by-side restriction matrices.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = a.ambient_dim
    idxs = _as_indices(S, a.num_subspaces)
    total = binom(d + n - 1, n - 1)
    blocks = [_restriction_matrix(a.subspaces[i].integer_rows, n, d) for i in idxs]
    # by width, not dim: the zero subspace has a width-1 block at d = 0
    blocks = [b for b in blocks if b.shape[1]]
    return total - (certified_rank(np.hstack(blocks)) if blocks else 0)


def _times_forms(basis: np.ndarray, forms: IntRows, n: int, e: int) -> np.ndarray:
    """The products f * b of each linear form f with each row b of basis.

    basis holds degree-e forms over the degree-e monomials.  The result has
    one block of len(basis) rows per form, in the order of forms, over the
    degree-(e+1) monomials.  An entry sums at most n terms c * v, so the
    matrix is int64 while n * max|basis| * max|c| < 2^62 and an object
    array of Python ints from there on.
    """
    maps = raise_degree_maps(n, e)
    row_max = int(np.abs(basis).max(initial=0))
    coeff_max = max(abs(c) for f in forms for c in f)
    dtype = np.int64 if n * row_max * coeff_max < INT64_SAFE else object
    basis = basis.astype(dtype, copy=False)
    out = np.zeros((len(forms), len(basis), binom(e + n, n - 1)), dtype=dtype)
    for block, f in zip(out, forms):
        for j, c in enumerate(f):
            if c:
                block[:, maps[:, j]] += c * basis
    return out.reshape(-1, out.shape[2])


def dim_product_ideal(a: Arrangement, S: SubsetLike, d: int) -> int:
    """dim of the degree-d piece of the product of the chosen ideals.

    The piece is spanned by products of one annihilating form per chosen
    subspace and a monomial of degree d-|S|; the span is accumulated one
    factor at a time (``_times_forms``), reducing to an independent set
    after each factor, which spans the same space by bilinearity of
    multiplication.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = a.ambient_dim
    idxs = _as_indices(S, a.num_subspaces)
    k = len(idxs)
    if not idxs:
        return binom(d + n - 1, n - 1)
    if d < k:
        return 0

    matrix = np.eye(binom(d - k + n - 1, n - 1), dtype=np.int64)
    for step, i in enumerate(idxs):
        products = _times_forms(matrix, a.subspaces[i].annihilator_forms, n, d - k + step)
        ech = IntEchelon(products.shape[1])
        for row in products.tolist():
            ech.add(row)
            if ech.full:
                break
        # not np.vstack of the lists: an entry past 2^63 makes it uint64 or
        # float64; _times_forms narrows to int64 where its bound allows
        matrix = np.array(ech.rows, dtype=object)
    return matrix.shape[0]


def _transposed(blocks: list[np.ndarray], h: int) -> np.ndarray:
    """The blocks side by side, transposed, rows last to first: a matrix with
    h columns, the last the first monomial."""
    return np.hstack(blocks).T[:, ::-1] if blocks else np.zeros((0, h), dtype=np.int64)


def _flat_key(forms: IntRows, n: int) -> tuple[tuple[int, ...], ...]:
    """The primitive rows of the integer ``rref`` of forms: equal keys, equal
    spans, so one key per subspace cut out by the forms."""
    return tuple(tuple(primitive_int_vector(row)) for row in rref(forms, n)[0])


def _flats(forms: Sequence[IntRows], n: int) -> dict[tuple[tuple[int, ...], ...], int]:
    """The flats V_A = intersection of V_i over i in A (A nonempty) with
    multiplicity k_F = #{i : F inside V_i} >= 2, keyed by ``_flat_key`` of
    their annihilating forms; forms[i] are those of V_i in K^n.

    The flats are the closure of the V_i under intersection, and the forms
    of an intersection are the forms of its members stacked.  F lies in V_i
    exactly when the forms of V_i add nothing to those of F, so k_F counts
    the i with key(F + V_i) = key(F); it is also the largest |A| with
    V_A = F.
    """
    singles = list(dict.fromkeys(_flat_key(f, n) for f in forms))
    flats = dict.fromkeys(singles)
    todo = list(singles)
    while todo:
        flat = todo.pop()
        for single in singles:
            key = _flat_key(flat + single, n)
            if key not in flats:
                flats[key] = None
                todo.append(key)
    counts = {
        flat: sum(_flat_key(flat + f, n) == flat for f in forms) for flat in flats
    }
    return {flat: k for flat, k in counts.items() if k >= 2}


def _flat_coordinates(
    forms: IntRows, n: int, rows: IntRows | None = None
) -> tuple[list[list[int]], int]:
    """Coordinates (u, w) adapted to the subspace F cut out by forms.

    Returns the rows of B, a basis of F (rows if given, else ``kernel_basis``
    of the ``rref`` of the forms), then those of C, the unit vectors at the
    pivot columns P of that ``rref``; and f = dim F.  The forms restricted
    to P are invertible, so C completes B to a basis of K^n, and under
    x = B^T u + C^T w the forms vanishing on F are the linear forms in w.
    """
    reduced, pivots, scale = rref(forms, n)
    if rows is None:
        rows = kernel_basis(reduced, pivots, scale, n)
    basis = [list(v) for v in rows]
    return basis + [[int(j == c) for j in range(n)] for c in pivots], len(basis)


def _adapted_coordinates(
    a: Arrangement,
) -> tuple[int, int, list[list[list[int]]], list[tuple[tuple[int, ...], ...]]]:
    """The arrangement in coordinates (w, u) with its largest subspace {w = 0}.

    s is the first index of largest dimension and k = dim V_s.  With M the
    ``_flat_coordinates`` of V_s, its unit vectors then its integer rows,
    x = M^T y is an invertible change of coordinates, under which a form f
    in x becomes the form M f in y, and V_s gets the last k axes: w comes
    first.  One ``rref`` of each subspace's forms so mapped gives both its
    integer rows (``kernel_basis``) and its forms (the primitive rows, with
    distinct leading variables); V_s gets e_{n-k+1}, ..., e_n.  M takes
    V_s's own rows, not a ``kernel_basis`` of its forms (minors of minors of
    those rows), which keeps the mapped forms, and so the rows taken from
    them, small.  Returns s, k and the rows and forms of every subspace.
    Integers throughout.
    """
    n = a.ambient_dim
    dims = [sub.dim for sub in a.subspaces]
    s = dims.index(max(dims))
    k = dims[s]
    flat, f = _flat_coordinates(a.subspaces[s].annihilator_forms, n, a.subspaces[s].integer_rows)
    basis = flat[f:] + flat[:f]
    rows, forms = [], []
    for sub in a.subspaces:
        mapped = [
            [sum(b * c for b, c in zip(row, f)) for row in basis] for f in sub.annihilator_forms
        ]
        reduced, pivots, scale = rref(mapped, n)
        rows.append([list(v) for v in kernel_basis(reduced, pivots, scale, n)])
        forms.append(tuple(tuple(primitive_int_vector(row)) for row in reduced))
    return s, k, rows, forms


def _flat_jets(forms: Sequence[IntRows], n: int, tail: int) -> Iterator[list[np.ndarray]]:
    """The jet blocks in degrees d = 0, 1, 2, ... of every flat F with
    k_F >= 2 (``_flats`` of forms in K^n): the ``_substitutions`` of order
    k_F along F in its ``_flat_coordinates``, on the rows tail leaves.  A
    generator: nothing is built before the first ``next``, so a table that
    never asks pays nothing."""
    gens = []
    for flat, k_F in _flats(forms, n).items():
        rows, f = _flat_coordinates(flat, n)
        gens.append(_substitutions(rows, n, f, k_F, tail))
    while True:
        yield [next(g) for g in gens]


def hilbert_table(a: Arrangement, d_max: int) -> list[GradedPieceResult]:
    """Oracle dimensions of both ideals (full index set) for d = 0..d_max.

    The table works on the arrangement written in coordinates (w, u) with
    the largest subspace V_s = {w = 0}, s the first index of largest
    dimension k (``_adapted_coordinates``): an invertible linear change of
    coordinates maps I_d and J_d onto those of the image arrangement, so
    their dimensions stay.  There the restriction of x^beta to V_s is u^beta
    when beta has w-degree 0 and 0 otherwise: the block of V_s is the
    identity on the c_s = C(d+k-1, k-1) rows of w-degree 0 and zero on the
    others.  Column operations with it clear those rows of every other
    block, so the rank of all the blocks is c_s plus the rank of the other
    blocks on the rows of w-degree >= 1, exactly, over Q and over every
    GF(p).  Let h = total - c_s be the number of those rows, the first h as w
    comes first.  Degree 0 needs no rank: V_s holds the origin, so I_0 = 0.

    Each degree is bracketed by ranks mod a prime p:

        L_J <= dim J_d <= U_J <= U_I,    dim J_d, L_I <= dim I_d <= U_I,

    with U_I = h - rank_p(other restriction blocks on the h rows).  U_I >=
    dim I_d for every p, since c_s is exact and reducing an integer matrix
    mod p never raises its rank.  U_J is 0 below m, where J has no forms.
    From m on it is h - rank_p of the restriction blocks beside the jet
    blocks of the flats with k_F >= 2 (``_flats``, ``_flat_jets``), all in
    the adapted coordinates and on the h rows, beside which the block of V_s
    again adds exactly c_s.  Blocks and jets alike are the exact integer
    images of ``_substitutions`` on the h rows alone (tail k), reduced mod p
    before they are eliminated.  Over Q the kernel of all those blocks is
    the degree-d part of I and of every P_F^{k_F}, which contains J_d; and
    reduction mod p never raises a rank, so U_J >= dim J_d for every p.  The
    kernel is J_d itself (Conca and Herzog: J is the intersection of the
    (sum of I_i over A)^|A| over the nonempty index sets A, and for F = V_A
    that power contains P_F^{k_F}), so at PRIME the bound is met wherever
    rank_p is the rank over Q.  The jets are started (``_flat_jets``) at the
    first degree d >= m where L_J < dim I_d, and built in every degree after
    it; until then U_J is U_I and a table that never asks pays nothing.

    The lower ends L_J and L_I (below) count distinct leading monomials of
    forms in J and in I.  A degree closes by ``kernel_leads`` on the
    blocks' transpose, rows last to first (``_transposed``), whose kernel
    is I_d: a form's leading monomial, its first nonzero row, is its last
    nonzero column there (monomial i is column h - 1 - i), and the columns
    run in increasing lex order, which multiplication keeps.  Its heads are
    the columns of the larger of the two chains' leads Lambda (J's from m
    on); below m, before an I chain has started, it gets none.

    * Standard rows.  Where the h - |Lambda| rows off Lambda are
      independent mod p = PRIME, dim I_d = |Lambda|.  The same test
      (``standard_columns_independent``) of J's leading monomials against
      the blocks beside the jets gives dim J_d = L_J.  J's leads are those
      of forms in the kernel mod p, whose leading monomials are as many as
      its dimension, so its standard rows are independent exactly when
      |Lambda| is U_I (or U_J): the bracket meets, found without ranking
      every row.
    * ``certified_pivots``.  Otherwise the blocks are ranked whole.  It
      ranks them mod its first prime first; where that rank is h (U_I = 0)
      or the blocks' width (full column rank, so it is their rank over Q)
      the bracket meets and it returns there; elsewhere it lifts to the
      rank over Q.  dim I_d is h minus that rank, and h in a degree without
      blocks.  dim J_d is L_J where L_J reaches dim I_d, 0 below m, and
      ``dim_product_ideal`` (on the arrangement as given) where neither
      dim I_d nor the standard rows close it.

    Every value returned is exact, at every prime.

    L_J is rank_p of the products that span J_d over Q, carried mod p from
    degree to degree: J_d mod p is J_{d-1} mod p times the adapted forms of
    V_d while d <= m, and times x_1, ..., x_n after that, since J is
    generated in degree m.  Any integer forms spanning the linear part of
    each I_i over Q would do: their products span J_d over Q, so rank_p <=
    dim J_d at every p.  The forms of the ``rref`` have distinct leading
    variables, which spreads the leading monomials of the products.  The
    chain is carried as the leading columns of its span.

    * d <= m.  The products of the span with the forms of V_d are built
      (``_times_forms``), reduced mod p and eliminated; the echelon is the
      next span, its leading columns the next leads.
    * d > m.  x_j g for g in the span of degree d - 1 lies in the span of
      degree d, and its leading monomial mod p is x_j LM(g), as the
      columns run through the monomials in decreasing lex order, a
      monomial order.  So the multiples of the carried leads
      (``multiples``) are distinct leading monomials of the span, and
      their number c is at most rank_p.  The span lies in the kernel mod p
      of the blocks (beside the jets once they are started), so where the
      h - c standard rows off the multiples are independent,

          c >= dim ker_p >= rank_p >= c,

      the multiples are the span's leading monomials, and the test also
      closes J, and, before the jets, I.  Elsewhere the span is rebuilt
      from the last degree built: the products with x_1, ..., x_n, reduced
      mod p and eliminated in each degree since.

    Either way the leads are those of an elimination in every degree, so
    L_J, and with it every fallback and every value, is too.

    L_I is carried over Q, from the last degree where ``certified_pivots``
    proved its pivots: there ``kernel_leads`` returns the leading monomials
    of forms of I_d.  Every later degree multiplies them by x_1, ..., x_n
    and keeps one product per leading monomial (``multiples``): forms of I
    with distinct leading monomials, so L_I, their number, is at most
    dim I_d at every p.

    Refuses degrees whose monomial count exceeds the cap
    (``check_monomial_cap``).
    """
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    n = a.ambient_dim
    check_monomial_cap(n, d_max)
    p = PRIME
    m = a.num_subspaces
    full = (1 << m) - 1
    s, k, rows, forms = _adapted_coordinates(a)
    del rows[s]  # its block adds exactly c_s
    restrictions = [islice(_substitutions(r, n, len(r), 1, k), 1, None) for r in rows]
    x = np.eye(n, dtype=np.int64).tolist()
    # the J chain: the leading columns of its span, and the span as last
    # built, of degree built
    leads_J = np.zeros(1, dtype=np.intp)
    span, built = np.ones((1, 1), dtype=np.int64), 0
    # the I chain: leading columns of forms in I, from the last
    # certified_pivots that proved its pivots (none before the first)
    empty = np.zeros(0, dtype=np.intp)
    leads_I = empty
    jets = None
    results = [GradedPieceResult(degree=0, dim_I=0, dim_J=0)]
    for d in range(1, d_max + 1):
        h = binom(d + n - 1, n - 1) - binom(d + k - 1, k - 1)
        blocks = [b for b in map(next, restrictions) if b.shape[1]]
        jet_blocks = [] if jets is None else next(jets)
        # whether the standard rows proved L_J = U_J, h - rank_p(blocks | jets)
        tight = False
        if d > m:
            heads = multiples(leads_J, n, d - 1)
            tight = standard_columns_independent(
                _transposed(blocks + jet_blocks, h), h - 1 - heads, p
            )
        if tight:
            leads_J = heads
        else:
            for e in range(built, d):
                products = _times_forms(span, forms[e] if e < m else x, n, e)
                span = echelon_mod_p(reduce_mod_p(products, p), p)[0]
            leads_J = (span != 0).argmax(axis=1)
            built = d
        if len(leads_I):
            leads_I = multiples(leads_I, n, d - 1)
        chain = max(leads_J if d >= m else empty, leads_I, key=len)
        if tight and not jet_blocks:
            # the blocks alone: L_J = U_I
            dim_I = len(leads_J)
        elif blocks or len(chain):
            # a chain closes a degree without blocks by its count
            heads_I = h - 1 - chain if len(chain) else None
            dim_I, leads = kernel_leads(_transposed(blocks, h), heads_I, p)
            if leads is not None and leads is not heads_I:
                # leads a certificate proved restart the I chain, ascending
                leads_I = h - 1 - leads[::-1]
        else:
            dim_I = h
        if d >= m and not tight and len(leads_J) < dim_I:
            if jets is None:
                jets = islice(_flat_jets(forms, n, k), d, None)
                jet_blocks = next(jets)
            tight = standard_columns_independent(
                _transposed(blocks + jet_blocks, h), h - 1 - leads_J, p
            )
        if d < m:
            dim_J = 0
        elif tight or len(leads_J) == dim_I:
            dim_J = len(leads_J)
        else:
            dim_J = dim_product_ideal(a, full, d)
        results.append(GradedPieceResult(degree=d, dim_I=dim_I, dim_J=dim_J))
    return results
