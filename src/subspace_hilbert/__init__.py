"""Exact Hilbert series, Betti numbers, and dimension recovery for unions of
linear subspaces.

The package computes exactly, on Python ints wherever the values are
integers, with ``fractions.Fraction`` kept for rational input and the
Hilbert polynomial's final coefficients (integers over (n-1)!):

- the Hilbert series of the product ideal attached to a subspace arrangement,
  in closed form from the arrangement's dimension function, together with the
  graded Betti numbers of its linear resolution and its Hilbert polynomial;
- brute-force graded dimensions of both the intersection ideal and the
  product ideal, used as an independent oracle for the closed forms;
- closed-form identities special to transversal arrangements; and
- recovery of the multiset of subspace codimensions from Hilbert-function
  values, or end to end from sample points on the union.

The ``subspace-hilbert`` console script exposes the same functionality on
arrangement and point-cloud files.
"""

from .arrangement import (
    Arrangement,
    DimensionFunction,
    dimension_function,
    is_transversal,
    random_arrangement,
    subset_cap,
)
from .gpca import (
    InconsistentDataError,
    PointCloud,
    RecoveryResult,
    end_to_end_recover,
    estimate_hilbert_value,
    estimate_hilbert_values,
    recover_codimensions,
    sample_points,
)
from .hilbert import (
    BettiTable,
    HilbertPolynomial,
    HilbertSeriesJ,
    PSFamily,
    betti_numbers,
    compute_ps_family,
    hilbert_polynomial_from_numerator,
    hilbert_series_J,
    is_series_difference_polynomial,
    transversal_hilbert_function,
    transversal_series,
)
from .linalg import SubspaceBasis, approx_rank
from .monomials import MonomialCapExceeded, monomial_cap
from .oracle import (
    GradedPieceResult,
    dim_intersection_ideal,
    dim_product_ideal,
    hilbert_table,
)
from .ratpoly import (
    QPoly,
    binom,
    expand_rational,
    fit_numerator,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "BettiTable",
    "DimensionFunction",
    "GradedPieceResult",
    "HilbertPolynomial",
    "HilbertSeriesJ",
    "InconsistentDataError",
    "MonomialCapExceeded",
    "PSFamily",
    "PointCloud",
    "QPoly",
    "RecoveryResult",
    "SubspaceBasis",
    "approx_rank",
    "betti_numbers",
    "binom",
    "compute_ps_family",
    "dim_intersection_ideal",
    "dim_product_ideal",
    "dimension_function",
    "end_to_end_recover",
    "estimate_hilbert_value",
    "estimate_hilbert_values",
    "expand_rational",
    "fit_numerator",
    "hilbert_polynomial_from_numerator",
    "hilbert_series_J",
    "hilbert_table",
    "is_series_difference_polynomial",
    "is_transversal",
    "monomial_cap",
    "random_arrangement",
    "recover_codimensions",
    "sample_points",
    "subset_cap",
    "transversal_hilbert_function",
    "transversal_series",
]
