## The product ideal's series is a combinatorial invariant; the
## intersection ideal's is not.
##
## Two arrangements with the same dimension function always share H(J, t).
## Their intersection ideals can still differ, and this script shows both
## phenomena on two pairs of arrangements, then the transversal closed form.

from subspace_hilbert import (
    dimension_function,
    fit_numerator,
    hilbert_series_J,
    hilbert_table,
    is_series_difference_polynomial,
    is_transversal,
    transversal_hilbert_function,
    transversal_series,
)
from subspace_hilbert.fixtures import fixture_arrangement

## Pair one: the coordinate axes versus three coplanar lines in Q^3.
## Every pairwise and triple intersection is the origin in both cases, so
## the dimension functions agree.

axes = fixture_arrangement("three-coordinate-axes")
coplanar = fixture_arrangement("three-coplanar-lines")
df_axes = dimension_function(axes)
df_coplanar = dimension_function(coplanar)
print("dimension functions equal:", df_axes.dims_by_mask == df_coplanar.dims_by_mask)

hs_axes = hilbert_series_J(df_axes)
hs_coplanar = hilbert_series_J(df_coplanar)
print("H(J) for the axes:     ", hs_axes)
print("H(J) for coplanar lines:", hs_coplanar)
print("product series equal:", hs_axes == hs_coplanar)

## The intersection ideals tell the two apart: a linear form vanishes on
## the coplanar union, so its ideal already has a degree-1 element.

table_axes = hilbert_table(axes, 5)
table_coplanar = hilbert_table(coplanar, 5)
print("dim I_d, axes:          ", [r.dim_I for r in table_axes])
print("dim I_d, coplanar lines:", [r.dim_I for r in table_coplanar])

## Pair two, in Q^4: three planes through a common line, either spanning
## the space or squeezed into a hyperplane.  Same dimension function again.

spanning = fixture_arrangement("three-axis-planes")
flattened = fixture_arrangement("three-pencil-planes")
hs_spanning = hilbert_series_J(dimension_function(spanning))
hs_flattened = hilbert_series_J(dimension_function(flattened))
print("product series equal in Q^4:", hs_spanning == hs_flattened)

dim_i_spanning = [r.dim_I for r in hilbert_table(spanning, 6)]
dim_i_flattened = [r.dim_I for r in hilbert_table(flattened, 6)]
print("dim I_d, spanning planes: ", dim_i_spanning)
print("dim I_d, flattened planes:", dim_i_flattened)

## Recover the intersection-ideal series from the oracle table.  Fitting
## needs values up to degree m + n - 1 = 6; the result is exact.

fitted = fit_numerator(dim_i_flattened, 4)
print(f"H(I) for the flattened planes: ({fitted})/(1 - t)^4")
print(
    "H(I) - H(J) is a polynomial:",
    is_series_difference_polynomial((fitted, 4), hs_flattened),
)

## For transversal arrangements there is one more closed form: with
## f(t) = prod(1 - (1 - t)^{c_i}) / (1 - t)^n, both series differ from f
## only by a polynomial, and an alternating binomial sum gives the shared
## Hilbert function from degree m on.

print("axes transversal:", is_transversal(df_axes))
codims = df_axes.singleton_codims
f_num, power = transversal_series(codims, 3)
print(f"f(t) = ({f_num})/(1 - t)^{power}")
print(
    "H(J) - f is a polynomial:",
    is_series_difference_polynomial(hs_axes, (f_num, power)),
)
values = [transversal_hilbert_function(codims, 3, d) for d in range(3, 9)]
print("binomial-sum values, d = 3..8:", values)
print("series values, d = 3..8:      ", list(hs_axes.table(8))[3:])

## The flattened planes are not transversal, and the binomial sum has no
## claim there -- the closed forms above are exactly the transversal ones.

print(
    "flattened planes transversal:",
    is_transversal(dimension_function(flattened)),
)
