## Recovering subspace dimensions from points on the union.
##
## Given sample points drawn from a union of subspaces, the dimension of the
## polynomials of degree d vanishing on the points estimates the Hilbert
## function of the intersection ideal.  For a transversal arrangement those
## values pin down the multiset of subspace codimensions exactly.

from subspace_hilbert import (
    InconsistentDataError,
    PointCloud,
    estimate_hilbert_value,
    estimate_hilbert_values,
    random_arrangement,
    recover_codimensions,
    end_to_end_recover,
    sample_points,
    transversal_hilbert_function,
)
from subspace_hilbert.fixtures import fixture_arrangement

## Start from values alone.  Suppose the Hilbert function of an unknown
## union of m = 3 subspaces of Q^3 takes the values 7, 12, 18 at degrees
## 3, 4, 5.  Recovery turns the values, by integer difference steps, into
## the first n coefficients of the product of the factors (1 - t^c), one per
## subspace, and peels off the factors one codimension at a time.

result = recover_codimensions([7, 12, 18], m=3, n=3)
print("multiplicities by codimension:", result.multiplicities)
print("codimensions:", result.codims)
print("dimensions:  ", result.dims)

## Now end to end from points.  Sample ten exact rational points from each
## coordinate axis and estimate the Hilbert values by rank computations.
## Over consecutive degrees only the first rank is certified in full: the
## leading monomials of the forms vanishing in one degree, times the
## variables, are leading monomials of vanishing forms one degree up, and
## one rank mod a prime shows when they account for all of them.

axes = fixture_arrangement("three-coordinate-axes")
cloud = sample_points(axes, 10, seed=2718)
print(f"points sampled: {len(cloud.points)} (exact: {cloud.exact})")
values = estimate_hilbert_values(cloud, range(3, 6))
print("estimated Hilbert values at d = 3, 4, 5:", values)

recovered = end_to_end_recover(cloud, m=3)
print("recovered dimensions:", recovered.dims)

## The same pipeline tolerates floating-point data.  Convert the cloud to
## floats and re-run with a rank tolerance instead of exact arithmetic.

float_cloud = PointCloud(3, [[float(x) for x in p] for p in cloud.points])
print("float cloud exact:", float_cloud.exact)
print(
    "recovered from floats:",
    end_to_end_recover(float_cloud, m=3, tol=1e-8).dims,
)

## A larger seeded round trip: draw a random transversal codimension
## pattern, evaluate its binomial-sum Hilbert function, and confirm the
## values lead back to the pattern.

n, m = 5, 4
codims = [1, 2, 2, 3]
values = [transversal_hilbert_function(codims, n, d) for d in range(m, m + n)]
print(f"values for codimensions {codims}:", values)
print("recovered:", list(recover_codimensions(values, m, n).codims))

## With too few points per subspace the vanishing ideal looks bigger than
## it is, the estimates drift up, and recovery reports the inconsistency.

arr = random_arrangement(4, [2, 1, 2], seed=99)
starved = sample_points(arr, 2, seed=100)
plenty = sample_points(arr, 35, seed=100)
d = 4
print("estimate with  2 points per subspace:", estimate_hilbert_value(starved, d))
print("estimate with 35 points per subspace:", estimate_hilbert_value(plenty, d))
try:
    end_to_end_recover(starved, m=3)
except InconsistentDataError as exc:
    print("recovery from the starved cloud fails:", exc)
print("recovery from the full cloud:", end_to_end_recover(plenty, m=3).dims)
