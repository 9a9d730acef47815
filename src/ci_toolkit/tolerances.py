"""The package's numeric tolerances, each set once, with its reason.

The thresholds the verification suites print with their checks stay in
`suites`: they are the claims, not numerics.
"""

# Hermitian, trace and PSD checks of states and POVM elements, the rank-one
# test, the maximally-correlated residual: rounding of assembled matrices.
VALIDATE = 1e-10
# Weights, ranks and norms at or below it count as zero; no entropy reads it.
ZERO = 1e-12
# Off-diagonal size (relative in `info`) below which a matrix is diagonal.
DIAG = 1e-13
# Exact identities checked on computed values: purity, brackets, factors,
# unitarity, POVM completeness, ensemble and preset sums.
SLACK = 1e-9
