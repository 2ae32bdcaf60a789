"""Numerical tolerances shared across the package.

Relative tolerances are multiplied by a problem scale at the point of
use (power budget, channel norms, objective value); absolute ones
apply to O(1) quantities such as MSE values.
"""

TOL_FEAS_REL = 1e-9        # power-budget feasibility slack, x budget
TOL_ACTIVE_REL = 1e-8      # active-set threshold in multiplier recovery, x budget
TOL_KKT = 1e-7             # stationarity / complementarity residual bound
TOL_MEMBER = 1e-6          # dominated-membership margin threshold (MSE units)
COLINEARITY_RTOL = 1e-12   # Gram determinant threshold, x ||h1||^2 ||h2||^2
CLUSTER_REL_RADIUS = 1e-3  # stationary-point clustering radius, x budget
PGD_TOL_REL = 1e-8         # projected-gradient stopping rule, x (1 + |objective|)

# every constant above under its lower-case name, in the order declared
TOLERANCES = {name.lower(): value for name, value in list(globals().items()) if name.isupper()}
