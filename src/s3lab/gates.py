"""The one table of gate constants: the bounds that the CLI and the
acceptance suite compare measured values against.  Where the two used to
differ, the table keeps the tighter value."""

# Clebsch-Gordan row and column orthogonality defects (measured max 3.1e-15
# over 541 tables up to m + n = 200)
CG_DEFECT_BOUND = 1e-9
# bilinear: largest witness-included cell maximum (measured 1.0)
C_STAR_BOUND = 1.05
# trilinear ratio of the multilinear corollary (measured max 1.00)
TRILINEAR_BOUND = 1.25
# annulus measure / K over random queries (measured max 4.20 over 1e4 queries
# at seed 3, 3.68-4.94 over seeds 0-39)
ANNULUS_BOUND = 8.0
# resonant-set measure / ((M/N)^(4 delta) N), worst over a 5.3 scan (measured max ~27)
SETB_BOUND = 60.0
# fitted growth exponent of the 5.2 quadric and hyperbola counts
EXPONENT_BOUND = 0.3
# fitted slopes: bilinear no-growth, 5.3 ratios, Strichartz quotients
SLOPE_BOUND = 0.05
# relative Plancherel mismatch, time side against frequency side: windowed
# time rule, which misses the Fejer tail outside its window (measured 0.26-0.28 %)
PLANCHEREL_TOL = 0.02
# the same under the periodic-exact time rule (measured <= 7e-16)
PLANCHEREL_EXACT_TOL = 1e-12
# relative gap between exact product norms and the quadrature oracle
CROSS_CHECK_TOL = 1e-4
# Casimir-oracle projectors and block-diagonalization leakage (rounding only)
ORACLE_DEFECT_BOUND = 1e-8
# |f g - sum of the product components| at Haar samples
POINTWISE_BOUND = 1e-8
# a floor: smallest zonal ratio (1 by the character product rule)
ZONAL_FLOOR = 0.1
# Plancherel mismatch of the windowed rule at twice the anti-aliasing n_t
PLANCHEREL_REFINED_TOL = 0.005
# relative change of the L4 norm under Galilean shifts in xi1 and xi2
GALILEAN_TOL = 1e-6
# Gamma mass beyond K1 + K2, which cover Gamma tuple by tuple: rounding only
GAMMA_MASS_TOL = 1e-12
# max/min ratio spread of the square-indicator norms against N^(1/4)
BOX_SPREAD_BOUND = 2.0
