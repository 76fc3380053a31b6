"""Configuration constants shared across the library.

These are the tunable defaults referenced throughout the modules; they are
collected here so that tolerances and scan parameters are configuration
values rather than magic numbers scattered through the code.
"""

# Relative truncation tolerance used by every series operation unless the
# caller overrides it.
DEFAULT_TOL = 1e-13

# Hard cap on the number of series terms before DivergentSeries is raised.
TERMS_MAX = 10_000

# Largest supported base: term counts and cancellation grow as q -> 1, and
# the classical-limit checks use loosened tolerances near this ceiling.
Q_MAX = 0.999

# Zero finder: absolute residual target on |J_alpha(1, j; q^2)| and the
# floor on |lambda dJ/dlambda| below which a zero is not accepted as simple
# (dJ/dlambda itself falls like 1/lambda at a far first zero).
RESIDUAL_TOL = 1e-9
SIMPLICITY_FLOOR = 1e-12

# Zero finder scan: geometric grid z_m = Z_START * rho^m in z = lambda^2
# with rho = q**RHO_EXPONENT, each step cut into SUBDIVISIONS sub-brackets
# to guard against sign-change pairs hiding inside one step; the scan gives
# up after SCAN_MAX_STEPS steps, about 4 000 zeros at 4-5 steps per zero.
Z_START = 1e-3
RHO_EXPONENT = -0.5
SUBDIVISIONS = 8
SCAN_MAX_STEPS = 20_000

# Closed-form norm: the largest |J_alpha(1, j; q^2)| at which j is taken
# for a zero; above it norm_sq_closed raises NotAZero.
NOT_A_ZERO_TOL = 1e-6

# Sampling kernel: relative half-width of the removable-singularity branch
# around each zero (hard switch; the kernel is smooth on this scale).
KERNEL_POLE_WIDTH = 1e-6

# Extra decimal digits of working precision added on top of the estimated
# peak-term magnitude and the requested tolerance.  The series here suffer
# catastrophic cancellation (peak terms can exceed the sum by hundreds of
# orders of magnitude near large zeros), so precision is chosen adaptively
# per evaluation instead of being fixed at 64-bit.
GUARD_DIGITS = 25
MIN_DPS = 30
