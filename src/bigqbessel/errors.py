"""Exception hierarchy for the big q-Bessel library.

Every numerical failure mode raised by the library derives from
:class:`BigQBesselError`, so callers (notably the CLI) can map any library
failure to a single exit path while still discriminating causes.
"""


class BigQBesselError(Exception):
    """Base class for all library-specific errors."""


# --- qcalc ---------------------------------------------------------------

class InvalidArgument(BigQBesselError, ValueError):
    """An argument is not finite, or a tolerance is not positive."""


class DivergentSeries(BigQBesselError):
    """The series cannot converge for the given parameters, or the term
    budget was exhausted before the truncation rule certified a tail."""


class ZeroArgument(BigQBesselError):
    """A difference quotient was requested at x = 0."""


class NonPositiveUpperLimit(BigQBesselError):
    """The q-integral upper limit must be strictly positive."""


# --- bqbessel ------------------------------------------------------------

class InvalidOrder(BigQBesselError):
    """The order alpha is outside the validity range of the operation."""


class ZeroSpectralParameter(BigQBesselError):
    """A recurrence relation with a 1/lambda^2 prefactor was invoked at
    z = lambda^2 = 0."""


# --- zerofinder ----------------------------------------------------------

class BracketingFailure(BigQBesselError):
    """The geometric scan ceiling was reached before the requested number
    of zeros was bracketed.  This signals that the scan ceiling must be
    raised, not that the zeros do not exist."""


class NoSignChange(BigQBesselError):
    """refine_zero was handed a bracket whose endpoints do not straddle a
    sign change."""


# --- orthogonality -------------------------------------------------------

class ScaleMismatch(InvalidArgument):
    """A lattice signal's scale a is not 1: the zeros and every lattice
    sum live on the unit lattice {q^m} of [0, 1]."""


class NotAZero(BigQBesselError):
    """A closed-form norm was requested at a point that is not a zero of
    J_alpha(1, .; q^2) within tolerance."""


class LengthMismatch(BigQBesselError):
    """Coefficient list and zero table have different lengths."""


# --- sampling ------------------------------------------------------------

class IndexOutOfRange(BigQBesselError):
    """Kernel index outside the zero table."""


class AtPole(BigQBesselError):
    """Evaluation point coincides (within tolerance) with a zero of the
    denominator function."""


# --- cli -----------------------------------------------------------------

class MalformedInput(BigQBesselError):
    """An input file is not valid JSON, or lacks a field the document
    needs."""


class UnprintableValue(BigQBesselError):
    """mpmath cannot render a value in decimal: its conversion of a
    high-precision value far from 1 exceeds Python's limit on int-to-str
    digits."""
