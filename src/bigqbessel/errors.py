"""Exception hierarchy for the big q-Bessel library.

Every failure raised by the library derives from :class:`BigQBesselError`,
so callers (notably the CLI) can map any library failure to a single exit
path while still discriminating causes.  An argument outside the domain
of the call is an :class:`InvalidArgument`, whatever the argument, except
an order at or below the call's floor, which is an :class:`InvalidOrder`;
the other classes report numeric failures.
"""


class BigQBesselError(Exception):
    """Base class for all library-specific errors."""


# --- qcalc ---------------------------------------------------------------

class InvalidArgument(BigQBesselError, ValueError):
    """An argument outside the call's domain, named in the message: a
    number that is not finite or of a foreign type, a tol that is not
    positive, a base q outside (0, 1), a point where the call is undefined
    (x = 0 for the q-derivatives and L, z = 0 for the recurrences), a
    scale a != 1, a count, index or table the call cannot take, or a
    document that is not an object or lacks a field."""


class DivergentSeries(BigQBesselError):
    """The series cannot converge for the given parameters, or the term
    budget was exhausted before the truncation rule certified a tail."""


# --- bqbessel ------------------------------------------------------------

class InvalidOrder(BigQBesselError):
    """The order alpha is at or below the floor of the operation.  Each
    public entry raises it through qcalc._order before any work, naming
    alpha as the caller passed it."""


# --- zerofinder ----------------------------------------------------------

class BracketingFailure(BigQBesselError):
    """The scan ceiling, SCAN_MAX_STEPS steps or about 4 000 zeros, was
    reached before the requested number of zeros was bracketed, or a
    bracketed zero was not simple or not polished to its residual
    target."""


class NoSignChange(BigQBesselError):
    """refine_zero was handed a bracket whose endpoints do not straddle a
    sign change."""


# --- orthogonality -------------------------------------------------------

class NotAZero(BigQBesselError):
    """A closed-form norm was requested at a point that is not a zero of
    J_alpha(1, .; q^2) within tolerance."""


# --- sampling ------------------------------------------------------------

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
