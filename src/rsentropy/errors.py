"""Exception types shared across the package, and the one check of a
positive integer argument."""

import numbers


class RsentropyError(Exception):
    """Base class for all package errors."""


# -- projective / scalar layer ------------------------------------------------

class ZeroVector(RsentropyError):
    """Both homogeneous coordinates vanish."""


class BadScalarLiteral(RsentropyError):
    """A string could not be parsed as an exact rational scalar."""


# -- rational-map algebra -----------------------------------------------------

class CommonFactor(RsentropyError):
    """Numerator and denominator forms share a nontrivial polynomial factor."""


class DegenerateMap(RsentropyError):
    """The homogeneous pair does not define a surjective self-map."""


class DegreeMismatch(RsentropyError):
    """Numerator and denominator forms have different homogeneous degrees."""


class NotMobius(RsentropyError):
    """Classification requested for a map of degree != 1."""


class RootFindingFailure(RsentropyError):
    """The simultaneous root iteration failed to converge or verify."""


# -- correspondences and orbits -----------------------------------------------

class DuplicateGenerator(RsentropyError):
    """A generator set listed equal maps; encode repeats as multiplicities."""


class LengthMismatch(RsentropyError):
    """Multiplicity vector length does not match the generator count."""


class BudgetExceeded(RsentropyError):
    """A configured enumeration budget would be exceeded."""


class NonGenericTerminal(RsentropyError):
    """A backward orbit tree hit a critical value even after perturbation."""


class DepthMismatch(RsentropyError):
    """A shift-orbit count asked for a horizon beyond its pool's depth."""


# -- counting and estimation --------------------------------------------------

class MixedNu(RsentropyError):
    """A pool's arrays disagree on its orbit count or length, or a pool has
    another length than the count asks for."""


class EmptyPool(RsentropyError):
    """A counting operation received no orbits."""


class NonCanonicalPoint(RsentropyError):
    """A pool holds a point whose h0 is not real and nonnegative."""


class InsufficientData(RsentropyError):
    """A growth-rate fit needs at least three ladder points per epsilon."""


class InconsistentItinerary(RsentropyError):
    """A point sequence has a step realized by no generator."""


class EmptyInput(RsentropyError):
    """A closed-form evaluation received an empty degree sequence."""


# -- configuration ------------------------------------------------------------

class UnreadableFile(RsentropyError):
    """Config file missing or unreadable."""


class UnwritableFile(RsentropyError):
    """A report or CSV output path cannot be written."""


class UnknownLogLevel(RsentropyError):
    """RSENTROPY_LOG names no logging level."""


class SchemaViolation(RsentropyError):
    """Config failed validation; `pointer` locates the offending field."""

    def __init__(self, message, pointer=""):
        super().__init__(message)
        self.pointer = pointer


def positive_int(value, message: str) -> int:
    """value as an int; ValueError(message) unless it is an integer >= 1.
    A numpy integer is one; a bool or a float, even an integral one, is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(message)
    return int(value)
