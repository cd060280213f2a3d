"""Exception hierarchy shared by all hopfkit modules."""


class HopfkitError(Exception):
    """Base class for all errors raised by hopfkit."""


# -- exact arithmetic ---------------------------------------------------------

class ConductorMismatch(HopfkitError):
    pass


class DivisionByZero(HopfkitError, ZeroDivisionError):
    pass


class NotASubfield(HopfkitError):
    pass


class AmbientMismatch(HopfkitError):
    pass


class FieldTooSmall(HopfkitError):
    pass


# -- Hopf structure -----------------------------------------------------------

class AntipodeNotInvertible(HopfkitError):
    pass


class NotAHopfIdeal(HopfkitError):
    pass


class NotSurjective(HopfkitError):
    pass


class VerificationFailed(HopfkitError):
    pass


# -- invariants ---------------------------------------------------------------

class IntegralSpaceNotOneDim(HopfkitError):
    pass


class NotNormalizable(HopfkitError):
    pass


class ExtractionInconsistent(HopfkitError):
    pass


class BoundExceeded(HopfkitError):
    pass


class ClaimNotGrouplike(HopfkitError):
    pass


class ClaimIncomplete(HopfkitError):
    pass


class ClaimOvercomplete(HopfkitError):
    pass


class NotGrouplike(HopfkitError):
    pass


class SectionFails(HopfkitError):
    pass


# -- constructors -------------------------------------------------------------

class NonTerminatingRewrite(HopfkitError):
    pass


class AxiomFailure(HopfkitError):
    pass


class BadParameter(HopfkitError):
    pass


class NonMonomialConstraint(HopfkitError):
    pass


class WeakActionAxiomFails(HopfkitError):
    pass


class CocycleConditionFails(HopfkitError):
    pass


class DimensionGateExceeded(HopfkitError):
    pass


class NoEmbeddingFound(HopfkitError):
    pass


# -- quasitriangular ----------------------------------------------------------

class FixtureRejected(HopfkitError):
    pass


# -- cli / files --------------------------------------------------------------

class ParseError(HopfkitError):
    pass


class ScaleGateExceeded(HopfkitError):
    pass
