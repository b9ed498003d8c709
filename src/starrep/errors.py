"""Exception types shared across the library."""


class StarRepError(Exception):
    """Base class for every error raised by this package."""


# -- numerics ---------------------------------------------------------------

class NonSquare(StarRepError):
    pass


class NotHermitian(StarRepError):
    pass


class NegativeEigenvalue(StarRepError):
    pass


class NoConvergence(StarRepError):
    pass


# -- algebra ----------------------------------------------------------------

class DimMismatch(StarRepError):
    pass


class ShapeMismatch(StarRepError):
    pass


class NotAGroup(StarRepError):
    pass


# -- duality / gns ----------------------------------------------------------

class NotPositive(StarRepError):
    pass


class NonRealUnitValue(StarRepError):
    pass


class ZeroFunctional(StarRepError):
    pass


class NotEquivalent(StarRepError):
    pass


class InvalidRepresentation(StarRepError):
    pass


class SplitFailure(StarRepError):
    pass


# -- kernels ----------------------------------------------------------------

class NotDominated(StarRepError):
    pass


class NegativeScalar(StarRepError):
    pass


class NegativeWeight(StarRepError):
    pass


class ZeroKernel(StarRepError):
    pass


class MonotonicityViolation(StarRepError):
    pass


class NotMajorized(StarRepError):
    pass


# -- correspondence ---------------------------------------------------------

class NotStarInvariant(StarRepError):
    pass


class PullbackInvarianceFailure(StarRepError):
    pass


# -- cli / workspace --------------------------------------------------------

class WorkspaceError(StarRepError):
    """Base class for workspace-file and command-dispatch errors."""


class IoError(WorkspaceError):
    pass


class ParseError(WorkspaceError):
    pass


class ValidationError(WorkspaceError):
    pass


class UnknownEntity(WorkspaceError):
    pass


class BadArgument(WorkspaceError):
    """A command-line value that cannot be used: a negative tolerance, a bad term list."""
