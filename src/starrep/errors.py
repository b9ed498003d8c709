"""Exception types shared across the library.

Each class carries ``exit_status``, the status the command line exits with
when it reports that error: 1 for a domain error, 2 for a usage or
workspace error, 3 for an algebra that is not semisimple.  A subclass
inherits its base's status unless it sets its own.
"""


class StarRepError(Exception):
    """Base class for every error raised by this package."""

    exit_status = 1


# -- numerics ---------------------------------------------------------------

class NonSquare(StarRepError):
    pass


class NotHermitian(StarRepError):
    pass


class NegativeEigenvalue(StarRepError):
    pass


class NoConvergence(StarRepError):
    pass


class NonFiniteScalar(StarRepError):
    """A non-finite number where a finite one is needed.

    A scale factor or weight that is NaN or infinite, an entry of a sum,
    multiple or product that overflows, or an eigenvalue of a finite matrix
    beyond the float range.
    """


# -- algebra ----------------------------------------------------------------

class DimMismatch(StarRepError):
    pass


class ShapeMismatch(StarRepError):
    pass


class NotAGroup(StarRepError):
    pass


class NotSemisimple(StarRepError):
    """The algebra has no faithful trace, so it is not a direct sum of matrix algebras.

    Raised when the Wedderburn block data is first needed, not at load: the
    Gram-form operations work on any *-algebra.
    """

    exit_status = 3


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

    exit_status = 2


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
