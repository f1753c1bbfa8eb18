"""Exception types shared across the package."""


class HgmmError(Exception):
    """Base class for all package-specific errors."""


class NotSymmetricError(HgmmError):
    """A matrix expected to be symmetric is not."""


class IndefiniteMatrixError(HgmmError):
    """A covariance matrix has an eigenvalue below the allowed tolerance."""


class NonFiniteValueError(HgmmError, ValueError):
    """A mean or covariance contains NaN or infinity."""


class DimensionMismatchError(HgmmError):
    """Vector/matrix dimensions do not agree."""


class EmptyMixtureError(HgmmError):
    """An operation requires at least one mixand."""


class SingularCovarianceError(HgmmError):
    """A covariance matrix required to be invertible is singular."""


class InvalidSigmaError(HgmmError):
    """Split variance parameter outside (0, 1]."""


class QpInfeasibleError(HgmmError):
    """The weight QP has no feasible point (indicates a solver bug)."""


class MaxIterationsError(HgmmError):
    """An iterative solver failed to terminate."""


class DegenerateVarianceError(HgmmError):
    """A statistic is undefined because a sample has zero variance."""


class ModelEvaluationFailure(HgmmError):
    """A dynamics function could not be evaluated at a requested point."""


class NoSuccessorError(HgmmError):
    """A discrete state has no successors (malformed road network)."""


class NonFiniteDensityError(HgmmError):
    """A density evaluated to a non-finite value on the integration grid."""


class NoFrameMatchError(HgmmError):
    """An observation timestamp has no anticipation frame within dt/2."""
