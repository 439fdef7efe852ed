"""Exception types shared across the package."""


class HypdetError(Exception):
    """Base class for all package errors."""


class PerturbationTooLarge(HypdetError, ValueError):
    """Requested perturbation strength exceeds the documented hyperbolicity
    margin; a ValueError, so the CLI reports it as a config error."""


class DegenerateDirection(HypdetError):
    """Power iteration collapsed; no usable stable/unstable direction."""


class ConeViolation(HypdetError):
    """A cone condition failed."""


class NonHyperbolicMatrix(HypdetError):
    """Integer matrix has an eigenvalue on (or numerically near) the unit circle."""


class NewtonDiverged(HypdetError):
    """The orbit Newton solve failed to converge for some periodic point."""


class SingularLinearization(HypdetError):
    """Id - DT^m is numerically singular at a periodic point."""


class CollisionDetected(HypdetError):
    """Two periodic points from the Newton solve merged within the dedupe radius."""


class OrientationNotTrivial(HypdetError):
    """sign det(DT^m | E^u) = -1 at some periodic point; zeta product unavailable."""


class EigenSolverFailure(HypdetError):
    """The nonsymmetric eigensolver did not converge."""


class InequalityViolated(HypdetError):
    """A numeric inequality assertion failed; carries the offending data."""

    def __init__(self, message, data=None):
        super().__init__(message)
        self.data = data


class CrossCheckFailed(HypdetError):
    """Two independent routes to the same quantity disagree beyond tolerance."""

    def __init__(self, message, data=None):
        super().__init__(message)
        self.data = data


class GridTooCoarse(HypdetError):
    """Grid Nyquist frequency cannot resolve the requested dyadic band."""


class EmptyConstraintSet(HypdetError):
    """No sampled covector satisfied the cone constraint."""


class SingularResolvent(HypdetError):
    """Id - z*M_b too ill-conditioned to invert reliably."""


class IllConditionedRoot(UserWarning):
    """A polynomial root carries backward error above threshold."""


class MissingArtifacts(HypdetError):
    """Report consolidation found no prior run outputs, or one it cannot read."""
