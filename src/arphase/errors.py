"""Exception hierarchy shared by all arphase modules."""


class ArphaseError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ArphaseError, ValueError):
    """Model or distribution parameters violate a structural requirement."""


class PoleError(ArphaseError, ValueError):
    """An evaluation point collides with a pole of a transform."""


class ConvergenceError(ArphaseError, RuntimeError):
    """A series or iterative procedure did not converge within its term cap."""


class SingularSystemError(ArphaseError, RuntimeError):
    """The residue linear system is numerically singular."""


class NumericalConsistencyError(ArphaseError, RuntimeError):
    """A computed quantity violates an invariant beyond numerical tolerance."""
