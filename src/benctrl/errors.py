"""Exception types shared across the toolkit."""


class BenctrlError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(BenctrlError, ValueError):
    """Invalid parameters: bad bump profile, non-positive horizon, etc."""


class ClusterSizeError(BenctrlError, RuntimeError):
    """An eigenvalue cluster of size > 3 was detected (model violation)."""


class SingularGramError(BenctrlError, RuntimeError):
    """Gram matrix of exponentials numerically singular (cond > 1e14)."""

    def __init__(self, message, pair=None, cond=None):
        super().__init__(message)
        self.pair = pair
        self.cond = cond


class SingularClusterBlockError(BenctrlError, RuntimeError):
    """A cluster block of the m-matrix is numerically singular."""


class ObservabilityError(BenctrlError, RuntimeError):
    """Observability Gramian singular at this truncation/horizon."""


class DecayFitError(BenctrlError, ValueError):
    """Too few closed-loop norms above the noise floor to fit a decay rate."""
