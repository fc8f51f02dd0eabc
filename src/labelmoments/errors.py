"""Exception hierarchy shared across the package."""


class LabelMomentsError(Exception):
    """Base class for all domain errors raised by this package."""


class CapacityError(LabelMomentsError):
    """An exact-enumeration operation was requested above the source-count guard."""


class ContractError(LabelMomentsError, ValueError):
    """Inputs violate an operation's preconditions (shapes, ranges, missing labels)."""


class CalibrationError(LabelMomentsError):
    """No model reaches the calibration targets.

    Carries the infeasible edge's cell probabilities (and potentials, when
    the cells are positive) as ``residuals``.
    """

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class EstimationError(LabelMomentsError):
    """No usable triplet remained for at least one source."""


class UnseenConfigurationError(LabelMomentsError):
    """A source configuration has zero estimated probability in empirical mode."""


class IdentityUndefinedError(LabelMomentsError):
    """The error decomposition is undefined: some configuration has zero mass."""


class NumericalError(LabelMomentsError):
    """A numerical step failed (singular covariance, degenerate bound constants)."""
