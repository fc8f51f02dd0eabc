"""Method-of-moments label models for binary weak supervision.

Exact Ising ground truths, triplet accuracy estimators with median
correction, naive-Bayes label models, an exact generalization-error
decomposition, theoretical bound evaluators, and the Monte-Carlo
experiment harness built on top of them.
"""

__version__ = "0.1.0"

from .data import SourceMatrix, load_source_matrix
from .errors import (
    CalibrationError,
    CapacityError,
    ContractError,
    EstimationError,
    IdentityUndefinedError,
    LabelMomentsError,
    NumericalError,
    UnseenConfigurationError,
)
from .ising import (
    IsingModel,
    ModelDiagnostics,
    calibrate,
    diagnostics,
    sample,
)

__all__ = [
    "IsingModel",
    "ModelDiagnostics",
    "SourceMatrix",
    "calibrate",
    "diagnostics",
    "load_source_matrix",
    "sample",
    "LabelMomentsError",
    "CapacityError",
    "ContractError",
    "CalibrationError",
    "EstimationError",
    "UnseenConfigurationError",
    "IdentityUndefinedError",
    "NumericalError",
]
