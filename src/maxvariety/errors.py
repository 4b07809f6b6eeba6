"""Exception types shared across the package.

The hierarchy mirrors how failures are reported at the command line:
parameter problems, data/ingestion problems, and numerical problems are
distinct branches.  Each class carries the command line's ``exit_code``
and stderr ``label`` for its failures: 1 and ``error`` on the base and
parameter branch (``usage error`` for ``UsageError``), 2 and ``data
error`` for ingestion, 3 and ``numerical error`` for numerical failures.
"""

from __future__ import annotations


class MaxVarietyError(Exception):
    """Base class for every failure raised by this package."""

    exit_code = 1
    label = "error"


class ParameterError(MaxVarietyError, ValueError):
    """An argument or configuration value is invalid."""


class UsageError(ParameterError):
    """Bad command-line usage (unknown flag, malformed config file)."""

    label = "usage error"


class IngestionError(MaxVarietyError, ValueError):
    """An input file is missing, malformed, or internally inconsistent."""

    exit_code = 2
    label = "data error"


class InsufficientSamplesError(ParameterError):
    """An estimator was asked to run with too few observations."""


class NumericalError(MaxVarietyError, RuntimeError):
    """A computation could not be completed on the given numbers."""

    exit_code = 3
    label = "numerical error"


class SingularMatrixError(NumericalError):
    """A matrix that must be invertible is singular or indefinite."""


class DegenerateDataError(NumericalError):
    """Observations are unusable for estimation (e.g. an all-zero sample)."""


class DegenerateSpectrumError(NumericalError):
    """A spectrum manipulation produced non-positive eigenvalues."""


class ConvergenceError(NumericalError):
    """An iterative routine ran out of iterations.

    Carries the last iterate and the residual it stalled at, so callers
    can inspect how close the routine got.
    """

    def __init__(self, message: str, *, residual: float | None = None,
                 iterate=None):
        super().__init__(message)
        self.residual = residual
        self.iterate = iterate
