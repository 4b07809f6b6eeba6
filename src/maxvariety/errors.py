"""Exception types shared across the package.

Every failure is raised as one of five classes, each carrying the command
line's ``exit_code`` and stderr ``label``: ``ParameterError`` (1, ``error``)
for an invalid argument or setting, or too few observations;
``UsageError`` (1, ``usage error``) for bad command-line usage or config;
``IngestionError`` (2, ``data error``) for a missing, malformed or
inconsistent input file; ``DegenerateDataError`` (3, ``numerical error``)
for numbers that admit no answer (a singular or non-finite matrix, a zero
variance, wealth that overflows or hits zero); and ``ConvergenceError`` (3,
``numerical error``) for an iterative routine out of steps.  Nothing raises
the bases ``MaxVarietyError`` and ``NumericalError`` directly.
"""

from __future__ import annotations


class MaxVarietyError(Exception):
    """Base class for every failure raised by this package."""

    exit_code = 1
    label = "error"


class ParameterError(MaxVarietyError, ValueError):
    """An argument or setting is invalid, or the observations too few."""


class UsageError(ParameterError):
    """Bad command-line usage (unknown flag, malformed config file)."""

    label = "usage error"


class IngestionError(MaxVarietyError, ValueError):
    """An input file is missing, malformed, or internally inconsistent."""

    exit_code = 2
    label = "data error"


class NumericalError(MaxVarietyError, RuntimeError):
    """A computation could not be completed on the given numbers."""

    exit_code = 3
    label = "numerical error"


class DegenerateDataError(NumericalError):
    """The numbers admit no answer (e.g. a singular matrix, a zero sample)."""


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
