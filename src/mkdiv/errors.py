"""Semantic exception hierarchy.

Every error raised on purpose by this package derives from :class:`MkdivError`,
so callers (and the CLI) can distinguish domain/configuration problems from
genuine bugs.
"""


class MkdivError(Exception):
    """Base class for all errors raised by mkdiv."""


class DomainError(MkdivError, ValueError):
    """An argument lies outside the mathematical domain of an operation;
    ``index``, when known, is the flat index of its first offending entry."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class IngestionError(MkdivError, ValueError):
    """Raw data could not be ingested (empty, non-finite, malformed)."""


class ConfigError(MkdivError, ValueError):
    """A spec string or configuration object could not be parsed."""


class CapacityError(MkdivError, ValueError):
    """An exact solver was asked for a problem above its size limit."""


class CalibrationError(MkdivError, RuntimeError):
    """No multiplier in the search bracket meets the divergence budget."""

    def __init__(self, message, achieved_range=None):
        if achieved_range is not None:
            message = f"{message} (achievable divergence range: {achieved_range})"
        super().__init__(message)
        self.achieved_range = achieved_range


class InfeasibleLambdaError(MkdivError, ValueError):
    """A candidate multiplier makes the perturbed quantile formula leave the
    range of the generator derivative at some grid node."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class MomentError(MkdivError, ArithmeticError):
    """A required moment is non-finite under the module quadrature."""


class AmbiguityError(MkdivError, ValueError):
    """A functional with a uniqueness precondition detected several candidate
    solutions (e.g. multiple cdf/threshold crossings)."""


class EvaluationError(MkdivError, RuntimeError):
    """A numerical evaluation produced no usable (finite) values."""
