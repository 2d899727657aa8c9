"""Exception types shared across the package.

Every error raised by public functions derives from FedssaError so callers
can catch the whole family, while the concrete subclasses keep failure modes
distinguishable in tests and at the CLI boundary.
"""

from __future__ import annotations


class FedssaError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(FedssaError, ValueError):
    """Operands have incompatible or malformed dimensions."""


class ConfigError(FedssaError, ValueError):
    """Invalid configuration value, unknown key, or unusable file schema."""


class ContractError(FedssaError, ValueError):
    """A documented precondition of an operation was violated."""


class RankError(FedssaError, ArithmeticError):
    """Matrix is numerically rank-deficient where full rank is required."""


class NumericError(FedssaError, ArithmeticError):
    """Computation produced non-finite values or lost positive definiteness.

    members lists the members at fault when the failing computation knows
    them: leading-axis rows of a stacked tape value, or client ids.
    """

    def __init__(self, message: str = "", members=()):
        super().__init__(message)
        self.members = tuple(int(m) for m in members)


class InfeasibleError(FedssaError, ValueError):
    """Requested decomposition cannot satisfy its balance constraints."""


class ProtocolError(FedssaError, RuntimeError):
    """Federation round received an inconsistent set of messages."""


class TrainingDivergenceError(FedssaError, RuntimeError):
    """Local optimization produced a non-finite loss; parameters rolled back.

    history holds the RoundMetrics of the rounds that completed before the
    diverging one, once run_round has seen the error.
    """

    history = ()


class UndefinedMetricError(FedssaError, ValueError):
    """Metric is undefined for the given split (e.g. single-class AUC)."""
