"""Exception types shared across the package."""

from __future__ import annotations


class TrustlensError(Exception):
    """Base class for all trustlens errors."""


class EmptyLog(TrustlensError):
    """Operation requires a non-empty transaction log."""


class EmptyGroup(TrustlensError):
    """Group statistics require at least one member per group."""


class EmptySet(TrustlensError):
    """Entropy/tree operations require a non-empty transaction set."""


class DegenerateClasses(TrustlensError):
    """Class centroids coincide; no projection direction exists.

    Callers should fall back on a risk-averse majority decision.
    """


class DimensionMismatch(TrustlensError):
    """Feature vector length differs from the expected dimensionality."""


class InsufficientKnowledge(TrustlensError):
    """Not enough per-class history to train, and no usable overlay."""


class DuplicateId(TrustlensError):
    """Transaction ids must be unique within a log."""


class ConstantFeature(TrustlensError):
    """Feature takes a single value; it cannot be discretized."""


class EmptyTupleSet(TrustlensError):
    """Knowledge combination requires at least one tuple."""


class CancelledDirection(TrustlensError):
    """Weighted directions annihilated; combined direction is undefined."""


class ConfigError(TrustlensError):
    """Invalid simulation or CLI configuration."""


class LogFormatError(TrustlensError):
    """Malformed transaction-log CSV; carries the offending position."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")
